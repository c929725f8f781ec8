"""The perfbench tracer's patch table names only attributes that exist.

``perfbench/layertrace.py`` wraps layer entry points of ``repro`` by name
(``vars(module)[name]``), so renaming or removing one of them breaks the
traced benchmark run.  Installing and uninstalling the tracer here catches
that in tier-1, without the cold pll3 cache a traced run first builds.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layertrace
    import repro.engine.engine
    import repro.sweep.planner

    originals = (repro.engine.engine._execute_job,
                 repro.sweep.planner._execute_job)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert repro.engine.engine._execute_job is not originals[0]
        assert repro.sweep.planner._execute_job is not originals[1]
    finally:
        tracer.uninstall()
    assert (repro.engine.engine._execute_job,
            repro.sweep.planner._execute_job) == originals
