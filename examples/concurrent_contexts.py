"""Isolated, concurrent verification with one ``SolveContext`` per pipeline.

Two :class:`repro.sdp.SolveContext` objects — one driving a full-SOS, one
a chordal verification, each with its own certificate cache — verify the
time-reversed Van der Pol scenario *concurrently* from a thread pool.  The
cache and the solve/compile counters live on the context instead of in
module globals, so the two runs cannot clobber each other and their
counters account for exactly their own work.  A fresh context over the
full-SOS cache directory then replays the verification with zero SDP
solves.

Run with:  PYTHONPATH=src python examples/concurrent_contexts.py
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.core import InevitabilityVerifier
from repro.engine import CertificateCache
from repro.scenarios import build_problem
from repro.sdp import SolveContext, default_context


def run_context(cache_dir: Path, relaxation: str, name: str):
    context = SolveContext(cache=CertificateCache(cache_dir), name=name)
    problem = build_problem("vanderpol", relaxation=relaxation)
    report = InevitabilityVerifier(problem, context=context).verify()
    return context, report


def main() -> None:
    cache_root = Path(tempfile.mkdtemp(prefix="repro-contexts-"))

    # --- concurrent verification, one thread per context -----------------
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {relaxation: pool.submit(run_context, cache_root / relaxation,
                                           relaxation, f"vdp-{relaxation}")
                   for relaxation in ("sos", "chordal")}
        results = {relaxation: future.result()
                   for relaxation, future in futures.items()}

    for context, report in results.values():
        print(f"== {context.name} ==")
        print(f"  property 1: {report.property_one.status.value}")
        for mode, level, degree in report.property_one.invariant.summary_rows():
            print(f"  {mode}: degree-{degree} certificate, level c = {level:.4g}")
        print(f"  solve counters:   {context.solve_counters()}")
        print(f"  compile counters: {context.compile_counters()}")
        print(f"  cache stats:      {context.cache.stats.as_dict()}")
        print(f"  timed steps:      {[timing.step for timing in report.timings]}")

    # --- warm replay: same cache directory, fresh context ----------------
    warm, _ = run_context(cache_root / "sos", "sos", "vdp-warm")
    counters = warm.solve_counters()
    print(f"== warm replay == {counters}")
    assert counters["solved"] == 0, "warm cache must perform zero SDP solves"

    # Context state never leaked into the process-default counters.
    print(f"process-default counters (untouched): "
          f"{default_context().solve_counters()}")


if __name__ == "__main__":
    main()
