"""Gram-cone relaxation benchmark on the pll3 level-set stage.

For every relaxation (DSOS -> LP cones, SDSOS -> 2x2 PSD pair blocks,
SOS -> one full PSD Gram block) the bench runs the self-consistent pipeline
slice — Lyapunov synthesis under the relaxation, then per-mode level-curve
maximisation under the same relaxation — and records compile+solve wall
time, the certified levels and success.

Two asserted claims:

* SDSOS certifies a positive level for every pll3 mode (it *succeeds*), and
* where it succeeds, the SDSOS cone layout's projection step — the
  per-iteration hot path of the ADMM backend — runs at least 2x faster than
  the full-PSD layout's stacked ``eigh``, thanks to the closed-form batched
  2x2 projection.

End-to-end wall time is recorded but deliberately *not* asserted: on Gram
orders this small (10-20) the KKT solve, not the eigendecomposition,
dominates an ADMM iteration, and the lifted SDD variables can slow
first-order convergence; the projection-step speedup is the robust,
hardware-meaningful win (and grows with the Gram order).  The results land
in ``benchmarks/BENCH_relaxations.json``.
"""

import time

import numpy as np
import pytest

from repro.core import LevelSetMaximizer, MultipleLyapunovSynthesizer
from repro.core.inclusion import ParametricInclusionFamily
from repro.core.inevitability import levelset_domain_for
from repro.exceptions import CertificateError
from repro.scenarios import build_problem
from repro.sdp import project_onto_cone_many

from conftest import print_rows, write_bench


RELAXATIONS = ("dsos", "sdsos", "sos")


def _pll3_problem():
    problem = build_problem("pll3")
    problem.options.lyapunov.domain_boxes = problem.state_bounds()
    # Trim the ladder budget: the bench compares relaxations, it does not
    # need the production bisection depth.
    problem.options.levelset.max_bisection_iterations = 4
    problem.options.levelset.levels_per_round = 4
    return problem


def _run_stage(problem, relaxation):
    """One self-consistent pipeline slice under a fixed relaxation."""
    problem.options.apply_relaxation(relaxation)
    record = {"relaxation": relaxation}

    start = time.perf_counter()
    synthesizer = MultipleLyapunovSynthesizer(
        problem.system, options=problem.options.lyapunov)
    lyapunov = synthesizer.synthesize()
    record["lyapunov_seconds"] = time.perf_counter() - start
    record["lyapunov_feasible"] = bool(lyapunov.feasible)
    if not lyapunov.feasible:
        record["levelset_success"] = False
        record["levels"] = {}
        record["levelset_seconds"] = 0.0
        return record, None

    certificates = {name: cert.certificate
                    for name, cert in lyapunov.certificates.items()}
    domains = {name: levelset_domain_for(problem, problem.options, name)
               for name in certificates}
    start = time.perf_counter()
    try:
        maximizer = LevelSetMaximizer(problem.options.levelset)
        level_sets = maximizer.maximize_all(certificates, domains,
                                            bounds=problem.state_bounds())
        record["levelset_success"] = True
        record["levels"] = {name: level_set.level
                            for name, level_set in level_sets.items()}
    except CertificateError as exc:
        record["levelset_success"] = False
        record["levels"] = {}
        record["error"] = str(exc)
    record["levelset_seconds"] = time.perf_counter() - start
    return record, certificates


def _projection_sweep_seconds(dims, repeats=200, batch=8):
    points = np.random.default_rng(0).normal(size=(batch, dims.total))
    project_onto_cone_many(points, dims)  # warm the cached index tables
    start = time.perf_counter()
    for _ in range(repeats):
        project_onto_cone_many(points, dims)
    return (time.perf_counter() - start) / repeats


@pytest.mark.benchmark(group="relaxations")
def test_bench_relaxations_pll3_levelset(benchmark):
    problem = _pll3_problem()

    records = {}
    sos_certificates = None
    for relaxation in RELAXATIONS:
        record, certificates = _run_stage(problem, relaxation)
        records[relaxation] = record
        if relaxation == "sos":
            sos_certificates = certificates

    # Projection hot path: the actual cone layouts of one pll3 level-set
    # query, SDSOS pair blocks vs the full PSD Gram.
    assert sos_certificates is not None
    certificate = sos_certificates["mode2"]
    domain = levelset_domain_for(problem, problem.options, "mode2")
    constraint = domain.inequalities[0]
    projection = {}
    for relaxation, cone in (("sdsos", "sdd"), ("sos", "psd")):
        family = ParametricInclusionFamily(
            certificate, -constraint, multiplier_degree=2, cone=cone).compile()
        projection[relaxation] = _projection_sweep_seconds(family.family.dims)
    speedup = projection["sos"] / projection["sdsos"]

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)

    rows = []
    for relaxation in RELAXATIONS:
        record = records[relaxation]
        levels = ", ".join(f"{name}={level:.3g}"
                           for name, level in sorted(record["levels"].items()))
        rows.append((relaxation,
                     f"{record['lyapunov_seconds']:.2f}",
                     "yes" if record["lyapunov_feasible"] else "no",
                     f"{record['levelset_seconds']:.2f}",
                     "yes" if record["levelset_success"] else "no",
                     levels or "-"))
    print_rows(
        "pll3 per-relaxation pipeline slice (Lyapunov + level-set stage)",
        ["relaxation", "lyap s", "lyap ok", "levelset s", "levelset ok", "levels"],
        rows,
    )
    print_rows(
        "level-set cone projection hot path (mode2 query layout)",
        ["layout", "projection sweep"],
        [("sdsos (2x2 pair blocks)", f"{projection['sdsos'] * 1e6:.1f} us"),
         ("sos (full PSD Gram)", f"{projection['sos'] * 1e6:.1f} us"),
         ("speedup", f"{speedup:.2f}x")],
    )

    write_bench("relaxations", "bench-relaxations/v1", {
        "scenario": "pll3",
        "stages": records,
        "projection": {
            "sdsos_seconds": projection["sdsos"],
            "sos_seconds": projection["sos"],
            "speedup": speedup,
        },
    })

    # DSOS is expected to fail on pll3 (that is what the auto ladder is
    # for); SDSOS and SOS must both deliver the invariant's level sets, and
    # where SDSOS succeeds its projection step must be at least 2x faster
    # than the full-PSD stacked eigh.
    assert records["sos"]["levelset_success"]
    assert records["sdsos"]["levelset_success"], \
        "SDSOS no longer certifies the pll3 level sets"
    assert speedup >= 2.0, \
        f"SDSOS projection speedup dropped to {speedup:.2f}x"
