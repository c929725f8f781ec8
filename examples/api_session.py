"""Tour of the public API: isolated, concurrent verification sessions.

Two :class:`repro.api.VerificationSession` objects — one full-SOS, one
SDSOS, each with its own certificate cache — verify the time-reversed Van
der Pol scenario *concurrently* from a thread pool.  Because every piece of
cross-cutting state (cache, counters, solver settings, relaxation) lives on the
session instead of in module globals, the two runs cannot clobber each
other, and their counters account for exactly their own work.

Run with:  PYTHONPATH=src python examples/api_session.py
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.api import VerificationSession, verify


def run_session(cache_root: Path, relaxation: str):
    timings = []
    session = VerificationSession(
        cache_dir=cache_root / relaxation,
        relaxation=relaxation,
        name=f"vdp-{relaxation}",
        timing_hook=lambda step, seconds, detail: timings.append(
            (step, seconds, detail)),
    )
    report = verify("vanderpol", session=session)
    return session, report, timings


def main() -> None:
    cache_root = Path(tempfile.mkdtemp(prefix="repro-api-session-"))

    # --- concurrent verification, one thread per session -----------------
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = {relaxation: pool.submit(run_session, cache_root, relaxation)
                   for relaxation in ("sos", "sdsos")}
        results = {relaxation: future.result()
                   for relaxation, future in futures.items()}

    for relaxation, (session, report, timings) in results.items():
        print(f"== {session.name} ==")
        print(f"  property 1: {report.property_one.status.value}")
        for mode, level, degree in report.property_one.invariant.summary_rows():
            print(f"  {mode}: degree-{degree} certificate, level c = {level:.4g}")
        print(f"  solve counters:   {session.solve_counters()}")
        print(f"  compile counters: {session.compile_counters()}")
        print(f"  cache stats:      {session.cache_stats()}")
        print(f"  timed steps:      {[step for step, _, _ in timings]}")

    # --- warm replay: same cache directory, fresh session ----------------
    warm = VerificationSession(cache_dir=cache_root / "sos",
                               relaxation="sos", name="vdp-warm")
    verify("vanderpol", session=warm)
    counters = warm.solve_counters()
    print(f"== warm replay == {counters}")
    assert counters["solved"] == 0, "warm cache must perform zero SDP solves"

    # Session state never leaked into the process-default counters.
    from repro.sdp import solve_counters

    print(f"process-default counters (untouched): {solve_counters()}")


if __name__ == "__main__":
    main()
