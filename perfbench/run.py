"""Benchmark of the pll3 inevitability pipeline: warm verify and Ip-ladder runs.

Run from the repository root::

    python3 perfbench/run.py --workload pll3_warm --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run with every layer entry point wrapped by a self-time timer.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The timed metrics
are scaled by the machine speed that ``calibrate.py`` samples inside each
repetition.  See README.md in this directory for the workloads and how to
read the numbers.

Every workload starts from the certificate cache of one cold ``pll3``
verify.  The first run builds it in a child process under
``.bench_build/perfbench/``, keyed by a digest of ``src/repro``; later runs
of the same sources reuse it.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
#: One BLAS thread: a single closed-loop caller on a small shared machine.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Set-ups before each repetition; ``setup_s`` reports the median of all of
#: them.
SETUPS_PER_REP = 2
BUILD_TIMEOUT_S = 600

#: A fresh interpreter importing every layer: the process-start part of set-up.
IMPORT_PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import repro.engine, repro.scenarios, repro.sweep")

for _var in BLAS_ENV:
    os.environ.setdefault(_var, "1")

import calibrate  # noqa: E402
from workloads import SCENARIO, WORKLOADS  # noqa: E402


def import_library() -> None:
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no library sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    # ``import repro`` alone is lazy; load every layer before timing anything.
    import repro.engine  # noqa: F401
    import repro.scenarios  # noqa: F401
    import repro.sweep  # noqa: F401

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def tree_digest(top: Path) -> str:
    sha = hashlib.sha256()
    for path in sorted(top.rglob("*.py")):
        sha.update(str(path.relative_to(top)).encode("utf-8") + b"\0")
        sha.update(path.read_bytes())
    return sha.hexdigest()[:16]


def import_seconds() -> float:
    """Process start through importing every layer, in a fresh interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                   check=True, timeout=120, capture_output=True)
    return time.perf_counter() - start


def machine_fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # noqa: BLE001 - older NumPy has no dict mode
        blas = "unknown"
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV},
    }


# ----------------------------------------------------------------------
# The cold pll3 certificate cache every workload starts from
# ----------------------------------------------------------------------
def build_cache(staging: Path) -> None:
    """Child-process body: one cold ``pll3`` verify into ``staging/cache``."""
    from repro.engine import EngineOptions, VerificationEngine

    start = time.perf_counter()
    report = VerificationEngine(EngineOptions(
        jobs=1, cache_dir=str(staging / "cache"), seed=0)).run([SCENARIO])
    seconds = time.perf_counter() - start
    print(report.render_text())
    outcome = report.outcome(SCENARIO)
    broken = [job.job_id for job in outcome.jobs
              if job.status.value in ("error", "timeout")]
    if broken or not outcome.matches_expected:
        raise SystemExit(f"perfbench: cold {SCENARIO} verify failed {broken}")
    (staging / "build.json").write_text(json.dumps({
        "seconds": seconds, "counters": report.counters,
        "cache": report.cache_stats}, indent=2))


def built_cache(source: str) -> Path:
    target = WORK / f"pll3-cache-{source}"
    if not (target / "build.json").is_file():
        WORK.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix="build-", dir=WORK))
        try:
            print(f"building the cold {SCENARIO} cache for sources {source}",
                  flush=True)
            subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--build", str(staging)],
                           check=True, timeout=BUILD_TIMEOUT_S,
                           stdout=sys.stderr)
            try:
                os.rename(staging, target)
            except OSError:
                if not (target / "build.json").is_file():
                    raise
        finally:
            shutil.rmtree(staging, ignore_errors=True)
    build = json.loads((target / "build.json").read_text())
    print(f"cold {SCENARIO} verify of this source tree: {build['seconds']:.2f} s "
          f"(built once, not part of any metric)")
    return target / "cache"


# ----------------------------------------------------------------------
# Exact-count determinism across repeats of one source tree
# ----------------------------------------------------------------------
def count_drift(digests: str, workload: str, reps_counts) -> list:
    drift = []
    for index, counts in enumerate(reps_counts[1:], start=2):
        for key, value in counts.items():
            if reps_counts[0].get(key) != value:
                drift.append(f"rep {index} {key}={value}, rep 1 had "
                             f"{reps_counts[0].get(key)}")
    record_path = WORK / f"counts-{digests}-{workload}.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    for key, value in reps_counts[0].items():
        if key in record and record[key] != value:
            drift.append(f"{key}={value}, an earlier run had {record[key]}")
        record.setdefault(key, value)
    WORK.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return drift


# ----------------------------------------------------------------------
def run(args) -> dict:
    import_library()
    source = tree_digest(SRC / "repro")
    cls = WORKLOADS[args.workload]

    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / "tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{args.workload}-",
                                     dir=WORK / "tmp") as scratch:
        scratch = Path(scratch)
        # Nothing may fall back to the per-user cache directory.
        os.environ["REPRO_CACHE_DIR"] = str(scratch / "default-cache")
        workload = cls(scratch, args.seed, built_cache(source))

        setup_times, speeds, scaled = [], [], []

        def set_up() -> dict:
            imports = 0.0 if args.trace else import_seconds()
            start = time.perf_counter()
            fingerprint = workload.setup()
            setup_times.append(imports + time.perf_counter() - start)
            return fingerprint

        # The traced run times layers, not set-up: it sets up once.
        fingerprint = set_up()
        tracer = probe = None
        if not args.trace:
            probe = calibrate.SpeedProbe()
        else:
            from layertrace import Tracer

            tracer = Tracer()
            tracer.install()
        reps, layer_rows = [], []
        for index in range(max(1, round(args.seconds / cls.nominal_rep_s))):
            if tracer is None:
                for _ in range(SETUPS_PER_REP - (index == 0)):
                    fingerprint = set_up()
                with probe:
                    rep = workload.rep()
            else:
                tracer.reset()
                rep = workload.rep()
            reps.append(rep)
            line = f"rep {index + 1}: {rep.seconds:.3f} s, " \
                   f"{rep.failed}/{rep.attempted} failed, counts {rep.counts}"
            if probe is not None:
                # The kernel's own time is taken out of the repetition, and
                # the rest is scaled by the speed its samples saw.
                samples = probe.window(rep.started, rep.started + rep.traced_wall)
                times = [part_times for _, _, part_times in samples]
                kernel_s = sum(seconds for _, seconds, _ in samples)
                speeds.append(calibrate.speed(times))
                scaled.append((rep.seconds - kernel_s) * speeds[-1])
                parts = " ".join(f"{name} {calibrate.speed(times, [name]):.3f}"
                                 for name in calibrate.PARTS)
                line += (f", speed {speeds[-1]:.3f} ({parts}) from {len(samples)} "
                         f"samples ({kernel_s:.3f} s), scaled {scaled[-1]:.3f} s")
            if tracer is not None:
                row = {"sweep.sampling_reject_frac": 0.0,
                       "sweep.certified_frac": 0.0,
                       **tracer.layer_metrics(rep.traced_wall), **rep.layer}
                row["trace.wall_s"] = rep.traced_wall
                row["trace.calls"] = tracer.wrapped_calls()
                rep.counts.update({
                    f"traced.{key}": row[key]
                    for key in ("sdp.solves", "sdp.iterations", "sos.binds",
                                "sdp.eigh_calls", "sdp.kkt_factors")})
                layer_rows.append(row)
                line += f", other_s {row['other_s']:.3f}"
            print(line, flush=True)
            for problem in rep.problems:
                print(f"  CHECK FAILED: {problem}", flush=True)
        if tracer is not None:
            tracer.uninstall()

    drift = count_drift(f"{source}-{tree_digest(HERE)}", args.workload,
                        [rep.counts for rep in reps])
    for line in drift:
        print(f"  COUNT DRIFT: {line}", flush=True)
    print("fingerprint " + json.dumps({
        "workload": args.workload, "seed": args.seed, "reps": len(reps),
        "trace": args.trace, "source": source, **fingerprint,
        "counts": reps[0].counts, "machine": machine_fingerprint()},
        sort_keys=True), flush=True)

    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    if tracer is None:
        # Timings in reference-machine seconds.  Set-ups run between the
        # repetitions, so they are scaled by the repetitions' median speed.
        wall_s = statistics.median(scaled)
        speed = statistics.median(speeds)
        setup_s = statistics.median(setup_times)
        print(f"machine speed {speed:.3f} of the reference; unscaled median "
              f"wall {statistics.median(rep.seconds for rep in reps):.3f} s, "
              f"set-up {setup_s:.3f} s", flush=True)
        metrics = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s * speed, "s"),
            "points_per_s": (reps[0].attempted / wall_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
    else:
        from layertrace import wrapper_cost_s

        metrics = {}
        for key in layer_rows[0]:
            if key == "trace.calls":
                continue
            metrics[key] = (statistics.fmean(row[key] for row in layer_rows),
                            _unit(key))
        calls = statistics.fmean(row["trace.calls"] for row in layer_rows)
        metrics["trace.overhead_frac"] = (
            calls * wrapper_cost_s() / metrics["trace.wall_s"][0], "ratio")
        metrics["count_drift"] = (len(drift), "count")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_rate")):
        return "ratio"
    return "count"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.build is not None:
        import_library()
        build_cache(args.build)
        return
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
