"""Printing and JSON output shared by the bench modules.

With ``REPRO_BENCH_WRITE=1`` every bench writes ``benchmarks/BENCH_<name>.json``
through :func:`write_bench`, so the performance trajectory is tracked across
changes (the CI bench jobs set it and upload the files as build artifacts).
Table 2 benches call :func:`record_bench`; ``benchmarks/conftest.py`` merges
their records into ``BENCH_table2.json`` when the session finishes.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
TABLE2_SCHEMA = "bench-table2/v2"
_BENCH_RECORDS = {}


def print_rows(title, header, rows):
    """Uniform table printing for every bench (captured with ``pytest -s``)."""
    print()
    print(f"=== {title} ===")
    print(" | ".join(header))
    for row in rows:
        print(" | ".join(str(item) for item in row))


def bench_path(name):
    return os.path.join(BENCH_DIR, f"BENCH_{name}.json")


def write_bench(name, schema, body):
    """Write ``body`` to ``BENCH_<name>.json`` with the common header.

    Writes only when ``REPRO_BENCH_WRITE=1`` is set, so a plain test run
    leaves the tracked BENCH files untouched.
    """
    if os.environ.get("REPRO_BENCH_WRITE") != "1":
        return
    document = {
        "schema": schema,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        **body,
    }
    path = bench_path(name)
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\n[bench] wrote {path}")


def record_bench(key, payload):
    """Register one Table 2 record for the end-of-session JSON dump."""
    _BENCH_RECORDS[key] = payload


def write_table2_records():
    """Merge this session's Table 2 records into ``BENCH_table2.json``.

    A partial session (e.g. a single bench under ``-k``) refreshes its own
    records and keeps the others, as long as the file is of the current
    schema.
    """
    if not _BENCH_RECORDS:
        return
    records = {}
    try:
        with open(bench_path("table2")) as handle:
            previous = json.load(handle)
        if previous.get("schema") == TABLE2_SCHEMA:
            records.update(previous["records"])
    except (OSError, ValueError):
        pass
    records.update(_BENCH_RECORDS)
    write_bench("table2", TABLE2_SCHEMA, {"records": records})


def certified_invariant(run):
    """The run's attractive invariant, or ``None`` when the pipeline built none.

    Without an invariant the figure benches project nothing: they print
    which modes certified no level and require that outcome to be the one
    the scenario registers.
    """
    report = run.outcome.report
    invariant = report.property_one.invariant
    if invariant is None:
        failed = sorted(mode for mode, level in run.levels().items()
                        if level is None)
        print(f"\n{run.problem.name}: no attractive invariant "
              f"(P1 {report.property_one.status.value}: "
              f"{report.property_one.message}); modes without a level: "
              f"{failed or 'all'}; nothing to project")
        assert run.outcome.matches_expected
    return invariant
