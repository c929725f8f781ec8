"""Command-line interface: ``python -m repro {list,verify,sweep,report}``.

* ``list`` — show the registered scenarios (text or ``--json``).
* ``verify <scenario>...`` — run the verification engine on the named
  scenarios (``all`` / ``fast`` select groups), with ``--jobs N`` for the
  process pool, ``--param key=value`` to override declared sweep axes,
  ``--no-cache`` to bypass the persistent certificate cache and
  ``--json PATH`` to write the full machine-readable report.
* ``sweep <family>`` — map a certified feasibility frontier over a sweep
  family's parameter axes (``--list`` shows the registered families;
  ``--grid axis=lo:hi:n`` / ``--samples`` / ``--seed`` reshape it,
  ``--resume`` continues an interrupted sweep).
* ``report`` — re-render the JSON report written by the last ``verify``
  (``--metrics`` for a structured metrics snapshot, JSON or Prometheus).

Exit status: 0 when every verified scenario matched its registered expected
outcome, 1 otherwise (and 2 for usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import EngineOptions, VerificationEngine, default_cache_dir
from .scenarios import all_scenarios, fast_scenario_names, scenario_names
from .sdp import RELAXATIONS

#: Where ``verify`` drops its JSON report for a later ``report`` invocation.
LAST_REPORT_NAME = "last_report.json"


def _default_report_path(cache_dir: Optional[str]) -> Path:
    root = Path(cache_dir) if cache_dir else default_cache_dir()
    return root / LAST_REPORT_NAME


def _parse_params(entries: Optional[Sequence[str]]) -> dict:
    """``--param key=value`` pairs into a float dict (usage errors exit 2)."""
    params = {}
    for entry in entries or []:
        key, sep, value = entry.partition("=")
        if not sep or not key:
            print(f"error: --param expects key=value, got {entry!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        try:
            params[key] = float(value)
        except ValueError:
            print(f"error: --param {key}: {value!r} is not a number",
                  file=sys.stderr)
            raise SystemExit(2) from None
    return params


def _parse_grid(entries: Optional[Sequence[str]]) -> dict:
    """``--grid axis=lo:hi:n`` specs into ``{axis: (lo, hi, n)}``."""
    grid = {}
    for entry in entries or []:
        key, sep, value = entry.partition("=")
        parts = value.split(":")
        if not sep or not key or len(parts) != 3:
            print(f"error: --grid expects axis=lo:hi:n, got {entry!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        try:
            grid[key] = (float(parts[0]), float(parts[1]), int(parts[2]))
        except ValueError:
            print(f"error: --grid {key}: cannot parse {value!r} as lo:hi:n",
                  file=sys.stderr)
            raise SystemExit(2) from None
    return grid


def _resolve_scenarios(names: Sequence[str]) -> List[str]:
    known = set(scenario_names())
    resolved: List[str] = []
    for name in names:
        if name == "all":
            resolved.extend(scenario_names())
        elif name == "fast":
            resolved.extend(fast_scenario_names())
        elif name in known:
            resolved.append(name)
        else:
            print(f"error: unknown scenario {name!r}; available: "
                  f"{', '.join(scenario_names())} (or 'all' / 'fast')",
                  file=sys.stderr)
            raise SystemExit(2)  # usage error, distinct from a mismatch (1)
    seen = set()
    unique = []
    for name in resolved:
        if name not in seen:
            seen.add(name)
            unique.append(name)
    return unique


# ----------------------------------------------------------------------
def cmd_list(args: argparse.Namespace) -> int:
    rows = [spec.summary_row() for spec in all_scenarios()]
    if args.json:
        json.dump({"scenarios": rows}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    width = max(len(row["name"]) for row in rows) + 2
    print(f"{len(rows)} registered scenarios:")
    for row in rows:
        tags = ",".join(row["tags"]) or "-"
        fast = " [fast]" if row["fast"] else ""
        print(f"  {row['name']:<{width}} degree={row['degree']} "
              f"expected={row['expected']:<13} "
              f"relaxation={row['relaxation']:<6} tags={tags}{fast}")
        print(f"  {'':<{width}} {row['description']}")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    scenarios = _resolve_scenarios(args.scenarios)
    if not scenarios:
        print("nothing to verify", file=sys.stderr)
        return 2
    params = _parse_params(args.param)
    if params:
        # Validate against each scenario's declared axes up front, so a typo
        # fails in milliseconds instead of inside a worker process.
        from .scenarios import get_scenario

        for name in scenarios:
            try:
                get_scenario(name).with_parameters(params)
            except ValueError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    options = EngineOptions(
        jobs=max(1, args.jobs),
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        job_timeout=args.timeout,
        seed=args.seed,
        relaxation=args.relaxation,
        params=params or None,
    )
    engine = VerificationEngine(options)
    relax_note = f", relaxation={options.relaxation}" if options.relaxation else ""
    params_note = ", params=" + ",".join(
        f"{key}={params[key]:g}" for key in sorted(params)) if params else ""
    print(f"verifying {', '.join(scenarios)} "
          f"(jobs={options.jobs}, cache={'on' if options.use_cache else 'off'}"
          f"{relax_note}{params_note})")
    report = engine.run(scenarios)

    for outcome in report.outcomes:
        print()
        print(outcome.report.render_text())
    print()
    print(report.render_text())

    payload = report.to_json_dict()
    json_path = Path(args.json) if args.json else _default_report_path(args.cache_dir)
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"JSON report written to {json_path}")
    return 0 if report.all_match_expected else 1


def cmd_report(args: argparse.Namespace) -> int:
    path = Path(args.input) if args.input else _default_report_path(args.cache_dir)
    if not path.exists():
        print(f"error: no report at {path}; run 'python -m repro verify' first",
              file=sys.stderr)
        return 2
    with open(path) as handle:
        payload = json.load(handle)
    if args.metrics:
        from .engine.metrics import engine_metrics, render_prometheus

        metrics = engine_metrics(payload)
        if args.prometheus:
            sys.stdout.write(render_prometheus(metrics))
        else:
            json.dump(metrics, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        return 0
    if args.json:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0
    engine_info = payload.get("engine", {})
    print(f"Engine report ({path})")
    print(f"  jobs={engine_info.get('jobs')} "
          f"cache={'on' if engine_info.get('use_cache') else 'off'} "
          f"wall={engine_info.get('wall_seconds', 0):.1f}s "
          f"solves={engine_info.get('counters', {}).get('solved', 0)} "
          f"cache_hits={engine_info.get('counters', {}).get('cache_hit', 0)}")
    ok = True
    for scenario in payload.get("scenarios", []):
        matches = scenario.get("matches_expected")
        ok = ok and bool(matches)
        verdict = "MATCH" if matches else "MISMATCH"
        rep = scenario.get("report", {})
        print(f"  [{verdict}] {scenario.get('scenario')}: "
              f"inevitability={rep.get('inevitability')} "
              f"(expected {scenario.get('expected')})")
        for job in scenario.get("jobs", []):
            print(f"      {job.get('job_id'):40s} {job.get('status'):8s} "
                  f"{job.get('seconds', 0.0):7.2f}s")
    return 0 if ok else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from .sweep import SweepError, SweepOptions, SweepRunner, all_sweep_families

    if args.list:
        rows = [family.summary_row() for family in all_sweep_families()]
        if args.json:
            json.dump({"families": rows}, sys.stdout, indent=2)
            sys.stdout.write("\n")
            return 0
        width = max(len(row["name"]) for row in rows) + 2
        print(f"{len(rows)} registered sweep families:")
        for row in rows:
            tags = ",".join(row["tags"]) or "-"
            print(f"  {row['name']:<{width}} {row['kind']:<18} "
                  f"scenario={row['scenario']:<10} points={row['points']:<5} "
                  f"axes={','.join(row['axes'])} "
                  f"relaxation={row['relaxation']:<6} tags={tags}")
            print(f"  {'':<{width}} {row['description']}")
        return 0
    if not args.family:
        print("error: name a sweep family (or use --list)", file=sys.stderr)
        return 2

    grid = _parse_grid(args.grid)
    options = SweepOptions(
        jobs=max(1, args.jobs),
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        grid=grid or None,
        samples=args.samples,
        seed=args.seed,
        shard_size=args.shard_size,
        resume=args.resume,
    )
    runner = SweepRunner(options)
    try:
        family = runner.resolve_family(args.family)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(f"sweeping {family.name}: {family.count()} point(s) over "
          f"axes {','.join(family.axes())} of scenario {family.scenario} "
          f"(jobs={options.jobs}, "
          f"cache={'on' if options.use_cache else 'off'})")
    try:
        report = runner.run(family)
    except SweepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print()
    print(report.render_text())

    payload = report.to_json_dict()
    root = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    json_path = Path(args.json) if args.json \
        else root / f"sweep_{family.name}.json"
    json_path.parent.mkdir(parents=True, exist_ok=True)
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"frontier JSON written to {json_path}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SOS-based inevitability verification: scenario registry, "
                    "parallel engine and certificate cache.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--json", action="store_true",
                        help="emit the listing as JSON")
    p_list.set_defaults(func=cmd_list)

    p_verify = sub.add_parser("verify", help="run the verification engine")
    p_verify.add_argument("scenarios", nargs="+",
                          help="scenario names (or 'all' / 'fast')")
    p_verify.add_argument("--jobs", type=int, default=1, metavar="N",
                          help="worker processes (1 = run inline)")
    p_verify.add_argument("--no-cache", action="store_true",
                          help="bypass the persistent certificate cache")
    p_verify.add_argument("--cache-dir", default=None,
                          help="cache location (default: $REPRO_CACHE_DIR or "
                               "~/.cache/repro-pll-sos)")
    p_verify.add_argument("--timeout", type=float, default=None, metavar="S",
                          help="per-job timeout in seconds (pool runs)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="random seed for the falsification cross-check")
    p_verify.add_argument("--relaxation", default=None, choices=RELAXATIONS,
                          help="Gram-cone relaxation of every certificate: "
                               "sos (full PSD Gram) or chordal (clique-sized "
                               "PSD blocks from the Gram sparsity pattern); "
                               "default: each scenario's registered "
                               "relaxation")
    p_verify.add_argument("--json", default=None, metavar="PATH",
                          help="write the JSON report here "
                               "(default: <cache>/last_report.json)")
    p_verify.add_argument("--param", action="append", default=None,
                          metavar="KEY=VALUE",
                          help="override a declared sweep axis of every named "
                               "scenario (repeatable; e.g. --param i_p=4e-4; "
                               "see 'sweep --list' / scenario sweep_axes)")
    p_verify.set_defaults(func=cmd_verify)

    p_sweep = sub.add_parser(
        "sweep", help="map a certified feasibility frontier over a family")
    p_sweep.add_argument("family", nargs="?", default=None,
                         help="sweep family name (see --list)")
    p_sweep.add_argument("--list", action="store_true",
                         help="list the registered sweep families")
    p_sweep.add_argument("--grid", action="append", default=None,
                         metavar="AXIS=LO:HI:N",
                         help="reshape one axis of the family (repeatable; "
                              "ladder families read LO/HI as fractions of "
                              "nominal)")
    p_sweep.add_argument("--samples", type=int, default=None, metavar="N",
                         help="Monte-Carlo sample count / ladder step count")
    p_sweep.add_argument("--seed", type=int, default=None,
                         help="Monte-Carlo draw seed (same seed = identical "
                              "point set)")
    p_sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="worker processes; points are split into one "
                              "shard per worker slot (1 = run inline)")
    p_sweep.add_argument("--shard-size", type=int, default=None, metavar="N",
                         help="points per shard job (default: points/jobs)")
    p_sweep.add_argument("--no-cache", action="store_true",
                         help="bypass the persistent certificate cache")
    p_sweep.add_argument("--cache-dir", default=None,
                         help="cache + progress location (default: "
                              "$REPRO_CACHE_DIR or ~/.cache/repro-pll-sos)")
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip points a previous run of the identical "
                              "family already settled (progress is saved "
                              "after every shard)")
    p_sweep.add_argument("--json", default=None, metavar="PATH",
                         help="write the frontier JSON here (default: "
                              "<cache>/sweep_<family>.json); with --list, "
                              "emit the listing as JSON")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report",
                              help="re-render the last verification report")
    p_report.add_argument("--input", default=None, metavar="PATH",
                          help="JSON report to render (default: the last "
                               "'verify' output)")
    p_report.add_argument("--cache-dir", default=None,
                          help="cache location used to find the default report")
    p_report.add_argument("--json", action="store_true",
                          help="dump the raw JSON instead of text")
    p_report.add_argument("--metrics", action="store_true",
                          help="emit a structured metrics snapshot (solve "
                               "counts per cone layout, cache hit rate, "
                               "per-stage timings) instead of the report")
    p_report.add_argument("--prometheus", action="store_true",
                          help="with --metrics: Prometheus text exposition "
                               "instead of JSON")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
