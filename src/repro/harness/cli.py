"""Command-line entry point: run figures, print reports.

Usage::

    python -m repro.harness.cli F1            # one figure, quick scale
    python -m repro.harness.cli F5 --scale full
    python -m repro.harness.cli all --markdown results.md
    python -m repro.harness.cli F1 --trace f1.json --metrics
    python -m repro.harness.cli F1 --timeline f1_timeline.csv
    python -m repro.harness.cli F1 --profile --profile-flame f1.folded

``--trace`` writes a Chrome trace-event file (open it at
https://ui.perfetto.dev or chrome://tracing); ``--metrics`` prints the
per-layer instrument table and ``--metrics-json`` dumps it machine
readably.  ``--timeline`` samples link utilisation / in-flight flows at
a fixed sim-time interval and exports the series (``.csv`` long format,
anything else JSON).  ``--profile`` turns on simprof (the engine's
self-profiler: events/sec, per-callback-site wall attribution,
flow-network recompute stats, queue-depth peaks) and prints a hot-path
table per figure;
``--profile-json`` dumps the recorder state and ``--profile-flame``
writes collapsed-stack lines for flamegraph.pl / speedscope.app.
``--ledger`` turns on the op ledger (per-op latency decomposition with
deterministic tail exemplars); ``--explain daos.lat.arr-read:p99``
prints a waterfall table decomposing that quantile's exemplar op, and
``--ledger-json`` exports every exemplar as NDJSON.
Each flag observes the whole build: every point runs under its own
Observability, and each figure's telemetry is merged from its points'
records, so it is the same whatever ``--jobs``.  An observed build
executes every point (a cached result carries no record), so it does
not read ``--cache-dir``.  Instrumentation never changes the simulated
numbers (see docs/OBSERVABILITY.md).

Execution is planned: the requested figures' run plans go to an
executor as one deduplicated batch, so a point several figures share
runs once (``--jobs N`` fans points out over N worker processes), with
an optional content-addressed on-disk result cache (``--cache-dir``).
Modelled numbers are bit-identical whatever the jobs count or cache
temperature — see docs/EXECUTION.md.  ``--series-json`` dumps every
series at full float precision, which is how CI asserts that identity.

Parallel execution is resilient: every completed point is checkpointed
into the cache immediately, a worker crash respawns the pool and
resubmits in-flight points, ``--point-timeout``/``--max-retries`` bound
hung points, repeat offenders land in a quarantine file, and a first
Ctrl-C drains in-flight work and exits 130 (a second hard-stops);
re-running the same command serves the finished points from
``--cache-dir``.  ``--allow-partial`` assembles figures with explicit NaN
holes when points are quarantined.  See docs/EXECUTION.md ("Resilient
execution").
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import repro.obs as obs_mod
from repro.errors import ConfigError
from repro.harness.cache import ResultCache
from repro.harness.executor import SerialExecutor, execute_plans
from repro.harness.figures import FIGURES, plan_figure
from repro.harness.report import render_figure, render_markdown

#: flags naming a file the CLI writes; each one's directory must exist
#: before the build starts, so a typo cannot lose a finished build
OUTPUT_FLAGS = (
    "--markdown", "--trace", "--metrics-json", "--timeline",
    "--profile-json", "--profile-flame", "--ledger-json", "--series-json",
    "--quarantine",
)


def _series_doc(result) -> dict:
    """Every series of a figure, full float precision (shortest
    round-trip repr via json), keyed ``panel/label``."""
    doc = {}
    for panel, rows in sorted(result.panels.items()):
        for s in rows:
            doc[f"{panel}/{s.label}"] = {
                "xs": list(s.xs),
                "means": list(s.means),
                "stds": list(s.stds),
                "unit": s.unit,
            }
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli",
        description="Regenerate figures of 'Exploring DAOS Interfaces and Performance'",
    )
    parser.add_argument(
        "figure",
        help=f"figure id ({', '.join(sorted(FIGURES))}) or 'all'",
    )
    parser.add_argument(
        "--scale", choices=("quick", "full"), default="quick",
        help="grid/repetition scale (default: quick)",
    )
    parser.add_argument(
        "--markdown", metavar="PATH",
        help="also write markdown blocks to this file (overwritten)",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event JSON of every simulated run "
             "(open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print the per-layer metrics table after each figure",
    )
    parser.add_argument(
        "--metrics-json", metavar="PATH",
        help="dump every figure's instrument snapshot to this JSON file",
    )
    parser.add_argument(
        "--timeline", metavar="PATH",
        help="sample per-run time series (link utilisation, in-flight "
             "flows, gauges) and export them; '.csv' suffix selects the "
             "long CSV format, anything else JSON",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the simulator engine (simprof) and print the "
             "hot-path table after each figure",
    )
    parser.add_argument(
        "--profile-json", metavar="PATH",
        help="dump per-figure simprof state (callback sites, recompute "
             "stats, queue peaks, hot-site table) to this JSON file",
    )
    parser.add_argument(
        "--profile-flame", metavar="PATH",
        help="write collapsed-stack lines for the profiled figures "
             "(feed to flamegraph.pl or paste into speedscope.app)",
    )
    parser.add_argument(
        "--ledger", action="store_true",
        help="record the op ledger (per-op latency decomposition with "
             "deterministic tail exemplars) and print the p99 tail-"
             "exemplar section after each figure",
    )
    parser.add_argument(
        "--explain", action="append", metavar="OP:QUANTILE", default=[],
        help="print a waterfall decomposition of this latency "
             "instrument's quantile exemplar (e.g. "
             "'daos.lat.arr-read:p99'); repeatable; implies --ledger",
    )
    parser.add_argument(
        "--ledger-json", metavar="PATH",
        help="export every figure's ledger exemplars as NDJSON "
             "(one op per line, byte-stable); implies --ledger",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="execute figure points across N worker processes "
             "(default: 1, in-process serial execution)",
    )
    parser.add_argument(
        "--cache-dir", metavar="PATH",
        help="content-addressed result cache directory; previously "
             "executed points are served from disk",
    )
    parser.add_argument(
        "--point-timeout", type=float, default=None, metavar="SECONDS",
        help="host wall-clock deadline per point; an overdue point's "
             "worker is terminated and the point retried on a fresh one",
    )
    parser.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="extra attempts for a point whose worker crashed, timed out "
             "or raised, before it is quarantined (default: 2)",
    )
    parser.add_argument(
        "--allow-partial", action="store_true",
        help="assemble figures with explicit NaN holes for quarantined "
             "or interrupted points instead of failing",
    )
    parser.add_argument(
        "--quarantine", metavar="PATH",
        help="structured quarantine file for points that exhausted their "
             "retries (default: <cache-dir>/quarantine.json)",
    )
    parser.add_argument(
        "--series-json", metavar="PATH",
        help="dump every figure's series (full float precision) to this "
             "JSON file — for byte-identity diffs across executors/caches",
    )
    parser.add_argument(
        "--faults", metavar="SPEC", default="",
        help="overlay a fault plan (docs/FAULTS.md grammar, e.g. "
             "'target@read+0.02:5,rebuild') onto every point of the "
             "requested figures; rawio probe points are left untouched",
    )
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.point_timeout is not None and not (
        math.isfinite(args.point_timeout) and args.point_timeout > 0
    ):
        parser.error(
            f"--point-timeout must be a finite number > 0, got {args.point_timeout}"
        )
    if args.max_retries is not None and args.max_retries < 0:
        parser.error(f"--max-retries must be >= 0, got {args.max_retries}")
    for flag in OUTPUT_FLAGS:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path and not Path(path).parent.is_dir():
            parser.error(f"{flag}: directory '{Path(path).parent}' does not exist")
    explains = []
    for spec in args.explain:
        op, sep, quant = spec.rpartition(":")
        if not sep or not op:
            parser.error(
                f"--explain expects OP:QUANTILE (e.g. 'daos.lat.arr-read:p99'), "
                f"got {spec!r}"
            )
        try:
            explains.append((op, obs_mod.parse_quantile(quant)))
        except ConfigError as exc:
            parser.error(f"--explain: {exc}")
    if args.faults:
        from repro.faults import parse_fault_plan

        try:
            parse_fault_plan(args.faults)
        except ConfigError as exc:
            parser.error(f"--faults: {exc}")

    fig_ids = sorted(FIGURES) if args.figure == "all" else [args.figure]
    if any(f not in FIGURES for f in fig_ids):
        parser.error(f"unknown figure {args.figure!r}; known: {sorted(FIGURES)}")

    profiling = (
        args.profile or bool(args.profile_json) or bool(args.profile_flame)
    )
    ledgering = args.ledger or bool(explains) or bool(args.ledger_json)
    observe = (
        bool(args.trace) or args.metrics or bool(args.metrics_json)
        or bool(args.timeline) or profiling or ledgering
    )
    from repro.harness.resilience import (
        ExecutionInterrupted,
        ResilientParallelExecutor,
    )

    # parallel runs are resilient by default (crash containment,
    # checkpointing); timeout/retry flags opt a serial invocation into
    # the process-pool executor too, since an in-process point cannot
    # be deadlined
    resilient = (
        args.jobs > 1
        or args.point_timeout is not None
        or args.max_retries is not None
    )
    executor = (
        ResilientParallelExecutor(
            jobs=args.jobs,
            point_timeout=args.point_timeout,
            max_retries=args.max_retries if args.max_retries is not None else 2,
        )
        if resilient
        else SerialExecutor()
    )
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    # execute_plans observes every point with the ambient
    # Observability's instruments and merges each figure's telemetry
    template = (
        obs_mod.Observability(
            timeline=obs_mod.TimelineConfig() if args.timeline else None,
            profile=obs_mod.ProfileRecorder() if profiling else None,
            ledger=obs_mod.OpLedger() if ledgering else None,
        )
        if observe else None
    )
    plans = [plan_figure(fig_id, args.scale) for fig_id in fig_ids]
    if args.faults:
        from repro.harness.plan import with_faults

        plans = [with_faults(plan, args.faults) for plan in plans]
    t0 = time.perf_counter()
    try:
        with obs_mod.activated(template):
            figures, exec_report = execute_plans(
                plans, executor=executor, cache=cache,
                allow_partial=args.allow_partial,
                quarantine_path=Path(args.quarantine) if args.quarantine else None,
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExecutionInterrupted as exc:
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        if cache is not None:
            print(
                "re-run the same command; finished points are served "
                "from --cache-dir",
                file=sys.stderr,
            )
        else:
            print(
                "hint: run with --cache-dir to keep finished points "
                "across an interrupt",
                file=sys.stderr,
            )
        return 130
    wall = time.perf_counter() - t0
    md_blocks = []
    traced = []
    timelines = []
    metrics_doc = {}
    series_doc = {}
    profiles = {}
    ledgers = {}
    failures = 0
    for result in figures:
        obs = result.obs
        print(render_figure(result, obs=obs))
        if args.metrics and obs is not None:
            print()
            print(obs.registry.render_table())
        if args.profile and obs is not None and obs.profile is not None:
            print()
            print(obs_mod.render_hot_paths(obs.profile))
        if explains and obs is not None:
            for op, quant in explains:
                print()
                print(obs_mod.render_waterfall(obs.ledger, op, quant))
        print()
        md_blocks.append(render_markdown(result))
        failures += sum(1 for c in result.checks if not c.passed)
        if args.series_json:
            series_doc[result.fig_id] = _series_doc(result)
        if obs is not None:
            traced.append((result.fig_id, obs.tracer))
            timelines.extend(obs.timelines)
            if obs.profile is not None:
                profiles[result.fig_id] = obs.profile
            if obs.ledger is not None:
                ledgers[result.fig_id] = obs.ledger
            if args.metrics_json:
                metrics_doc[result.fig_id] = obs.registry.snapshot()
    print(
        f"(built {len(figures)} figure(s) in {wall:.1f}s at "
        f"scale={args.scale}; {exec_report.summary()})"
    )
    if cache is not None:
        print(f"cache: {cache.stats.summary()} -> {cache.root}")
    if args.trace:
        n = obs_mod.export_chrome_trace(args.trace, traced, ledgers=ledgers or None)
        print(f"{n} trace events written to {args.trace}")
    if args.ledger_json:
        n = obs_mod.export_ledger_ndjson(args.ledger_json, ledgers)
        print(f"{n} ledger exemplar(s) written to {args.ledger_json}")
    if args.timeline:
        if args.timeline.endswith(".csv"):
            rows = obs_mod.export_timelines_csv(args.timeline, timelines)
            print(f"{rows} timeline rows written to {args.timeline}")
        else:
            obs_mod.export_timelines_json(args.timeline, timelines)
            print(f"{len(timelines)} timeline run(s) written to {args.timeline}")
    if args.profile_json:
        obs_mod.export_profile_json(args.profile_json, profiles)
        print(f"profile written to {args.profile_json}")
    if args.profile_flame:
        n = obs_mod.export_collapsed_stacks(args.profile_flame, profiles)
        print(f"{n} collapsed-stack line(s) written to {args.profile_flame}")
    if args.metrics_json:
        with open(args.metrics_json, "w") as fh:
            json.dump(metrics_doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"metrics snapshot written to {args.metrics_json}")
    if args.series_json:
        with open(args.series_json, "w") as fh:
            json.dump(series_doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"series dump written to {args.series_json}")
    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write("\n\n".join(md_blocks) + "\n")
        print(f"markdown written to {args.markdown}")
    if failures:
        print(f"{failures} shape check(s) FAILED", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
