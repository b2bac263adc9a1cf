"""The repository benchmark: time figure workloads end to end, by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload daos-bulk --seed 1 --seconds 30 --trace 0

One process, one caller, concurrency 1: the runner plans the workload's
figures with the harness (``plan_figure``), executes them with
``execute_plans(..., SerialExecutor, cache=None, base_seed=<seed>)``
and assembles them, back to back, for ``--seconds`` seconds.  The
result cache is off, so every pass pays the cold cost of a first
figure build.  Each pass is checked: every point must be present, pass
its figure's shape checks and the per-point oracles, reproduce the
first pass's results exactly, and -- for the seed the references were
recorded with -- match its committed digest.

The host's speed drifts by a quarter or more over tens of seconds, so
the runner times the fixed kernels of :mod:`hostspeed` between points
and reports every time scaled to the kernels' nominal speed: a pass's
``wall_s`` is its wall time (kernel runs excluded) divided by the
host's slowdown during the pass; set-up is scaled the same way by
kernel runs around each set-up process.

``--trace 0`` reports the end-to-end metrics (median scaled pass wall
time, scaled set-up time, peak memory).  ``--trace 1`` times untraced passes, then
traced passes with every layer entry point of :mod:`tracing` wrapped,
reports the per-layer metrics, and writes the first traced pass's
spans to ``.perfbench/``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from hostspeed import Gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
SPAN_DIR = ROOT / ".perfbench"

#: base seed the committed reference digests were recorded with
REFERENCE_SEED = 0
#: set-up is timed in this many fresh processes; the median is reported
SETUP_SAMPLES = 5
#: glibc ``mallopt`` parameters (malloc.h)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
#: fewest timed passes per run (a median needs a few)
MIN_PASSES = 3
#: traced passes keep at most this many spans in memory
SPAN_CAP = 100_000

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="import, plan and load references, then exit (times set-up)",
    )
    parser.add_argument(
        "--update-references", action="store_true",
        help=f"record one pass's digests as the references (seed {REFERENCE_SEED} only)",
    )
    return parser.parse_args(argv)


def _setup(workload_name: str) -> Tuple[Any, List[Any], Dict[str, str]]:
    """What a user pays before the first point: imports, planning and
    loading the references."""
    from workloads import WORKLOADS, build_plans

    if workload_name not in WORKLOADS:
        raise SystemExit(
            f"unknown workload {workload_name!r}; known: {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[workload_name]
    plans = build_plans(workload)
    refs: Dict[str, str] = {}
    if REFERENCES.exists():
        doc = json.loads(REFERENCES.read_text())
        refs = doc["workloads"].get(workload_name, {})
    return workload, plans, refs


class Pass:
    """One timed execution of a workload's point set.

    ``wall`` excludes the kernel runs; ``slowdown`` is the host's
    slowdown sampled between the pass's points."""

    def __init__(self, wall: float, plans: List[Any], figures: List[Any],
                 results: Dict[Any, Any], error: str = "",
                 slowdown: float = 1.0) -> None:
        self.wall = wall
        self.plans = plans
        self.figures = figures
        self.results = results
        self.error = error
        self.slowdown = slowdown

    @property
    def scaled(self) -> float:
        """The wall time at the kernels' nominal host speed."""
        return self.wall / self.slowdown

    @property
    def specs(self) -> List[Any]:
        return list(dict.fromkeys(spec for plan in self.plans for spec in plan.specs))


def _run_pass(workload: Any, seed: int) -> Pass:
    """Plan, execute and assemble the workload once, timing the
    host-speed kernels between points and leaving their time out."""
    from repro.harness.executor import SerialExecutor, execute_plans
    from workloads import build_plans

    class RecordingExecutor(SerialExecutor):
        """The serial executor, keeping each point's result for checking
        and sampling the host's speed before and after each point."""

        def __init__(self) -> None:
            self.results: Dict[Any, Any] = {}

        def run_tasks(self, tasks: Any, on_result: Any = None) -> List[Any]:
            def point_done(task: Any, result: Any) -> None:
                gauge.sample()
                if on_result is not None:
                    on_result(task, result)

            gauge.sample()
            results = super().run_tasks(tasks, point_done)
            self.results.update((t.spec, r) for t, r in zip(tasks, results))
            return results

    gc.collect()
    executor = RecordingExecutor()
    plans: List[Any] = []
    error = ""
    gauge = Gauge()
    t0 = time.perf_counter()
    try:
        plans = build_plans(workload)
        figures, _ = execute_plans(
            plans, executor=executor, cache=None, base_seed=seed
        )
    except Exception:  # a raising point fails the pass; the run reports it
        figures, error = [], traceback.format_exc()
    wall = time.perf_counter() - t0 - gauge.spent
    return Pass(wall, plans or build_plans(workload), figures, executor.results,
                error=error, slowdown=gauge.slowdown)


def check_pass(run: Pass, refs: Dict[str, str],
               expected: Optional[Dict[str, str]] = None) -> Dict[str, str]:
    """Failed points of a pass, as ``{spec token: reason}``.

    A point fails if the pass raised, if its result is missing, if its
    figure's shape check or a per-point oracle fails, if its digest
    differs from ``expected`` (the first pass of the run) or, when
    ``refs`` is given, from its committed reference digest.
    """
    from repro.harness.experiment import spec_token
    from workloads import oracle_checks, result_digest

    failed: Dict[str, str] = {}
    if run.error:
        return {spec_token(spec): "pass raised" for spec in run.specs}
    for plan, figure in zip(run.plans, run.figures):
        bad = [c.description for c in figure.checks if not c.passed]
        if bad:
            for spec in plan.specs:
                failed[spec_token(spec)] = f"{plan.fig_id} check failed: {bad}"
    for spec in run.specs:
        token = spec_token(spec)
        result = run.results.get(spec)
        if result is None:
            failed[token] = "missing from assembly"
            continue
        bad = [c.description for c in oracle_checks(result) if not c.passed]
        if bad:
            failed[token] = f"oracle failed: {bad}"
        digest = result_digest(result)
        if expected is not None and expected.get(token) != digest:
            failed[token] = "result differs from the run's first pass"
        if refs and refs.get(token) != digest:
            failed[token] = "result differs from the reference digest"
    return failed


def _digests(run: Pass) -> Dict[str, str]:
    from repro.harness.experiment import spec_token
    from workloads import result_digest

    return {spec_token(s): result_digest(r) for s, r in run.results.items()}


class Runner:
    """Repeats passes within a time budget and tallies failures."""

    def __init__(self, workload: Any, seed: int, refs: Dict[str, str]) -> None:
        self.workload = workload
        self.seed = seed
        self.refs = refs if seed == REFERENCE_SEED else {}
        self.attempted = 0
        self.failed = 0
        self.first: Optional[Dict[str, str]] = None
        self.stopped = False

    def one(self) -> Pass:
        run = _run_pass(self.workload, self.seed)
        failures = check_pass(run, self.refs, self.first)
        if self.first is None and not run.error:
            self.first = _digests(run)
        self.attempted += len(run.specs)
        self.failed += len(failures)
        for token, reason in sorted(failures.items()):
            print(f"FAILED {token}: {reason}", file=sys.stderr)
        if run.error:
            print(run.error, file=sys.stderr)
            self.stopped = True  # deterministic: every further pass would raise too
        return run

    def timed(self, seconds: float, min_passes: int,
              on_pass: Any = None) -> List[Pass]:
        """Run passes until ``seconds`` would be exceeded by one more
        (at least ``min_passes``); returns them."""
        deadline = time.perf_counter() + seconds
        passes: List[Pass] = []
        spent: List[float] = []
        while not self.stopped:
            t0 = time.perf_counter()
            passes.append(on_pass() if on_pass is not None else self.one())
            spent.append(time.perf_counter() - t0)
            left = deadline - time.perf_counter()
            if len(passes) >= min_passes and statistics.median(spent) > left:
                break
        print(f"passes {len(passes)}: wall/scaled s "
              + " ".join(f"{p.wall:.3f}/{p.scaled:.3f}" for p in passes), file=sys.stderr)
        return passes


def _setup_seconds(workload: str, seed: int) -> float:
    """Median scaled wall time of fresh processes that only set up."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        gauge = Gauge(share=0.1)
        gauge.sample()
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            check=True, timeout=120, stdout=subprocess.DEVNULL, cwd=str(ROOT),
        )
        wall = time.perf_counter() - t0
        gauge.sample()
        samples.append(wall / gauge.slowdown)
    return statistics.median(samples)


def host_fingerprint() -> Dict[str, Any]:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _end_to_end(args: argparse.Namespace, workload: Any, refs: Dict[str, str]
                ) -> Tuple[Runner, Dict[str, Any]]:
    setup_s = _setup_seconds(args.workload, args.seed)
    runner = Runner(workload, args.seed, refs)
    passes = runner.timed(args.seconds, MIN_PASSES)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "wall_s": statistics.median(p.scaled for p in passes),
        "setup_s": setup_s,
        "peak_rss_mib": rss_mib,
    }
    return runner, {name: _metric(values[name], unit) for name, unit in END_TO_END}


def _per_layer(args: argparse.Namespace, workload: Any, refs: Dict[str, str]
               ) -> Tuple[Runner, Dict[str, Any]]:
    from tracing import COUNT_METRICS, Tracer, installed, layer_metrics, per_layer_metrics

    runner = Runner(workload, args.seed, refs)
    plain = runner.timed(args.seconds / 3.0, 1)
    samples: List[Dict[str, float]] = []
    first_tracer: List[Tracer] = []

    def traced_pass() -> Pass:
        tracer = Tracer(span_cap=SPAN_CAP if not first_tracer else 0)
        with installed(tracer) as session:
            run = runner.one()
        values = layer_metrics(session)
        values["workload.lost_ops"] = sum(
            r.lost_ops[0] * r.reps for r in run.results.values()
        )
        if samples:
            drift = [
                name for name, value in values.items()
                if (name.endswith(".calls") or name in COUNT_METRICS)
                and value != samples[0][name]
            ]
            if drift:
                print(f"FAILED determinism: counts drifted: {drift}", file=sys.stderr)
                runner.failed += len(run.specs)
        samples.append(values)
        if not first_tracer:
            first_tracer.append(tracer)
        return run

    traced = runner.timed(args.seconds * 2.0 / 3.0, 2, on_pass=traced_pass)
    metrics: Dict[str, Any] = {}
    for name, unit, _ in per_layer_metrics():
        if name == "trace.overhead_ratio":
            value = (statistics.median(p.scaled for p in traced)
                     / statistics.median(p.scaled for p in plain))
        else:
            value = statistics.median(s[name] for s in samples)
        metrics[name] = _metric(value, unit)
    if first_tracer:
        _write_spans(args, first_tracer[0])
    return runner, metrics


def _write_spans(args: argparse.Namespace, tracer: Any) -> None:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "host": host_fingerprint(),
        "fields": ["id", "layer", "start_s", "end_s", "parent", "point"],
        "spans": tracer.spans,
        "dropped": tracer.spans_dropped,
    }
    path.write_text(json.dumps(doc, separators=(",", ":")))


def _update_references(args: argparse.Namespace, workload: Any) -> int:
    if args.seed != REFERENCE_SEED:
        print(f"references are recorded with --seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    run = _run_pass(workload, args.seed)
    failures = check_pass(run, {})
    if failures:
        for token, reason in sorted(failures.items()):
            print(f"FAILED {token}: {reason}", file=sys.stderr)
        return 1
    doc = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    doc["seed"] = REFERENCE_SEED
    doc.setdefault("workloads", {})[args.workload] = dict(sorted(_digests(run).items()))
    REFERENCES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(run.results)} digests for {args.workload}", file=sys.stderr)
    return 0


def _keep_freed_memory() -> None:
    """Have glibc keep freed memory for reuse instead of returning it.

    The byte-level data path allocates and frees chunk-sized buffers;
    by default each one is mapped fresh, and the ~600k page faults a
    pass then takes cost a fifth of its time, swinging with the other
    tenants' memory traffic.  The program's own work is unchanged."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):  # not glibc: nothing to tune
        return
    mallopt(M_TRIM_THRESHOLD, 1 << 30)
    mallopt(M_MMAP_THRESHOLD, 1 << 25)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    _keep_freed_memory()
    sys.path[:0] = [str(SRC), str(HERE)]
    workload, _, refs = _setup(args.workload)
    if args.setup_only:
        return 0
    if args.update_references:
        return _update_references(args, workload)
    print(json.dumps({"host": host_fingerprint()}))
    if args.trace:
        runner, metrics = _per_layer(args, workload, refs)
    else:
        runner, metrics = _end_to_end(args, workload, refs)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
