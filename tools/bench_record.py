#!/usr/bin/env python
"""Write and compare committed timing records of the repo benchmark.

Record (from the repository root)::

    python3 tools/bench_record.py --seed 1

runs the unmodified ``perfbench/run.py --seconds 10`` twice per
workload named in ``BENCHMARK.json``, once with ``--trace 1`` and once
with ``--trace 0``, and writes ``benchmarks/BENCH_<sha>.json``:
each workload's last output line of the traced run (``correct``,
``attempted``, ``failed`` and the per-layer ``metrics``), the last
line of the untraced run under ``end_to_end`` (its ``wall_s``,
``setup_s`` and ``peak_rss_mib``), the seed, the measured source and
the host fingerprint ``perfbench`` prints (Python and numpy versions,
CPU model and count).  ``<sha>`` is the first 12 hex digits
of git's hash of the measured ``src/`` tree, uncommitted edits
included, so it names exactly the code that was timed: for any commit
of that code ``git rev-parse <commit>:src`` prints the same hash.

Compare::

    python3 tools/bench_record.py --compare OLD.json NEW.json \\
        [--expect-change fdb.keys.calls ...]

prints every metric's old and new value and relative delta, and exits
1 if a deterministic count differs (``*.calls``, ``sim.events``,
``flownet.recomputes``, ``daos.failovers``, ``workload.lost_ops``)
without being named by ``--expect-change``, or if a NEW run is not
correct or has failed points.  Times, the end-to-end ones included,
are only reported: one run each cannot resolve them, so they are
judged against the ``BENCHMARK.json`` bounds by repeated alternating
runs.  Either side may be a ``bench-record/1`` record, which has no
end-to-end run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

SCHEMA = "bench-record/2"
#: schemas ``--compare`` reads; ``/1`` records have no ``end_to_end``
READABLE = ("bench-record/1", SCHEMA)
#: ``--seconds`` of each benchmark run, the same for every record
SECONDS = 10.0
#: counts that are pure functions of the model and the seed
DETERMINISTIC = ("sim.events", "flownet.recomputes", "daos.failovers", "workload.lost_ops")


def is_deterministic(metric: str) -> bool:
    return metric.endswith(".calls") or metric in DETERMINISTIC


def _git(root: Path, *args: str, env: Optional[Dict[str, str]] = None) -> str:
    out = subprocess.run(["git", *args], cwd=root, env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def source_sha(root: Path) -> str:
    """Git's hash of the ``src/`` tree as it is on disk."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        # start from HEAD so that tracked files .gitignore matches count
        _git(root, "read-tree", "HEAD", env=env)
        _git(root, "add", "-A", "src", env=env)
        return _git(root, "write-tree", "--prefix=src/", env=env)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: int
                 ) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(host fingerprint, last-line result)`` of one benchmark run."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[0])["host"], json.loads(lines[-1])


def record(root: Path, seed: int, seconds: float) -> Dict[str, Any]:
    workloads = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    host: Dict[str, Any] = {}
    results: Dict[str, Any] = {}
    for workload in workloads:
        host, results[workload] = run_workload(root, workload, seed, seconds, trace=1)
        _, results[workload]["end_to_end"] = run_workload(root, workload, seed, seconds, trace=0)
    return {
        "schema": SCHEMA,
        "sha": source_sha(root),
        "commit": _git(root, "rev-parse", "HEAD"),
        "seed": seed,
        "seconds": seconds,
        "host": host,
        "workloads": results,
    }


def compare(old: Dict[str, Any], new: Dict[str, Any], expect_change: Iterable[str] = ()
            ) -> Tuple[List[str], List[str]]:
    """``(report lines, failures)`` of NEW against OLD."""
    expected = set(expect_change)
    lines: List[str] = []
    failures: List[str] = []
    for workload, result in new["workloads"].items():
        before = old["workloads"].get(workload, {})
        lines.append(f"{workload}:")
        for run, was, indent in ((result, before, "  "),
                                 (result.get("end_to_end"), before.get("end_to_end"), "    ")):
            if run is None:
                continue
            if run["correct"] is not True or run["failed"]:
                failures.append(f"{workload}: correct={run['correct']}, failed={run['failed']}")
            if run is not result:
                lines.append("  end to end (--trace 0, reported only):")
            old_metrics = (was or {}).get("metrics", {})
            for metric in sorted(set(old_metrics) | set(run["metrics"])):
                a = old_metrics.get(metric, {}).get("value")
                b = run["metrics"].get(metric, {}).get("value")
                if a is None or b is None:
                    delta = "missing"
                elif a == b:
                    delta = "="
                else:
                    delta = f"{(b - a) / a:+.1%}" if a else "new"
                lines.append(f"{indent}{metric:<34} {a!s:>22} {b!s:>22}  {delta}")
                if is_deterministic(metric) and delta != "=" and metric not in expected:
                    failures.append(f"{workload}: {metric} {a} -> {b}")
    return lines, failures


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--expect-change", action="append", default=[], metavar="METRIC",
                        help="a deterministic count NEW may change (repeatable)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if args.compare:
        old, new = (json.loads(path.read_text()) for path in args.compare)
        lines, failures = compare(old, new, args.expect_change)
        print("\n".join(lines))
        for failure in failures:
            print(f"FAIL {failure}", file=sys.stderr)
        return 1 if failures else 0
    doc = record(ROOT, args.seed, SECONDS)
    path = ROOT / "benchmarks" / f"BENCH_{doc['sha'][:12]}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
