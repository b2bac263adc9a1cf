"""The benchmark's workloads: figure run plans, trimmed to a pass length.

Each workload is a set of the harness's own figure plans
(``plan_figure``).  A figure listed without a filter runs whole, so its
shape checks apply; a figure listed with a filter keeps only the points
the filter selects and is assembled by :func:`oracle_figure`, which
has no shape checks; the per-point oracles of :func:`oracle_checks`
apply to every point of every figure.  Every plan runs one repetition
per point, so a pass is short enough to repeat several times in a run.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.harness import figures
from repro.harness.experiment import PointResult, PointSpec, spec_token
from repro.harness.figures import Check, FigureResult, Series
from repro.harness.plan import RunPlan, make_plan
from repro.units import GiB

__all__ = [
    "REPS",
    "WORKLOADS",
    "Workload",
    "build_plans",
    "oracle_checks",
    "oracle_figure",
    "result_digest",
]

#: repetitions per point (the quick scale's 2 would halve the passes a
#: run can time, with no layer exercised that one repetition misses)
REPS = 1

#: paper Sec. III-A: aggregate SSD write bandwidth of one server node
WRITE_ROOFLINE_PER_SERVER = 3.86 * GiB

Keep = Optional[Callable[[PointSpec], bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``(figure id, point filter or None for the whole figure)``
    figures: Tuple[Tuple[str, Keep], ...]


def _ppn(*ppns: int) -> Callable[[PointSpec], bool]:
    return lambda spec: spec.ppn in ppns


def _fieldio_ppn(*ppns: int) -> Callable[[PointSpec], bool]:
    return lambda spec: spec.workload == "fieldio" and spec.ppn in ppns


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "daos-bulk",
            "aggregate IOR on DAOS via libdaos/DFS/DFUSE/IL/HDF5, RP_2, 4/16-server "
            "pools, 1e4 cohort clients: few events, so host time is charge "
            "accounting and cluster build",
            (
                ("F1", _ppn(16)),
                ("F2", None),
                ("F4", None),
                ("RP2", None),
                ("SC", None),
            ),
        ),
        Workload(
            "kv-metadata",
            "fdb-hammer on DAOS, Lustre and Ceph plus Field I/O on DAOS: many small "
            "KV/index ops over large flow sets, so key generation, KV loads, "
            "placement and the vector solver run",
            (
                ("F9", _ppn(4)),
                ("F3", _fieldio_ppn(4)),
            ),
        ),
        Workload(
            "exact-faults",
            "exact-mode IOR on DAOS with SX/RP_2/EC_2P1, a target killed mid-read and "
            "a rebuild: the only per-op path, so dispatch, scalar solver and byte "
            "I/O run",
            (("FD", None),),
        ),
    )
}


def build_plans(workload: Workload) -> List[RunPlan]:
    """The workload's run plans, through the harness's own planner."""
    plans: List[RunPlan] = []
    for fig_id, keep in workload.figures:
        plan = figures.plan_figure(fig_id, "quick")
        if keep is None:
            plans.append(replace(plan, reps=REPS))
            continue
        specs = [spec for spec in plan.specs if keep(spec)]
        plans.append(
            make_plan(fig_id, plan.scale, REPS, specs, partial(oracle_figure, fig_id, specs))
        )
    return plans


def oracle_checks(result: PointResult) -> List[Check]:
    """Checks every point must pass whatever its seed: finite, positive
    bandwidths and a write bandwidth within the servers' SSD roofline."""
    spec = result.spec
    token = spec_token(spec)
    write, read = result.write_bw[0], result.read_bw[0]
    roofline = spec.n_servers * WRITE_ROOFLINE_PER_SERVER
    return [
        Check(
            f"{token}: bandwidths finite and positive",
            all(math.isfinite(v) and v > 0 for v in (write, read)),
            f"write {write!r} read {read!r}",
        ),
        Check(
            f"{token}: write within the {spec.n_servers}-server roofline",
            write <= roofline,
            f"write {write / GiB:.3f} GiB/s vs {roofline / GiB:.3f}",
        ),
    ]


def oracle_figure(
    fig_id: str, specs: Sequence[PointSpec], results: Mapping[PointSpec, PointResult]
) -> FigureResult:
    """Assembly for a trimmed figure: one bar per point and no shape
    checks (the runner applies :func:`oracle_checks` to every point)."""
    points = [results[spec] for spec in specs]
    panels = {
        phase: [
            Series(spec_token(p.spec), [0], [p.bw(phase) / GiB], [0.0]) for p in points
        ]
        for phase in ("write", "read")
    }
    return FigureResult(
        fig_id=fig_id,
        title=f"{fig_id} (benchmark subset, {len(points)} points)",
        xlabel="-",
        panels=panels,
        paper_expectation="",
    )


def result_digest(result: PointResult) -> str:
    """SHA-256 over every modelled field of a point result (floats by
    ``repr``, which round-trips exactly)."""
    fields = (
        spec_token(result.spec),
        result.write_bw,
        result.read_bw,
        result.write_iops,
        result.read_iops,
        result.reps,
        result.write_windows,
        result.read_windows,
        result.lost_ops,
    )
    return hashlib.sha256(repr(fields).encode()).hexdigest()
