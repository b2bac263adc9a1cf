"""Every figure and table of the paper as one row of data.

:data:`FIGURES` maps each figure id to a :class:`Figure` row: the title,
x label and the paper's expectation in prose, the labelled base
:class:`PointSpec`\\ s drawn from the scale grid, the field they are
swept over (``ppn``, ``n_servers``, ``cohort`` or none), any stand-alone
reference points, and a ``checks`` function: the automated *shape
checks* transcribed from the paper's artifact-description appendix
("Expected Results"), run over a read-only :class:`View` of the results
(a series or its peak, or a point, by label).  Absolute GiB/s equality
with the paper's testbed is not asserted — who wins, by what rough
factor, and where scaling stops, is.

One planner, :func:`plan_figure`, turns any row into a
:class:`~repro.harness.plan.RunPlan`: the ordered specs the row demands
plus a **pure assembly function** that builds the write/read sweep
panels (mean +/- std over repetitions) from executed ``{spec:
PointResult}`` results and runs the row's checks.  The rows whose figure
is not a plain write/read sweep pair (HW, FD, F8, SC) carry their own
panel function.  A new figure is a new row.

Planning never runs simulations: :func:`build_figure` hands the plan to
an executor (serial by default; see :mod:`repro.harness.executor` for
the process-per-point variant and :mod:`repro.harness.cache` for the on-disk
result cache), which is what makes figure runs parallelisable,
deduplicatable, and incremental.

Rows are planned at a ``scale``:

- ``"quick"`` — small grids, 2 repetitions (seconds per figure; the
  CLI default and the suite CI records in ``benchmarks/quick_series.json``);
- ``"full"``  — paper-like grids, 3 repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis import detect_plateau, scaling_efficiency, write_roofline
from repro.errors import ConfigError
from repro.harness.cache import ResultCache
from repro.harness.executor import Executor, execute_plan
from repro.harness.experiment import PointResult, PointSpec
from repro.harness.plan import RunPlan, make_plan
from repro.obs import Observability
from repro.units import GiB, KiB, MiB

__all__ = [
    "Series",
    "Check",
    "FigureResult",
    "FIGURES",
    "plan_figure",
    "build_figure",
]

#: executed results, keyed by the specs a plan demanded
Results = Mapping[PointSpec, PointResult]


@dataclass
class Series:
    """One curve of a figure panel."""

    label: str
    xs: List[float]
    means: List[float]
    stds: List[float]
    unit: str = "GiB/s"

    @property
    def peak(self) -> float:
        return max(self.means) if self.means else 0.0

    def at(self, x: float) -> float:
        try:
            index = self.xs.index(x)
        except ValueError:
            raise ConfigError(
                f"series {self.label!r} has no point at x={x!r}; "
                f"available xs: {self.xs}"
            ) from None
        return self.means[index]


@dataclass
class Check:
    """One automated shape assertion."""

    description: str
    passed: bool
    detail: str = ""


@dataclass
class FigureResult:
    fig_id: str
    title: str
    xlabel: str
    panels: Dict[str, List[Series]]
    paper_expectation: str
    checks: List[Check] = field(default_factory=list)
    notes: str = ""
    #: the figure's telemetry, merged from its points' records in plan
    #: order by :func:`~repro.harness.executor.execute_plans` (None for
    #: an unobserved build)
    obs: Optional[Observability] = field(default=None, compare=False, repr=False)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def series(self, panel: str, label: str) -> Series:
        for s in self.panels[panel]:
            if s.label == label:
                return s
        raise KeyError(f"no series {label!r} in panel {panel!r}")


# ------------------------------------------------------------------ scale grids


def _grids(scale: str) -> dict:
    """The scale's grid.  A swept field's values are the entry of the
    same name (``ppn``, ``n_servers``, ``cohort``)."""
    if scale == "quick":
        return dict(
            ppn=[4, 16, 32],
            nodes=[16],
            nodes_wide=[32],
            n_servers=[4, 16, 24],
            cohort=[10, 100, 1000, 10000],
            max_clients="10^5",
            reps=2,
            ops=48,
        )
    if scale == "full":
        return dict(
            ppn=[1, 2, 4, 8, 16, 32],
            nodes=[16, 32],
            nodes_wide=[32],
            n_servers=[2, 4, 8, 12, 16, 20, 24],
            cohort=[10, 100, 1000, 10000, 100000],
            max_clients="10^6",
            reps=3,
            ops=96,
        )
    raise ConfigError(f"unknown scale {scale!r}; use 'quick' or 'full'")


def _check_band(name: str, value: float, lo: float, hi: float) -> Check:
    return Check(
        description=f"{name} in [{lo:.1f}, {hi:.1f}]",
        passed=lo <= value <= hi,
        detail=f"measured {value:.1f}",
    )


def _check(name: str, passed: bool, detail: str = "") -> Check:
    return Check(description=name, passed=passed, detail=detail)


# ------------------------------------------------------------- rows as data


#: the x value a swept field plots at: total processes for a ppn sweep,
#: the server count, the modelled clients of a cohort sweep, or 0 for an
#: unswept point
_AXES: Dict[str, Callable[[PointSpec], float]] = {
    "ppn": lambda spec: spec.total_processes,
    "n_servers": lambda spec: float(spec.n_servers),
    "cohort": lambda spec: float(spec.modelled_processes),
    "": lambda spec: 0,
}


@dataclass(frozen=True)
class View:
    """Read-only results of one figure, by label: a swept subject's
    series and peak per phase, or a stand-alone point."""

    grid: dict
    sweeps: Mapping[Tuple[str, str], Series]
    points: Mapping[str, PointResult]

    def series(self, phase: str, label: str) -> Series:
        return self.sweeps[phase, label]

    def peak(self, phase: str, label: str) -> float:
        return self.sweeps[phase, label].peak

    def point(self, label: str) -> PointResult:
        return self.points[label]


def _sweep_panels(view: View) -> Dict[str, List[Series]]:
    """The plain figure: one write and one read panel, a series per
    swept subject."""
    return {
        phase: [s for (p, _), s in view.sweeps.items() if p == phase]
        for phase in ("write", "read")
    }


@dataclass(frozen=True)
class Figure:
    """One figure or table of the paper, as data."""

    title: str  # formatted with the scale grid
    xlabel: str
    expectation: str
    #: the labelled base specs, from the scale grid, in plan order
    subjects: Callable[[dict], List[Tuple[str, PointSpec]]]
    checks: Callable[[View], List[Check]]
    #: the field every subject is swept over; "" plots each as one point
    sweep: str = "ppn"
    #: labels of subjects planned as one stand-alone point, not swept
    refs: Tuple[str, ...] = ()
    unit: str = "GiB/s"
    reps: int = 0  # 0: the scale grid's
    panels: Callable[[View], Dict[str, List[Series]]] = _sweep_panels

    def is_point(self, label: str) -> bool:
        """Whether a subject is planned as one stand-alone point."""
        return label in self.refs or not self.sweep

    def specs(self, grid: dict, label: str, base: PointSpec) -> List[PointSpec]:
        """The specs one subject demands."""
        if self.is_point(label):
            return [base]
        return [base.with_(**{self.sweep: x}) for x in grid[self.sweep]]

    def series(self, phase: str, label: str, points: Sequence[PointResult]) -> Series:
        per = GiB if self.unit == "GiB/s" else 1.0
        attr = f"{phase}_bw" if self.unit == "GiB/s" else f"{phase}_iops"
        return Series(
            label,
            [_AXES[self.sweep](r.spec) for r in points],
            [getattr(r, attr)[0] / per for r in points],
            [getattr(r, attr)[1] / per for r in points],
            self.unit,
        )


def plan_figure(fig_id: str, scale: str = "quick") -> RunPlan:
    """One figure's :class:`RunPlan` (no execution)."""
    try:
        row = FIGURES[fig_id]
    except KeyError:
        raise ConfigError(
            f"unknown figure {fig_id!r}; known: {sorted(FIGURES)}"
        ) from None
    grid = _grids(scale)
    subjects = [(label, base, row.specs(grid, label, base)) for label, base in row.subjects(grid)]

    def assemble(results: Results) -> FigureResult:
        sweeps: Dict[Tuple[str, str], Series] = {}
        points: Dict[str, PointResult] = {}
        for label, base, specs in subjects:
            if row.is_point(label):
                points[label] = results[base]
            if label not in row.refs:
                for phase in ("write", "read"):
                    sweeps[phase, label] = row.series(phase, label, [results[s] for s in specs])
        view = View(grid, sweeps, points)
        return FigureResult(
            fig_id=fig_id,
            title=row.title.format_map(grid),
            xlabel=row.xlabel,
            panels=row.panels(view),
            paper_expectation=row.expectation,
            checks=row.checks(view),
        )

    specs = [spec for _, _, subject_specs in subjects for spec in subject_specs]
    return make_plan(fig_id, scale, row.reps or grid["reps"], specs, assemble)


# ------------------------------------------------------- panels and checks


def _hw_panels(view: View) -> Dict[str, List[Series]]:
    dd, iperf = view.point("dd"), view.point("iperf")
    return {"bandwidth": [
        Series("dd write (16 drives)", [0], [dd.write_bw[0] / GiB], [0.0]),
        Series("dd read (16 drives)", [0], [dd.read_bw[0] / GiB], [0.0]),
        Series("iperf client->server", [0], [iperf.write_bw[0] / GiB], [0.0]),
    ]}


def _hw_checks(view: View) -> List[Check]:
    dd, iperf = view.point("dd"), view.point("iperf")
    return [
        _check_band("aggregate dd write GiB/s", dd.write_bw[0] / GiB, 3.82, 3.90),
        _check_band("aggregate dd read GiB/s", dd.read_bw[0] / GiB, 6.93, 7.07),
        _check_band("iperf GiB/s", iperf.write_bw[0] / GiB, 6.18, 6.32),
    ]


_F1_APIS = ("DAOS", "DFS", "POSIX", "POSIX+IL")


def _f1_checks(view: View) -> List[Check]:
    nodes = view.grid["nodes"]

    def peak(phase: str, api: str) -> float:
        return max(view.peak(phase, f"{api} ({n}cn)") for n in nodes)

    low_ppn = {api: view.series("write", f"{api} ({nodes[0]}cn)").means[0] for api in _F1_APIS}
    checks = [
        _check_band("peak write GiB/s (roofline 61.8)",
                    max(peak("write", api) for api in _F1_APIS), 48.0, 61.8),
        _check_band("peak read GiB/s (roofline 100)",
                    max(peak("read", api) for api in _F1_APIS), 78.0, 100.0),
    ]
    for api in _F1_APIS[1:]:
        ratio = peak("write", api) / peak("write", "DAOS")
        checks.append(
            _check(f"{api} peak write within 15% of libdaos", ratio >= 0.85, f"ratio {ratio:.2f}")
        )
    checks.append(
        _check(
            "libdaos leads at low process counts",
            low_ppn["DAOS"] >= max(low_ppn["POSIX"], low_ppn["POSIX+IL"]) * 0.99,
            f"libdaos {low_ppn['DAOS']:.1f} vs POSIX {low_ppn['POSIX']:.1f}",
        )
    )
    return checks


def _f2_checks(view: View) -> List[Check]:
    peaks = {
        api: max(view.peak("write", api), view.peak("read", api))
        for api in ("POSIX", "POSIX+IL")
    }
    ratio = peaks["POSIX+IL"] / peaks["POSIX"]
    return [_check("IL IOPS at least 2x DFUSE IOPS", ratio >= 2.0, f"ratio {ratio:.1f}x")]


def _f3_checks(view: View) -> List[Check]:
    w, r = partial(view.peak, "write"), partial(view.peak, "read")
    ref_w = w("IOR libdaos (ref)")
    return [
        _check(
            "Field I/O write within 15% of IOR",
            w("Field I/O") >= 0.85 * ref_w,
            f"{w('Field I/O'):.1f} vs {ref_w:.1f}",
        ),
        _check(
            "fdb-hammer write within 15% of IOR",
            w("fdb-hammer") >= 0.85 * ref_w,
            f"{w('fdb-hammer'):.1f} vs {ref_w:.1f}",
        ),
        _check(
            "fdb-hammer read >= Field I/O read (size-check optimisation)",
            r("fdb-hammer") >= r("Field I/O") * 0.99,
            f"{r('fdb-hammer'):.1f} vs {r('Field I/O'):.1f}",
        ),
        _check(
            "HDF5 on DFUSE+IL roughly half of IOR write",
            0.35 * ref_w <= w("HDF5 (DFUSE+IL)") <= 0.70 * ref_w,
            f"{w('HDF5 (DFUSE+IL)'):.1f} vs {ref_w:.1f}",
        ),
        _check(
            "HDF5 on libdaos performs worst",
            w("HDF5 (libdaos)") <= w("HDF5 (DFUSE+IL)"),
            f"{w('HDF5 (libdaos)'):.1f} vs {w('HDF5 (DFUSE+IL)'):.1f}",
        ),
    ]


def _f4_checks(view: View) -> List[Check]:
    ior = view.peak("write", "IOR libdaos")
    ratio_w = view.peak("write", "HDF5 libdaos") / ior
    return [
        _check(
            "HDF5/libdaos approaches IOR at 4 servers (>= 75%)",
            ratio_w >= 0.75,
            f"ratio {ratio_w:.2f}",
        ),
        _check_band("IOR write peak near 4-server roofline (15.4)", ior, 12.0, 15.5),
    ]


def _f5_checks(view: View) -> List[Check]:
    servers = view.grid["n_servers"]
    s_hi = servers[-1]
    checks = []
    for label in ("IOR libdaos", "IOR DFUSE+IL", "Field I/O", "fdb-hammer"):
        w = view.series("write", label)
        eff = scaling_efficiency(w.xs, w.means)
        checks.append(
            _check(
                f"{label} write scales near-linearly to {s_hi} servers",
                eff >= 0.6,
                f"scaling efficiency {eff:.2f}",
            )
        )
    h5v = view.series("write", "HDF5 libdaos")
    plateau_at = detect_plateau(h5v.xs, h5v.means, tolerance=0.15)
    checks.append(
        _check(
            "HDF5 libdaos stops scaling beyond small server counts",
            plateau_at is not None and plateau_at <= servers[len(servers) // 2],
            f"plateau detected at {plateau_at} servers",
        )
    )
    h5p = view.series("write", "HDF5 DFUSE+IL")
    ior = view.series("write", "IOR libdaos")
    checks.append(
        _check(
            "HDF5 DFUSE+IL roughly half of IOR at the largest scale",
            0.3 * ior.at(s_hi) <= h5p.at(s_hi) <= 0.7 * ior.at(s_hi),
            f"{h5p.at(s_hi):.1f} vs IOR {ior.at(s_hi):.1f}",
        )
    )
    return checks


def _f6_checks(view: View) -> List[Check]:
    checks = []
    for plain, ec in (("IOR (none)", "IOR (EC 2+1)"), ("fdb (none)", "fdb (EC 2+1 / RP_2 KVs)")):
        ratio_w = view.peak("write", ec) / view.peak("write", plain)
        ratio_r = view.peak("read", ec) / view.peak("read", plain)
        checks.append(
            _check(f"{ec} write ~2/3 of unprotected", 0.55 <= ratio_w <= 0.78, f"ratio {ratio_w:.2f}")
        )
        checks.append(
            _check(f"{ec} read unharmed", ratio_r >= 0.9, f"ratio {ratio_r:.2f}")
        )
    return checks


def _rp2_checks(view: View) -> List[Check]:
    plain, rp2 = view.point("no redundancy"), view.point("RP_2")
    ratio_w = rp2.write_bw[0] / plain.write_bw[0]
    ratio_r = rp2.read_bw[0] / plain.read_bw[0]
    return [
        _check("RP_2 write about half of unprotected", 0.42 <= ratio_w <= 0.6,
               f"ratio {ratio_w:.2f}"),
        _check("RP_2 read unharmed", ratio_r >= 0.9, f"ratio {ratio_r:.2f}"),
    ]


def _dip(windows: Sequence[Tuple[float, float, float]]) -> Tuple[bool, str]:
    """Whether a bandwidth profile shows a degraded-mode dip: some
    interior window at <= 90% of the interior peak (edge windows are
    excluded — phase ramp-in/out is not a fault effect)."""
    interior = [w[1] for w in windows[1:-1]]
    if len(interior) < 2:
        return False, f"profile too short ({len(windows)} windows)"
    lo, hi = min(interior), max(interior)
    return lo <= 0.9 * hi, f"interior min {lo / GiB:.2f} / max {hi / GiB:.2f} GiB/s"


def _fd_panels(view: View) -> Dict[str, List[Series]]:
    return {"read profile": [
        Series(
            label,
            [w[0] for w in point.read_windows],
            [w[1] / GiB for w in point.read_windows],
            [w[2] / GiB for w in point.read_windows],
        )
        for label, point in view.points.items()
    ]}


def _fd_checks(view: View) -> List[Check]:
    lost = {label: point.lost_ops[0] for label, point in view.points.items()}
    rp2_dip, rp2_detail = _dip(view.point("RP_2").read_windows)
    ec_dip, ec_detail = _dip(view.point("EC_2P1").read_windows)
    return [
        _check("SX loses data on target failure", lost["SX"] > 0,
               f"{lost['SX']:.1f} lost ops/rep"),
        _check("RP_2 rides through (no lost ops)", lost["RP_2"] == 0,
               f"{lost['RP_2']:.1f} lost ops/rep"),
        _check("EC_2P1 rides through (no lost ops)", lost["EC_2P1"] == 0,
               f"{lost['EC_2P1']:.1f} lost ops/rep"),
        _check("RP_2 shows a degraded-mode dip", rp2_dip, rp2_detail),
        _check("EC_2P1 shows a degraded-mode dip", ec_dip, ec_detail),
    ]


def _f7_checks(view: View) -> List[Check]:
    w, r = view.peak("write", "fdb-hammer POSIX"), view.peak("read", "fdb-hammer POSIX")
    ior_ref = view.point("IOR")
    return [
        _check(
            "fdb write close to IOR on Lustre",
            w >= 0.7 * ior_ref.write_bw[0] / GiB,
            f"{w:.1f} vs IOR {ior_ref.write_bw[0] / GiB:.1f}",
        ),
        _check_band("fdb read capped by the MDS (paper ~40 GiB/s)", r, 25.0, 48.0),
        _check(
            "fdb read well below IOR read",
            r <= 0.7 * ior_ref.read_bw[0] / GiB,
            f"{r:.1f} vs IOR {ior_ref.read_bw[0] / GiB:.1f}",
        ),
    ]


def _lior_checks(view: View) -> List[Check]:
    label = "IOR POSIX (Lustre)"
    return [
        _check_band("IOR write near roofline 61.8", view.peak("write", label), 45.0, 61.8),
        _check_band("IOR read near roofline 100", view.peak("read", label), 70.0, 100.0),
    ]


_PG_GRID = (64, 256, 1024)  # the paper tuned the PG count to 1024


def _f8_panels(view: View) -> Dict[str, List[Series]]:
    def pg_series(label: str, phase: str) -> Series:
        means = [view.point(f"{pg} PGs").bw(phase) / GiB for pg in _PG_GRID]
        return Series(label, [float(p) for p in _PG_GRID], means, [0.0] * len(_PG_GRID))

    return {
        **_sweep_panels(view),
        "pg-sweep": [pg_series("fdb write vs PGs", "write"), pg_series("fdb read vs PGs", "read")],
    }


def _f8_checks(view: View) -> List[Check]:
    low, high = (view.point(f"{pg} PGs").write_bw[0] / GiB for pg in (_PG_GRID[0], _PG_GRID[-1]))
    label = "fdb-hammer librados (1024 PGs)"
    return [
        _check(
            "1024 PGs at least as good as 64 PGs (write)",
            high >= low * 0.99,
            f"{high:.1f} vs {low:.1f}",
        ),
        _check_band("fdb-on-Ceph write (paper ~40 of 61.8)", view.peak("write", label), 24.0, 45.0),
        _check_band("fdb-on-Ceph read (paper ~70 of 100)", view.peak("read", label), 45.0, 78.0),
    ]


def _cior_checks(view: View) -> List[Check]:
    w, r = view.peak("write", "IOR librados"), view.peak("read", "IOR librados")
    daos_ref = view.point("DAOS")
    ratio_w = w / (daos_ref.write_bw[0] / GiB)
    ratio_r = r / (daos_ref.read_bw[0] / GiB)
    return [
        _check(
            "IOR-on-Ceph write roughly half of DAOS or less",
            ratio_w <= 0.6,
            f"ratio {ratio_w:.2f}",
        ),
        _check(
            "IOR-on-Ceph read roughly half of DAOS or less",
            ratio_r <= 0.6,
            f"ratio {ratio_r:.2f}",
        ),
        _check(
            "read about double the write (paper 25 vs 50)",
            1.4 <= r / max(w, 1e-9) <= 2.6,
            f"ratio {r / max(w, 1e-9):.2f}",
        ),
    ]


def _f9_checks(view: View) -> List[Check]:
    w, r = partial(view.peak, "write"), partial(view.peak, "read")
    return [
        _check(
            "read ordering DAOS > Ceph > Lustre",
            r("DAOS") > r("Ceph") > r("Lustre"),
            f"DAOS {r('DAOS'):.1f} / Ceph {r('Ceph'):.1f} / Lustre {r('Lustre'):.1f}",
        ),
        _check(
            "DAOS best for write",
            w("DAOS") >= max(w("Lustre"), w("Ceph")),
            f"DAOS {w('DAOS'):.1f} / Lustre {w('Lustre'):.1f} / Ceph {w('Ceph'):.1f}",
        ),
        _check(
            "Ceph write below DAOS (paper ~two thirds)",
            w("Ceph") <= 0.85 * w("DAOS"),
            f"ratio {w('Ceph') / w('DAOS'):.2f}",
        ),
    ]


def _sc_panels(view: View) -> Dict[str, List[Series]]:
    return {"scalability": [
        replace(view.series(phase, "IOR/DAOS"), label=phase) for phase in ("write", "read")
    ]}


def _sc_checks(view: View) -> List[Check]:
    write, read = view.series("write", "IOR/DAOS"), view.series("read", "IOR/DAOS")
    w_roof = write_roofline(16) / GiB
    return [
        _check_band(
            "write saturates near the server roofline",
            write.means[-1], 0.75 * w_roof, w_roof,
        ),
        _check(
            "read outpaces write at every scale",
            all(r > w for r, w in zip(read.means, write.means)),
            f"read {read.means[-1]:.1f} vs write {write.means[-1]:.1f} at max",
        ),
        _check(
            "bandwidth non-decreasing up to saturation",
            all(b >= a * 0.999 for a, b in zip(write.means, write.means[1:]))
            and all(b >= a * 0.999 for a, b in zip(read.means, read.means[1:])),
            f"write {write.means} / read {read.means}",
        ),
        _check(
            "saturated: top two client counts within 1%",
            abs(write.means[-1] - write.means[-2]) <= 0.01 * write.means[-1]
            and abs(read.means[-1] - read.means[-2]) <= 0.01 * read.means[-1],
            f"write tail {write.means[-2]:.2f} -> {write.means[-1]:.2f}",
        ),
    ]


# ----------------------------------------------------------------- the table


#: figure id -> row.  Rows are cheap and pure: :func:`plan_figure`
#: enumerates a row's specs and closes over its assembly without
#: running anything.
FIGURES: Dict[str, Figure] = {
    # Section III-A: raw device and network bandwidth probes.  They are
    # deterministic single measurements, not repetition aggregates, so
    # the row pins one repetition whatever the scale.
    "HW": Figure(
        title="Hardware bandwidth (Sec. III-A)",
        xlabel="-",
        expectation=(
            "3.86 GiB/s aggregate SSD write, 7 GiB/s aggregate SSD read, "
            "50 Gbps (6.25 GiB/s) network per node"
        ),
        subjects=lambda g: [
            ("dd", PointSpec(workload="rawio", store="daos", api="dd",
                             n_servers=1, n_client_nodes=1, extra=(("blocks", 5),))),
            ("iperf", PointSpec(workload="rawio", store="daos", api="iperf",
                                n_servers=1, n_client_nodes=1)),
        ],
        checks=_hw_checks,
        sweep="",
        reps=1,
        panels=_hw_panels,
    ),
    # IOR node/process optimisation with the four DAOS APIs.
    "F1": Figure(
        title="Fig. 1: IOR client/process optimisation, DAOS APIs, 16 servers",
        xlabel="total processes",
        expectation=(
            "all APIs reach ~60 GiB/s write and ~90 GiB/s read, close to the "
            "61.76/100-112 GiB/s rooflines; libdaos achieves high bandwidth "
            "at lower process counts"
        ),
        subjects=lambda g: [
            (f"{api} ({nodes}cn)",
             PointSpec(workload="ior", store="daos", api=api,
                       n_servers=16, n_client_nodes=nodes,
                       ops_per_process=g["ops"], object_class="SX"))
            for api in _F1_APIS for nodes in g["nodes"]
        ],
        checks=_f1_checks,
    ),
    # DFUSE vs DFUSE+IL at 1 KiB I/O (IOPS).
    "F2": Figure(
        title="Fig. 2: DFUSE vs DFUSE+IL, 1 KiB I/O, 16 servers",
        xlabel="total processes",
        expectation=(
            "the interception library's benefit becomes very noticeable at "
            "small I/O sizes: far higher IOPS than plain DFUSE"
        ),
        subjects=lambda g: [
            (api, PointSpec(workload="ior", store="daos", api=api,
                            n_servers=16, n_client_nodes=g["nodes"][0],
                            ops_per_process=g["ops"], op_size=KiB, object_class="SX"))
            for api in ("POSIX", "POSIX+IL")
        ],
        checks=_f2_checks,
        unit="IOPS",
    ),
    # The complex applications against a 16-node DAOS system.
    "F3": Figure(
        title="Fig. 3: application optimisation runs, 16 DAOS servers",
        xlabel="total processes",
        expectation=(
            "Field I/O and fdb-hammer perform close to plain IOR despite ~10 "
            "KV ops per field; HDF5 runs show inferior bandwidth, HDF5 on "
            "libdaos worst; fdb-hammer reads scale better than Field I/O's"
        ),
        subjects=lambda g: [
            ("IOR libdaos (ref)",
             PointSpec(workload="ior", store="daos", api="DAOS",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"])),
            ("HDF5 (DFUSE+IL)",
             PointSpec(workload="ior", store="daos", api="HDF5",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"])),
            ("HDF5 (libdaos)",
             PointSpec(workload="ior", store="daos", api="HDF5-DAOS",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"])),
            ("Field I/O",
             PointSpec(workload="fieldio", store="daos",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"],
                       kv_object_class="SX")),
            ("fdb-hammer",
             PointSpec(workload="fdb", store="daos", api="DAOS",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"])),
        ],
        checks=_f3_checks,
    ),
    # IOR/libdaos vs HDF5/libdaos against a small (4-node) DAOS system.
    "F4": Figure(
        title="Fig. 4: IOR vs HDF5 on libdaos, 4 DAOS servers",
        xlabel="total processes",
        expectation=(
            "HDF5 on libdaos can approach optimal hardware performance at "
            "small scale similarly to IOR — the container-per-process issue "
            "only bites at larger scales"
        ),
        subjects=lambda g: [
            (label, PointSpec(workload="ior", store="daos", api=api,
                              n_servers=4, n_client_nodes=g["nodes"][0], ops_per_process=g["ops"]))
            for api, label in (("DAOS", "IOR libdaos"), ("HDF5-DAOS", "HDF5 libdaos"))
        ],
        checks=_f4_checks,
    ),
    # Write/read scalability with server count, all APIs and apps.
    "F5": Figure(
        title="Fig. 5: scalability with DAOS server count",
        xlabel="DAOS server nodes",
        expectation=(
            "most interfaces and applications scale approximately linearly "
            "up to 24 server nodes; HDF5 on DFUSE reaches about half and "
            "flattens; HDF5 on libdaos stops scaling beyond ~4 servers"
        ),
        subjects=lambda g: [
            (label, PointSpec(workload="ior", store="daos", api=api,
                              n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                              ops_per_process=g["ops"]))
            for label, api in (
                ("IOR libdaos", "DAOS"), ("IOR libdfs", "DFS"), ("IOR DFUSE", "POSIX"),
                ("IOR DFUSE+IL", "POSIX+IL"), ("HDF5 DFUSE+IL", "HDF5"),
                ("HDF5 libdaos", "HDF5-DAOS"),
            )
        ] + [
            ("Field I/O", PointSpec(workload="fieldio", store="daos",
                                    n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                                    ops_per_process=g["ops"], kv_object_class="SX")),
            ("fdb-hammer", PointSpec(workload="fdb", store="daos", api="DAOS",
                                     n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                                     ops_per_process=g["ops"])),
        ],
        checks=_f5_checks,
        sweep="n_servers",
    ),
    # Erasure coding 2+1: IOR and fdb-hammer on a 16-node DAOS system.
    "F6": Figure(
        title="Fig. 6: erasure-code 2+1 runs, 16 DAOS servers",
        xlabel="total processes",
        expectation=(
            "EC 2+1 leaves read bandwidth unchanged and cuts write bandwidth "
            "to about two thirds (~40 GiB/s) — optimal given the +50% data "
            "volume; indexing KVs use replication instead"
        ),
        subjects=lambda g: [
            ("IOR (none)", PointSpec(workload="ior", store="daos", api="DAOS",
                                     n_servers=16, n_client_nodes=g["nodes_wide"][0],
                                     ops_per_process=g["ops"], object_class="SX")),
            ("IOR (EC 2+1)", PointSpec(workload="ior", store="daos", api="DAOS",
                                       n_servers=16, n_client_nodes=g["nodes_wide"][0],
                                       ops_per_process=g["ops"], object_class="EC_2P1GX")),
            ("fdb (none)", PointSpec(workload="fdb", store="daos", api="DAOS",
                                     n_servers=16, n_client_nodes=g["nodes_wide"][0],
                                     ops_per_process=g["ops"])),
            ("fdb (EC 2+1 / RP_2 KVs)", PointSpec(workload="fdb", store="daos", api="DAOS",
                                                  n_servers=16, n_client_nodes=g["nodes_wide"][0],
                                                  ops_per_process=g["ops"],
                                                  kv_object_class="RP_2",
                                                  extra=(("array_class", "EC_2P1"),))),
        ],
        checks=_f6_checks,
    ),
    # Section III-D text: replication factor 2 halves write bandwidth.
    "RP2": Figure(
        title="Sec. III-D: replication factor 2",
        xlabel="-",
        expectation=(
            "with a replication factor of 2 read bandwidth is unaffected and "
            "write bandwidth halves, reaching up to ~30 GiB/s"
        ),
        subjects=lambda g: [
            (label, PointSpec(workload="ior", store="daos", api="DAOS", n_servers=16,
                              n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                              ops_per_process=g["ops"], object_class=oc))
            for label, oc in (("no redundancy", "SX"), ("RP_2", "RP_2GX"))
        ],
        checks=_rp2_checks,
        sweep="",
    ),
    # Degraded-mode IOR: a single-target failure mid-read, with rebuild
    # as competing background traffic, across redundancy classes.  Not
    # a figure of the paper (it measures healthy clusters only) but a
    # direct consequence of its Section II-B redundancy model: SX (no
    # protection) must lose operations, while RP_2 and EC 2+1 must ride
    # through on surviving replicas / parity reconstruction with a
    # visible bandwidth dip and zero lost ops.
    "FD": Figure(
        title="Degraded mode: IOR read across a single-target failure",
        xlabel="time (s)",
        expectation=(
            "a failed target costs SX its share of the data; RP_2 and "
            "EC 2+1 keep serving byte-identical reads from surviving "
            "replicas / parity reconstruction at reduced bandwidth while "
            "the rebuild competes for the surviving devices"
        ),
        subjects=lambda g: [
            (label, PointSpec(workload="ior", store="daos", api="DAOS", n_servers=2,
                              n_client_nodes=2, ppn=4, ops_per_process=3 * g["ops"],
                              op_size=MiB, mode="exact",
                              faults="target@read+0.02:5,rebuild", object_class=oc))
            for label, oc in (("SX", "SX"), ("RP_2", "RP_2GX"), ("EC_2P1", "EC_2P1GX"))
        ],
        checks=_fd_checks,
        sweep="",
        panels=_fd_panels,
    ),
    # fdb-hammer on POSIX against a 16(+1)-node Lustre system.
    "F7": Figure(
        title="Fig. 7: fdb-hammer on POSIX, 16+1-node Lustre",
        xlabel="total processes",
        expectation=(
            "fdb-hammer writes close to IOR bandwidth (write-optimised, "
            "buffered); readers reach only ~40 GiB/s because of the "
            "metadata workload on the single MDS"
        ),
        subjects=lambda g: [
            ("fdb-hammer POSIX",
             PointSpec(workload="fdb", store="lustre", api="LUSTRE",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"],
                       extra=(("stripe_count", 8), ("stripe_size", 8 * MiB)))),
            ("IOR",
             PointSpec(workload="ior", store="lustre", api="LUSTRE", n_servers=16,
                       n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                       ops_per_process=g["ops"])),
        ],
        checks=_f7_checks,
        refs=("IOR",),
    ),
    # Section III-E text: IOR on Lustre close to hardware optimum.
    "LIOR": Figure(
        title="Sec. III-E: IOR on Lustre, 16+1 nodes",
        xlabel="total processes",
        expectation=(
            "Lustre can also reach close to optimal hardware performance for "
            "large file-per-process I/O"
        ),
        subjects=lambda g: [
            ("IOR POSIX (Lustre)",
             PointSpec(workload="ior", store="lustre", api="LUSTRE",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0], ops_per_process=g["ops"])),
        ],
        checks=_lior_checks,
    ),
    # fdb-hammer on librados against a 16(+1)-node Ceph system: the
    # PG-count optimisation first, then the process sweep at the
    # optimum.  More objects (at least 96 per process) put it in the
    # balanced-placement regime.
    "F8": Figure(
        title="Fig. 8: fdb-hammer on librados, 16+1-node Ceph",
        xlabel="total processes",
        expectation=(
            "with the PG count tuned (1024) fdb-hammer reaches ~40 GiB/s "
            "write and ~70 GiB/s read — roughly two thirds of the hardware "
            "ideal, from per-object OSD overheads"
        ),
        subjects=lambda g: [
            (f"{pg} PGs", PointSpec(workload="fdb", store="ceph", api="RADOS", n_servers=16,
                                    n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                                    ops_per_process=max(g["ops"], 96), extra=(("pg_num", pg),)))
            for pg in _PG_GRID
        ] + [
            ("fdb-hammer librados (1024 PGs)",
             PointSpec(workload="fdb", store="ceph", api="RADOS", n_servers=16,
                       n_client_nodes=g["nodes_wide"][0], ops_per_process=max(g["ops"], 96),
                       extra=(("pg_num", 1024),))),
        ],
        checks=_f8_checks,
        refs=tuple(f"{pg} PGs" for pg in _PG_GRID),
        panels=_f8_panels,
    ),
    # Section III-F text: IOR on Ceph reaches only ~25/50 GiB/s.
    "CIOR": Figure(
        title="Sec. III-F: IOR on Ceph (object per process, 132 MiB cap)",
        xlabel="total processes",
        expectation=(
            "IOR on Ceph reaches only ~25 GiB/s write and ~50 GiB/s read — "
            "roughly half of DAOS/Lustre — because objects cannot shard "
            "across OSDs and few objects land unevenly"
        ),
        subjects=lambda g: [
            ("IOR librados",
             PointSpec(workload="ior", store="ceph", api="RADOS",
                       n_servers=16, n_client_nodes=g["nodes_wide"][0],
                       ops_per_process=100,  # the paper's 100 x 1 MiB inside the 132 MiB cap
                       extra=(("pg_num", 1024),))),
            ("DAOS",
             PointSpec(workload="ior", store="daos", api="DAOS", n_servers=16,
                       n_client_nodes=g["nodes_wide"][0], ppn=g["ppn"][-1],
                       ops_per_process=g["ops"])),
        ],
        checks=_cior_checks,
        refs=("DAOS",),
    ),
    # fdb-hammer at 32 client nodes: DAOS vs Lustre vs Ceph.
    "F9": Figure(
        title="Fig. 9: fdb-hammer, 32 client nodes, DAOS vs Lustre vs Ceph",
        xlabel="total processes",
        expectation=(
            "DAOS is the only system delivering high bandwidth for both "
            "write and metadata-heavy small-I/O read; Ceph reads beat Lustre "
            "reads, and Ceph writes trail both"
        ),
        subjects=lambda g: [
            ("DAOS", PointSpec(workload="fdb", store="daos", api="DAOS", n_servers=16,
                               n_client_nodes=32, ops_per_process=max(g["ops"], 96))),
            ("Lustre", PointSpec(workload="fdb", store="lustre", api="LUSTRE", n_servers=16,
                                 n_client_nodes=32, ops_per_process=max(g["ops"], 96),
                                 extra=(("stripe_count", 8), ("stripe_size", 8 * MiB)))),
            ("Ceph", PointSpec(workload="fdb", store="ceph", api="RADOS", n_servers=16,
                               n_client_nodes=32, ops_per_process=max(g["ops"], 96),
                               extra=(("pg_num", 1024),))),
        ],
        checks=_f9_checks,
    ),
    # Beyond the paper: client-count scalability via cohort flows.  The
    # paper's sweeps stop at a few hundred ranks (its Fig. 5 testbed);
    # the ECMWF operational scenario needs 10^5-10^6 concurrent
    # consumers.  Each of 10 representative client nodes stands for
    # ``cohort`` identical nodes, so the x-axis sweeps 10^2 -> 10^5
    # modelled clients (10^6 at full scale) while the event count stays
    # per-batch, not per-client.  ``tests/test_cohort.py`` proves the
    # aggregation bit-exact at small N; the CI perf-smoke job gates this
    # figure's events/sec as the kernel-scalability floor.
    "SC": Figure(
        title="Scalability: IOR/DAOS, 16 servers, 10^2-{max_clients} cohort clients",
        xlabel="modelled client processes",
        expectation=(
            "bandwidth rises with client count until the 16 servers "
            "saturate (write at the SSD roofline, read network-bound "
            "above it), then stays flat to 10^5+ clients — the regime "
            "the paper's testbed could not reach"
        ),
        subjects=lambda g: [
            ("IOR/DAOS", PointSpec(workload="ior", store="daos", api="DAOS",
                                   n_servers=16, n_client_nodes=10, ppn=1,
                                   ops_per_process=g["ops"])),
        ],
        checks=_sc_checks,
        sweep="cohort",
        panels=_sc_panels,
    ),
}


def build_figure(
    fig_id: str,
    scale: str = "quick",
    executor: Optional[Executor] = None,
    cache: Optional[ResultCache] = None,
    base_seed: int = 0,
) -> FigureResult:
    """Plan, execute (serially unless an executor is given), and
    assemble one figure."""
    plan = plan_figure(fig_id, scale)
    result, _ = execute_plan(
        plan, executor=executor, cache=cache, base_seed=base_seed
    )
    return result
