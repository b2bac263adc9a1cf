"""The per-figure bottleneck summary: where did the bandwidth go.

Rendered by the harness under each figure when observability is on
(``--metrics`` / ``--trace``): the heaviest spans by total simulated
time, the hottest links by mean utilisation, per-layer byte/op totals,
and per-op tail latencies — the views the paper's analysis sections
walk through when explaining a bandwidth number.

:func:`render_hot_paths` is the simprof companion (``--profile``): it
summarises the *engine's* host cost — events per callback site,
flow-network recompute shapes, queue depth — from a
:class:`~repro.obs.profile.ProfileRecorder`.

:func:`render_waterfall` and :func:`render_tail_exemplars` are the op
ledger's views (``--explain``): the per-component decomposition of the
deterministic exemplar op behind a latency quantile.

Every renderer here degrades to a "(no data)" block — never an
exception — when handed an empty registry, a profile with zero events,
or a ledger that observed nothing.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional

from repro.obs.metrics import Counter, LatencyHistogram
from repro.units import left_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Observability
    from repro.obs.ledger import OpLedger
    from repro.obs.profile import ProfileRecorder

__all__ = [
    "render_bottlenecks",
    "render_hot_paths",
    "render_tail_exemplars",
    "render_waterfall",
]


def _human(value: float, unit: str) -> str:
    if unit == "B":
        for scale, suffix in ((1 << 40, "TiB"), (1 << 30, "GiB"), (1 << 20, "MiB"), (1 << 10, "KiB")):
            if value >= scale:
                return f"{value / scale:,.1f} {suffix}"
        return f"{value:,.0f} B"
    return f"{value:,.0f}"


def render_bottlenecks(obs: "Observability", top: int = 8) -> str:
    """ASCII bottleneck summary for one figure's Observability."""
    lines: List[str] = ["bottleneck summary:"]
    spans = obs.tracer.top_spans(top)
    if spans:
        lines.append("  top spans (total simulated time across all runs):")
        for name, count, total in spans:
            lines.append(f"    {total:12.4f}s  {name:<28} x{count}")
    links = obs.hottest_links(top)
    if links:
        lines.append("  hottest links (mean utilisation):")
        for name, util in links:
            lines.append(f"    {util:8.1%}  {name}")
    by_layer = obs.registry.by_layer()
    counter_layers = {
        layer: [i for i in instruments if isinstance(i, Counter) and i.value > 0]
        for layer, instruments in by_layer.items()
    }
    if any(counter_layers.values()):
        lines.append("  per-layer counters:")
        for layer in sorted(counter_layers):
            counters = counter_layers[layer]
            if not counters:
                continue
            cells = ", ".join(
                f"{c.name.split('.', 1)[1]}={_human(c.value, c.unit)}"
                for c in counters
            )
            lines.append(f"    {layer:<10} {cells}")
    latencies = [
        inst for inst in obs.registry
        if isinstance(inst, LatencyHistogram) and inst.count > 0
    ]
    if latencies:
        lines.append("  per-op latency (simulated seconds):")
        lines.append(
            f"    {'op':<24}{'n':>10}{'p50':>11}{'p99':>11}{'p999':>11}"
        )
        for hist in sorted(latencies, key=lambda h: h.name):
            p50, p99, p999 = hist.percentiles()
            lines.append(
                f"    {hist.name:<24}{hist.count:>10,}"
                f"{p50:>11.3g}{p99:>11.3g}{p999:>11.3g}"
            )
    if len(lines) == 1:
        lines.append("  (no instrumentation data collected)")
    return "\n".join(lines)


def render_hot_paths(profile: Optional["ProfileRecorder"], top: int = 10) -> str:
    """ASCII summary of the engine's hot paths (simprof).

    Event/recompute/queue counts are deterministic per seed; the wall
    columns are host cost and vary run to run (the table is sorted by
    wall, so row order may differ between hosts).
    """
    lines: List[str] = ["simprof engine hot paths:"]
    if profile is None or profile.events_dispatched == 0:
        lines.append("  (no engine activity profiled)")
        return "\n".join(lines)
    lines.append(
        f"  events dispatched: {profile.events_dispatched:,} across "
        f"{profile.runs} run(s); peak event-queue depth "
        f"{profile.queue_depth_peak:,}"
    )
    if profile.recomputes:
        mean_flows = profile.recompute_flows / profile.recomputes
        mean_links = profile.recompute_links_touched / profile.recomputes
        lines.append(
            f"  flownet recomputes: {profile.recomputes:,} "
            f"({profile.recomputes_full:,} touched the full link set; "
            f"mean {mean_flows:.1f} flows, {mean_links:.1f} of "
            f"{profile.links_total_peak} links per recompute) "
            f"in {profile.recompute_wall:.3f}s"
        )
    rows = profile.hot_sites(top)
    if rows:
        lines.append("  top callback sites (self wall seconds / events):")
        for name, count, wall in rows:
            lines.append(f"    {wall:10.4f}s  x{count:<10,} {name}")
    wall = profile.engine_wall
    if wall > 0:
        lines.append(
            f"  engine wall: dispatch {profile.dispatch_wall:.3f}s + "
            f"recompute {profile.recompute_wall:.3f}s = {wall:.3f}s "
            f"({profile.events_per_second():,.0f} events/s)"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------- op ledger


def _fmt_t(seconds: float) -> str:
    """Human time at the scale modelled ops actually live at."""
    if seconds >= 1.0:
        return f"{seconds:.4f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.3f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.2f}us"
    return f"{seconds:.3g}s"


def _q_label(q: float) -> str:
    for label, value in (
        ("p50", 0.5), ("p90", 0.9), ("p95", 0.95),
        ("p99", 0.99), ("p999", 0.999), ("p9999", 0.9999),
    ):
        if math.isclose(q, value):
            return label
    return f"q={q:g}"


def render_waterfall(
    ledger: Optional["OpLedger"], name: str, q: float = 0.99,
    indent: str = "",
) -> str:
    """Waterfall table for the exemplar op behind quantile ``q``.

    Answers "why is p99 slow" for one op kind: which components — queue
    wait, per-resource transfer time, metadata, backoff, rebuild
    interference — the exemplar op's latency decomposes into.  Returns
    a "(no ledger data)" block when the ledger is absent or never saw
    the op.
    """
    header = f"{indent}explain {name} {_q_label(q)}"
    info = ledger.explain(name, q) if ledger is not None else None
    if info is None:
        return f"{header}: (no ledger data for this op)"
    ex = info["exemplar"]
    lines = [
        f"{header}: bucket [{_fmt_t(info['lo'])}, {_fmt_t(info['hi'])}) "
        f"over n={info['count']} ops"
    ]
    flags = f"  [{', '.join(ex['flags'])}]" if ex["flags"] else ""
    lines.append(
        f"{indent}  exemplar: run {ex['run']} op {ex['seq']} "
        f"@ t={ex['start']:.6f}s, latency {_fmt_t(ex['latency'])}{flags}"
    )
    latency = ex["latency"]
    components = sorted(ex["components"].items(), key=lambda kv: (-kv[1], kv[0]))
    for component, dt in components:
        share = dt / latency if latency > 0 else 0.0
        lines.append(f"{indent}    {_fmt_t(dt):>12}  {share:6.1%}  {component}")
    if not components:
        lines.append(f"{indent}    (instantaneous: no components)")
    else:
        total = left_sum(dt for _, dt in components)
        lines.append(
            f"{indent}    {_fmt_t(total):>12}  100.0%  = recorded latency "
            f"(components sum exactly)"
        )
    return "\n".join(lines)


def render_tail_exemplars(
    ledger: Optional["OpLedger"], q: float = 0.99,
) -> str:
    """The figure-report section: one ``q``-waterfall per op kind."""
    lines = [f"tail exemplars ({_q_label(q)} decomposition, deterministic):"]
    names = ledger.names() if ledger is not None else []
    if not names:
        lines.append("  (no ledger data collected)")
        return "\n".join(lines)
    for name in names:
        lines.append(render_waterfall(ledger, name, q, indent="  "))
    return "\n".join(lines)
