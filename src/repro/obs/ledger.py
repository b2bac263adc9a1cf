"""Op ledger: per-op latency decomposition with deterministic tail exemplars.

The latency histograms (PR 6) give exact p50/p99/p999 per op kind but no
causal link back to *why* a tail op was slow.  The ledger closes that
gap: every client op opens an :class:`OpContext` that splits the op's
modelled latency into named components on sim time —

``serial``
    client-side RPC serialisation / metadata round-trip (the
    ``_serial()`` charge every client pays before touching data).
``xfer:<resource class>``
    link-transfer time, split by the binding constraint the flow network
    already records per flow (``flow.bound_time``), mapped through
    :func:`repro.obs.critpath.classify_constraint` — so a segment spent
    bound by ``srv0.ssdagg.w`` shows up as ``xfer:server SSD (write)``
    and admission-limited time (the per-client stream cap) as
    ``xfer:client stream cap``.
``reconstruct:<resource class>``
    same split for a transfer segment flagged degraded (EC parity
    reconstruction, replica failover reads).
``rebuild``
    the part of a transfer segment that overlapped a background-rebuild
    window (interference attribution; see
    :meth:`OpLedger.rebuild_begin`).
``backoff`` / ``timeout`` / ``failed``
    retry-machinery overhead: the seeded backoff sleeps, the remainder
    of an attempt window lost to the op-timeout race, and the tail of a
    failed attempt (see :mod:`repro.faults.retry`).
``other``
    whatever residual the instrumented layer did not name.

**Exactness invariant**: the components of every captured exemplar sum
to the op's histogram-recorded latency (``math.isclose`` rel 1e-9).
This holds by construction — the context keeps a cursor and every
``note()`` attributes exactly ``sim.now - cursor``, so the per-op sum
telescopes to ``close_time - start``.

**Determinism contract**: the ledger is purely passive (it reads
``sim.now`` and flow binding data, never schedules events or draws
random numbers), so every figure series is byte-identical with the
ledger enabled or disabled.  Tail exemplars are picked without RNG or
wall clock: per op kind and per histogram bucket, the op with the
smallest ``(run, seq)`` is kept, where ``seq`` is the per-run open
order.  That rule is applied identically when recording and when
merging worker ledgers (:meth:`OpLedger.merge_state`), so serial and
``--jobs N`` runs agree bit-identically.

Clients keep a ``_ledger`` attribute that is :data:`NULL_LEDGER` unless
an active :class:`~repro.obs.Observability` carries an
:class:`OpLedger`; the null object makes every instrumentation site a
plain no-op call, preserving the repo's dormancy contract without
per-site guards.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigError
from repro.obs.critpath import classify_constraint
from repro.obs.metrics import LatencyHistogram
from repro.units import left_sum

__all__ = [
    "NULL_CONTEXT",
    "NULL_LEDGER",
    "NullLedger",
    "NullOpContext",
    "OpContext",
    "OpLedger",
    "ZERO_BUCKET",
    "parse_quantile",
]

#: pseudo bucket index of the histogram's dedicated zero-latency bucket:
#: below every real index (the smallest positive float's frexp octave is
#: -1073, so real indices start at -1073 * SUBSTEPS), so no latency can
#: share its exemplar slot and it sorts first
ZERO_BUCKET = -1074 * LatencyHistogram.SUBSTEPS


def parse_quantile(text: str) -> float:
    """``"p99"``/``"p999"``/``"0.99"`` -> 0.99/0.999/0.99 (ConfigError else)."""
    raw = text.strip().lower()
    try:
        if raw.startswith("p"):
            digits = raw[1:]
            if not digits.isdigit():
                raise ValueError(raw)
            q = float(f"0.{digits}")
        else:
            q = float(raw)
    except ValueError:
        raise ConfigError(
            f"quantile {text!r} not understood (use p50/p99/p999 or 0.99)"
        ) from None
    if not 0 <= q <= 1:
        raise ConfigError(f"quantile {text!r} outside [0, 1]")
    return q


class OpContext:
    """One client op being decomposed; use as a context manager.

    The context carries a *cursor* starting at the op's open time; each
    :meth:`note` charges ``sim.now - cursor`` to a named component and
    advances the cursor, so components telescope exactly to the op's
    latency.  A context that exits with an exception (op failed, data
    lost, generator torn down) records nothing — matching the latency
    histograms, which only observe successful ops.
    """

    __slots__ = (
        "_ledger", "name", "sim", "start", "cursor",
        "components", "flags", "seq", "_degraded", "_discarded",
    )

    def __init__(self, ledger: "OpLedger", name: str, sim: Any):
        self._ledger = ledger
        self.name = name
        self.sim = sim
        self.start = sim.now
        self.cursor = sim.now
        self.components: Dict[str, float] = {}
        self.flags: List[str] = []
        self.seq = ledger._next_seq()
        self._degraded: Optional[str] = None
        self._discarded = False

    # -- attribution ---------------------------------------------------------
    def add(self, component: str, dt: float) -> None:
        """Charge ``dt`` sim-seconds to ``component`` (no cursor move)."""
        if dt != 0.0:  # exact: empty segments leave no component behind
            self.components[component] = self.components.get(component, 0.0) + dt

    def note(self, component: str) -> None:
        """Charge the time since the cursor to ``component``."""
        now = self.sim.now
        self.add(component, now - self.cursor)
        self.cursor = now

    def note_transfer(self, flow: Any) -> None:
        """Charge the segment since the cursor to transfer components.

        The segment is split proportionally over the flow's recorded
        binding constraints (``flow.bound_time``), grouped by
        :func:`classify_constraint`; any part of the segment that
        overlapped a rebuild window is peeled off first as ``rebuild``.
        A flow with no binding data lands in ``...:unattributed``.
        """
        now = self.sim.now
        seg = now - self.cursor
        seg_start = self.cursor
        self.cursor = now
        prefix = self._degraded or "xfer"
        self._degraded = None  # the degraded mark covers one transfer
        if seg <= 0.0:
            return
        rebuild = self._ledger.rebuild_overlap(seg_start, now)
        if rebuild > 0.0:
            self.add("rebuild", rebuild)
            seg -= rebuild
            if seg <= 0.0:
                return
        bound = getattr(flow, "bound_time", None)
        total = left_sum(bound.values()) if bound else 0.0
        if total <= 0.0:
            self.add(f"{prefix}:unattributed", seg)
            return
        shares: Dict[str, float] = {}
        for key, dt in bound.items():
            cls = classify_constraint(key)
            shares[cls] = shares.get(cls, 0.0) + dt
        scale = seg / total
        for cls in sorted(shares):
            self.add(f"{prefix}:{cls}", shares[cls] * scale)

    def mark_degraded(self, kind: str = "reconstruct") -> None:
        """Classify the *next* transfer segment as degraded-mode work
        (EC reconstruction, replica failover) instead of ``xfer``."""
        self._degraded = kind
        self.flag(kind)

    def flag(self, name: str) -> None:
        """Tag the exemplar with a marker (``failover``, ``retried``...)."""
        if name not in self.flags:
            self.flags.append(name)

    def discard(self) -> None:
        """Drop this context without recording — for early-return paths
        the latency histograms do not observe either, so ledger and
        registry counts stay equal per op name."""
        self._discarded = True

    # -- context manager -----------------------------------------------------
    def __enter__(self) -> "OpContext":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._discarded:
            return False
        if exc_type is not None:
            self._ledger._abort()
            return False
        self.note("other")  # residual the layer did not name (often zero)
        self._ledger._record(self)
        return False


class OpLedger:
    """Per-op latency decompositions with deterministic tail exemplars.

    The ledger keeps one internal :class:`LatencyHistogram` per op name
    (same dyadic buckets as the registry instruments, so ledger
    quantiles agree with the report tables) plus, per histogram bucket,
    the decomposition of the first op — in ``(run, seq)`` order — that
    landed in it.  ``--explain daos.lat.arr-read:p99`` then resolves the
    p99 bucket and prints that op's waterfall.
    """

    def __init__(self) -> None:
        #: op name -> internal (unregistered) latency histogram
        self.hists: Dict[str, LatencyHistogram] = {}
        #: op name -> bucket index -> exemplar record
        self.exemplars: Dict[str, Dict[int, Dict[str, Any]]] = {}
        self.run = 0
        self.ops_recorded = 0
        self.aborted = 0
        self._seq = 0
        self._rb_depth = 0
        self._rb_open = 0.0
        #: closed [begin, end] rebuild windows of the current run
        self._rb_windows: List[List[float]] = []

    # -- recording -----------------------------------------------------------
    def op(self, name: str, sim: Any) -> OpContext:
        """Open a decomposition context for one op (use ``with``)."""
        return OpContext(self, name, sim)

    def set_run(self, run_index: int) -> None:
        """Start a new run (cluster binding): per-run sequence numbers
        and rebuild windows reset; sim clocks restart from zero."""
        self.run = int(run_index)
        self._seq = 0
        self._rb_depth = 0
        self._rb_windows = []

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _abort(self) -> None:
        self.aborted += 1

    def _record(self, ctx: OpContext) -> None:
        latency = ctx.cursor - ctx.start
        hist = self.hists.get(ctx.name)
        if hist is None:
            hist = LatencyHistogram(ctx.name)
            self.hists[ctx.name] = hist
        hist.observe(latency)
        bucket = (
            ZERO_BUCKET
            if latency == 0.0  # exact: the histogram's zeros bucket is keyed on literal 0.0 too
            else hist.bucket_index(latency)
        )
        record = {
            "run": self.run,
            "seq": ctx.seq,
            "start": ctx.start,
            "latency": latency,
            "components": {k: ctx.components[k] for k in sorted(ctx.components)},
            "flags": list(ctx.flags),
        }
        self._offer(ctx.name, bucket, record)
        self.ops_recorded += 1

    def _offer(self, name: str, bucket: int, record: Dict[str, Any]) -> None:
        per = self.exemplars.setdefault(name, {})
        held = per.get(bucket)
        if held is None or (record["run"], record["seq"]) < (held["run"], held["seq"]):
            per[bucket] = record

    # -- rebuild interference windows ---------------------------------------
    def rebuild_begin(self, now: float) -> None:
        """A background rebuild became active (depth-counted)."""
        if self._rb_depth == 0:
            self._rb_open = now
        self._rb_depth += 1

    def rebuild_end(self, now: float) -> None:
        """A background rebuild finished."""
        self._rb_depth -= 1
        if self._rb_depth == 0:
            self._rb_windows.append([self._rb_open, now])

    def rebuild_overlap(self, t0: float, t1: float) -> float:
        """Sim-seconds of [t0, t1] during which a rebuild was active."""
        total = 0.0
        for begin, end in self._rb_windows:
            lo, hi = max(begin, t0), min(end, t1)
            if hi > lo:
                total += hi - lo
        if self._rb_depth > 0:
            lo = max(self._rb_open, t0)
            if t1 > lo:
                total += t1 - lo
        return total

    # -- queries -------------------------------------------------------------
    def names(self) -> List[str]:
        return sorted(self.hists)

    def count(self, name: str) -> int:
        hist = self.hists.get(name)
        return hist.count if hist is not None else 0

    def quantile_bucket(self, name: str, q: float) -> Optional[int]:
        """Bucket index holding the rank-based q-quantile of ``name``
        (:data:`ZERO_BUCKET` for the zeros bucket; None when empty)."""
        hist = self.hists.get(name)
        if hist is None or hist.count == 0:
            return None
        idx = hist.quantile_index(q)
        return ZERO_BUCKET if idx is None else idx

    def bucket_bounds(self, name: str, bucket: int) -> Tuple[float, float]:
        """``[lo, hi)`` of a bucket (the zeros bucket is ``[0, 0]``)."""
        if bucket == ZERO_BUCKET:
            return 0.0, 0.0
        if name not in self.hists:
            raise ConfigError(f"no ledger data for op {name!r}")
        lo, hi = LatencyHistogram.bucket_bounds(bucket)
        return float(lo), float(hi)

    def explain(self, name: str, q: float) -> Optional[Dict[str, Any]]:
        """The exemplar explaining quantile ``q`` of op ``name``.

        Returns ``{"op", "quantile", "bucket", "lo", "hi", "count",
        "exemplar"}`` or None when the op has no data.  Every non-empty
        bucket holds an exemplar by construction, so a resolvable
        quantile always explains.
        """
        bucket = self.quantile_bucket(name, q)
        if bucket is None:
            return None
        lo, hi = self.bucket_bounds(name, bucket)
        return {
            "op": name,
            "quantile": q,
            "bucket": bucket,
            "lo": lo,
            "hi": hi,
            "count": self.count(name),
            "exemplar": self.exemplars[name][bucket],
        }

    def iter_exemplars(self) -> Iterator[Tuple[str, int, float, float, Dict[str, Any]]]:
        """Deterministic (name, bucket, lo, hi, record) sweep."""
        for name in self.names():
            per = self.exemplars.get(name, {})
            for bucket in sorted(per):
                lo, hi = self.bucket_bounds(name, bucket)
                yield name, bucket, lo, hi, per[bucket]

    # -- cross-process merge -------------------------------------------------
    def dump_state(self) -> Dict[str, Any]:
        """Complete picklable state for shipping to the parent process."""
        return {
            "hists": {name: self.hists[name].dump_state() for name in self.names()},
            "exemplars": {
                name: [[bucket, per[bucket]] for bucket in sorted(per)]
                for name, per in sorted(self.exemplars.items())
            },
            "ops_recorded": self.ops_recorded,
            "aborted": self.aborted,
        }

    def merge_state(self, state: Dict[str, Any], run_offset: int = 0) -> None:
        """Fold a worker ledger in, shifting its run indices by
        ``run_offset`` (the parent's next pid, exactly as the tracer and
        timelines shift).  Histogram buckets add exactly; exemplars keep
        the global ``(run, seq)`` minimum per bucket — so a serial run
        and any ``--jobs N`` merge produce identical exemplar sets.
        """
        for name, row in sorted(state["hists"].items()):
            hist = self.hists.get(name)
            if hist is None:
                hist = LatencyHistogram(name)
                self.hists[name] = hist
            hist.merge_state(row)
        for name, pairs in sorted(state["exemplars"].items()):
            for bucket, record in pairs:
                shifted = dict(record)
                shifted["run"] = int(record["run"]) + run_offset
                self._offer(name, int(bucket), shifted)
        self.ops_recorded += int(state["ops_recorded"])
        self.aborted += int(state["aborted"])


class NullOpContext:
    """No-op stand-in so instrumentation sites need no guards."""

    __slots__ = ()

    def __enter__(self) -> "NullOpContext":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def add(self, component: str, dt: float) -> None:
        pass

    def note(self, component: str) -> None:
        pass

    def note_transfer(self, flow: Any) -> None:
        pass

    def mark_degraded(self, kind: str = "reconstruct") -> None:
        pass

    def flag(self, name: str) -> None:
        pass

    def discard(self) -> None:
        pass


class NullLedger:
    """Dormant ledger: hands out :data:`NULL_CONTEXT` and ignores
    rebuild windows.  Clients hold this when no ledger is active."""

    __slots__ = ()

    def op(self, name: str, sim: Any) -> NullOpContext:
        return NULL_CONTEXT

    def rebuild_begin(self, now: float) -> None:
        pass

    def rebuild_end(self, now: float) -> None:
        pass


NULL_CONTEXT = NullOpContext()
NULL_LEDGER = NullLedger()
