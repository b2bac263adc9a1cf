"""Fault plans: the declarative schedule of what breaks, and when.

Grammar (one plan = ``;``-joined events)::

    event  := kind '@' [phase '+'] seconds ':' arg (',' option)*
    kind   := 'target' | 'server' | 'ssd' | 'link'
    option := 'recover=' seconds | 'rebuild' | 'factor=' float
            | 'share=' float

Examples::

    target@0.5:3                    # kill target 3 at t=0.5 s, forever
    target@read+0.02:5,rebuild      # 20 ms into the 'read' phase, kill
                                    # target 5 and start a rebuild
    ssd@1.0:srv0.ssd2,recover=0.5   # degrade one SSD for 0.5 s
    link@2.0:srv1.nic.tx,factor=0.1 # drop a NIC link to 10% capacity
    link@2.0:cli0.nic.rx,factor=0   # partition (capacity -> ~zero)
    server@1.5:1,recover=1.0        # crash server node 1, back at 2.5 s

Times are in simulated seconds.  ``phase+`` anchors the offset to the
moment every workload rank enters the named phase (all ranks mark the
phase at the same simulated time, so the anchor is deterministic).
Plans round-trip through :meth:`FaultPlan.spec`, whose canonical string
is what :class:`~repro.harness.experiment.PointSpec` carries — faults
therefore hash into the point token and stay bit-identical across
executors and cache temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.errors import ConfigError

__all__ = ["FaultEvent", "FaultPlan", "parse_fault_plan"]

_KINDS = ("target", "server", "ssd", "link")

#: a "partitioned" link keeps this fraction of its capacity: FlowNetwork
#: requires strictly positive capacities, and a 1e-6 factor starves any
#: flow crossing it just like a real partition would
PARTITION_FACTOR = 1e-6


def _fmt_num(x: float) -> str:
    """Canonical number formatting: no trailing zeros, and no ``+`` in
    an exponent (``1e+16`` would read back as phase ``1e``)."""
    s = repr(float(x)).replace("e+", "e")
    return s[:-2] if s.endswith(".0") else s


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is seconds since the start of the run, or — when ``phase`` is
    set — since every rank entered that workload phase.  ``recover``
    (seconds after injection) undoes the fault; ``None`` means permanent.
    ``rebuild`` starts a DAOS rebuild right after a target/server kill;
    ``share`` is its ``bandwidth_share``.  ``factor`` scales a link's
    capacity (0 means partition).
    """

    kind: str
    at: float
    arg: str
    phase: Optional[str] = None
    recover: Optional[float] = None
    rebuild: bool = False
    share: float = 0.25
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigError(
                f"unknown fault kind {self.kind!r} (expected one of {_KINDS})"
            )
        for name in ("at", "recover", "share", "factor"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{self.kind} fault {name} must be finite, got {value}")
        if self.at < 0:
            raise ConfigError(f"fault time must be >= 0, got {self.at}")
        if not self.arg:
            raise ConfigError(f"{self.kind} fault needs a target argument")
        if self.recover is not None and self.recover <= 0:
            raise ConfigError(f"recover must be > 0, got {self.recover}")
        if self.rebuild and self.kind not in ("target", "server"):
            raise ConfigError("rebuild only applies to target/server faults")
        if not 0.0 < self.share <= 1.0:
            raise ConfigError(f"share must be in (0, 1], got {self.share}")
        if self.factor < 0 or self.factor > 1.0:
            raise ConfigError(f"factor must be in [0, 1], got {self.factor}")
        if self.kind in ("target", "server"):
            # a non-negative ASCII decimal, optionally '+'-signed: int()
            # alone would also take '-1', '3_0' and non-ASCII digits
            digits = self.arg[1:] if self.arg.startswith("+") else self.arg
            if not (digits.isascii() and digits.isdigit()):
                raise ConfigError(
                    f"{self.kind} fault argument must be a non-negative "
                    f"index: {self.arg!r}"
                )
            # one fault, one spelling: '03' and '+3' are the index 3, so
            # they share its spec token, cache key and point seed
            object.__setattr__(self, "arg", str(int(digits)))
        if self.kind == "ssd" and "." not in self.arg:
            raise ConfigError(
                f"ssd fault argument must look like 'srv0.ssd2': {self.arg!r}"
            )

    @property
    def index(self) -> int:
        """Integer argument for target/server faults."""
        return int(self.arg)

    def spec(self) -> str:
        """Canonical event string (round-trips through the parser)."""
        anchor = f"{self.phase}+" if self.phase else ""
        out = f"{self.kind}@{anchor}{_fmt_num(self.at)}:{self.arg}"
        if self.recover is not None:
            out += f",recover={_fmt_num(self.recover)}"
        if self.rebuild:
            out += ",rebuild"
            if self.share != 0.25:  # exact: compares against the literal default
                out += f",share={_fmt_num(self.share)}"
        if self.kind == "link" and self.factor != 1.0:  # exact: literal default
            out += f",factor={_fmt_num(self.factor)}"
        return out


@dataclass(frozen=True)
class FaultPlan:
    """An ordered collection of fault events."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(self.events))

    def __bool__(self) -> bool:
        return bool(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def spec(self) -> str:
        """Canonical plan string (round-trips through the parser)."""
        return ";".join(ev.spec() for ev in self.events)

    @property
    def wants_rebuild(self) -> bool:
        return any(ev.rebuild for ev in self.events)


def _parse_event(text: str) -> FaultEvent:
    head, sep, tail = text.partition(":")
    if not sep:
        raise ConfigError(f"fault event {text!r}: missing ':<arg>'")
    kind, sep, when = head.partition("@")
    if not sep:
        raise ConfigError(f"fault event {text!r}: missing '@<time>'")
    phase: Optional[str] = None
    if "+" in when:
        phase, _, when = when.rpartition("+")
    try:
        at = float(when)
    except ValueError:
        raise ConfigError(f"fault event {text!r}: bad time {when!r}") from None
    parts = tail.split(",")
    arg = parts[0].strip()
    recover: Optional[float] = None
    rebuild = False
    share = 0.25
    factor = 1.0
    for opt in parts[1:]:
        opt = opt.strip()
        key, sep, value = opt.partition("=")
        try:
            if key == "recover" and sep:
                recover = float(value)
            elif key == "factor" and sep:
                factor = float(value)
            elif key == "share" and sep:
                share = float(value)
            elif key == "rebuild" and not sep:
                rebuild = True
            else:
                raise ConfigError(f"fault event {text!r}: unknown option {opt!r}")
        except ValueError:
            raise ConfigError(f"fault event {text!r}: bad value in {opt!r}") from None
    return FaultEvent(
        kind=kind.strip(),
        at=at,
        arg=arg,
        phase=phase or None,
        recover=recover,
        rebuild=rebuild,
        share=share,
        factor=factor,
    )


def parse_fault_plan(spec: str) -> FaultPlan:
    """Parse a ``;``-joined plan string into a :class:`FaultPlan`.

    An empty/whitespace spec parses to an empty plan (no faults).
    """
    events = [
        _parse_event(part.strip())
        for part in spec.split(";")
        if part.strip()
    ]
    return FaultPlan(events=tuple(events))
