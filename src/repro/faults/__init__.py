"""Declarative, deterministic fault injection.

A :class:`FaultPlan` is an ordered list of :class:`FaultEvent`\\ s pinned
to simulation time (optionally anchored to a workload phase), executed
by a :class:`FaultController` process registered with the simulator.
Events drive the existing failure primitives — ``Pool.fail_target`` /
``restore_target``, ``SSD.fail/restore`` and ``FlowNetwork`` capacity
changes — and can auto-trigger ``run_rebuild`` as
competing background traffic.  :class:`RetryPolicy` gives clients
timeout/retry/backoff semantics so foreground I/O survives the window.

See ``docs/FAULTS.md`` for the plan grammar and retry semantics.
"""

from repro.faults.controller import FaultController
from repro.faults.plan import FaultEvent, FaultPlan, parse_fault_plan
from repro.faults.retry import RetryPolicy

__all__ = [
    "FaultController",
    "FaultEvent",
    "FaultPlan",
    "RetryPolicy",
    "parse_fault_plan",
]
