"""Trace exporters: Chrome trace-event JSON and simprof flame-graph /
profile exports.

The Chrome format is the Trace Event Format consumed by
``chrome://tracing`` and https://ui.perfetto.dev: a ``traceEvents``
list of complete ("ph": "X") events with microsecond timestamps, plus
metadata ("ph": "M") events naming processes and threads.  Simulated
seconds map to trace microseconds, so one simulated second reads as
1 s in the viewer.

:func:`export_collapsed_stacks` writes the folded "stack value" lines
flamegraph.pl and speedscope consume (``flamegraph.pl profile.folded >
profile.svg``); :func:`export_profile_json` dumps a
:class:`~repro.obs.profile.ProfileRecorder`'s full state plus derived
hot-site summaries.  Both accept either a single recorder or a
``{figure_id: recorder}`` dict, in which case each figure becomes its
own root frame / document section.
"""

from __future__ import annotations

import json
from typing import IO, Dict, List, Optional, Sequence, Union

from repro.obs.ledger import OpLedger
from repro.obs.profile import ProfileRecorder
from repro.obs.span import Span, Tracer

__all__ = [
    "chrome_trace_events",
    "export_chrome_trace",
    "export_collapsed_stacks",
    "export_ledger_ndjson",
    "export_profile_json",
    "ledger_trace_events",
]

#: trace lane used for op-ledger exemplar slices (the span lanes use
#: TID_SIM=0 / TID_FLOWNET=1 / node lanes from 100)
TID_LEDGER = 2

_US_PER_SIM_SECOND = 1e6


def _event(span: Span, pid_offset: int) -> Dict:
    event = {
        "name": span.name,
        "cat": span.cat or "default",
        "ph": "X",
        "ts": span.start * _US_PER_SIM_SECOND,
        "dur": (span.duration or 0.0) * _US_PER_SIM_SECOND,
        "pid": span.pid + pid_offset,
        "tid": span.tid,
    }
    if span.args:
        event["args"] = dict(span.args)
    return event


def chrome_trace_events(tracer: Tracer, pid_offset: int = 0,
                        process_label: str = "run") -> List[Dict]:
    """Convert a tracer's finished spans to trace-event dicts."""
    events: List[Dict] = []
    pids = sorted({s.pid for s in tracer.spans})
    for pid in pids:
        events.append({
            "name": "process_name", "ph": "M", "pid": pid + pid_offset, "tid": 0,
            "args": {"name": f"{process_label} {pid}"},
        })
        for tid, label in sorted(tracer.thread_labels.items()):
            events.append({
                "name": "thread_name", "ph": "M", "pid": pid + pid_offset,
                "tid": tid, "args": {"name": label},
            })
    for span in tracer.finished:
        events.append(_event(span, pid_offset))
    return events


def export_chrome_trace(
    out: Union[str, IO],
    tracers: Union[Tracer, Sequence[tuple]],
    ledgers: Optional[Dict[str, OpLedger]] = None,
) -> int:
    """Write a Chrome trace file; returns the number of slice events.

    ``tracers`` is either a single :class:`Tracer` or a sequence of
    ``(label, tracer)`` pairs (one per figure); in the latter case pids
    are offset so runs from different figures never collide.  When
    ``ledgers`` maps a label to an :class:`OpLedger`, that figure's
    exemplar ops ride along as slices on the ledger lane
    (:data:`TID_LEDGER`) of the matching run processes.
    """
    if isinstance(tracers, Tracer):
        tracers = [("run", tracers)]
    events: List[Dict] = []
    offset = 0
    for label, tracer in tracers:
        events.extend(chrome_trace_events(tracer, pid_offset=offset, process_label=label))
        ledger = (ledgers or {}).get(label)
        max_pid = max((s.pid for s in tracer.spans), default=0)
        if ledger is not None:
            events.extend(ledger_trace_events(ledger, pid_offset=offset))
            max_pid = max(
                max_pid,
                max((r["run"] for _, _, _, _, r in ledger.iter_exemplars()), default=0),
            )
        offset += max_pid + 1
    doc = {"traceEvents": events, "displayTimeUnit": "ms"}
    if isinstance(out, str):
        with open(out, "w") as fh:
            json.dump(doc, fh)
    else:
        json.dump(doc, out)
    return sum(1 for e in events if e["ph"] == "X")


def _as_profile_dict(
    profiles: Union[ProfileRecorder, Dict[str, ProfileRecorder]],
) -> Dict[str, ProfileRecorder]:
    if isinstance(profiles, ProfileRecorder):
        return {"run": profiles}
    return dict(profiles)


def export_collapsed_stacks(
    out: Union[str, IO],
    profiles: Union[ProfileRecorder, Dict[str, ProfileRecorder]],
    metric: str = "wall",
) -> int:
    """Write folded flame-graph lines; returns the line count.

    Each line is ``frame;frame;... value`` with engine frames nested
    under ``sim.run`` (see
    :meth:`ProfileRecorder.collapsed_stacks`); with a dict of recorders
    the figure id becomes the root frame, so one file holds every
    profiled figure side by side.  ``metric="wall"`` weights by self
    wall microseconds, ``metric="events"`` by deterministic counts.
    """
    lines: List[str] = []
    named = _as_profile_dict(profiles)
    for label in sorted(named):
        prefix = f"{label};" if len(named) > 1 else ""
        lines.extend(
            f"{prefix}{line}" for line in named[label].collapsed_stacks(metric=metric)
        )
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(out, str):
        with open(out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return len(lines)


def export_profile_json(
    out: Union[str, IO],
    profiles: Union[ProfileRecorder, Dict[str, ProfileRecorder]],
) -> None:
    """Dump one or more profile recorders as JSON: per-recorder
    mergeable state (sites, recompute stats, peaks) plus the derived
    hot-site table and events/second."""
    doc = {
        "schema": 1,
        "profiles": {
            label: rec.as_json_obj()
            for label, rec in sorted(_as_profile_dict(profiles).items())
        },
    }
    if isinstance(out, str):
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(doc, out, indent=1, sort_keys=True)


def _as_ledger_dict(
    ledgers: Union[OpLedger, Dict[str, OpLedger]],
) -> Dict[str, OpLedger]:
    if isinstance(ledgers, OpLedger):
        return {"run": ledgers}
    return dict(ledgers)


def export_ledger_ndjson(
    out: Union[str, IO],
    ledgers: Union[OpLedger, Dict[str, OpLedger]],
) -> int:
    """Write op-ledger exemplars as NDJSON; returns the line count.

    One JSON object per line — ``figure``, ``op``, histogram ``bucket``
    with its exact ``[lo, hi)`` edges, the exemplar's ``(run, seq)``
    identity, ``start``/``latency`` on sim time, the component map and
    any flags — sorted by (figure, op, bucket) so the file is
    byte-stable across executors and cache temperature.  ``ledgers`` is
    a single :class:`OpLedger` or a ``{figure_id: ledger}`` dict.
    """
    lines: List[str] = []
    named = _as_ledger_dict(ledgers)
    for label in sorted(named):
        for name, bucket, lo, hi, record in named[label].iter_exemplars():
            row = {
                "figure": label,
                "op": name,
                "bucket": bucket,
                "lo": lo,
                "hi": hi,
                "run": record["run"],
                "seq": record["seq"],
                "start": record["start"],
                "latency": record["latency"],
                "components": record["components"],
                "flags": record["flags"],
            }
            lines.append(json.dumps(row, sort_keys=True))
    text = "\n".join(lines) + ("\n" if lines else "")
    if isinstance(out, str):
        with open(out, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return len(lines)


def ledger_trace_events(ledger: OpLedger, pid_offset: int = 0) -> List[Dict]:
    """Exemplar ops as Chrome complete events on a dedicated lane.

    Each exemplar becomes one ``ph: "X"`` slice at its op's sim-time
    span with the component decomposition in ``args``, pid'd by run so
    the slices land inside the matching trace process next to the span
    lanes.
    """
    events: List[Dict] = []
    pids = set()
    for name, bucket, lo, hi, record in ledger.iter_exemplars():
        events.append({
            "name": name,
            "cat": "ledger",
            "ph": "X",
            "ts": record["start"] * _US_PER_SIM_SECOND,
            "dur": record["latency"] * _US_PER_SIM_SECOND,
            "pid": record["run"] + pid_offset,
            "tid": TID_LEDGER,
            "args": {
                "bucket": bucket,
                "components": dict(record["components"]),
                "flags": list(record["flags"]),
            },
        })
        pids.add(record["run"] + pid_offset)
    for pid in sorted(pids):
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": TID_LEDGER, "args": {"name": "op ledger exemplars"},
        })
    return events
