"""Chrome trace-event JSON export (``chrome://tracing`` / Perfetto).

Renders a retained event list as per-stream timelines: each track
becomes one "thread" named after its stream, chunk service spans become
complete ("X") events, protocol steps become instant ("i") events, and
credit occupancy becomes a counter ("C") series. Times are track-local
simulated cycles mapped 1:1 onto microseconds, the trace viewer's native
unit.

Format reference: the Trace Event Format used by chrome://tracing and
Perfetto (JSON array of event objects with ph/ts/pid/tid fields).
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from repro.trace.events import EventKind, TraceEvent

#: Events rendered as instants on their track's timeline.
_INSTANT_KINDS = (
    EventKind.CREDIT_ISSUE,
    EventKind.RANGE_REPORT,
    EventKind.ALIAS_CHECK,
    EventKind.COMMIT,
    EventKind.IND_ISSUE,
    EventKind.DONE,
    EventKind.FAULT_FIRE,
    EventKind.CONTEXT_ABORT,
    EventKind.CONTEXT_RESTORE,
)


def _jsonable(args: Dict[str, Any]) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in args.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, dict):
            out[key] = {str(k.value if hasattr(k, "value") else k): v
                        for k, v in value.items()}
        else:
            out[key] = str(value)
    return out


def chrome_trace_events(events: List[TraceEvent],
                        pid: int = 1) -> List[Dict[str, Any]]:
    """Convert a retained event list to trace-event dicts."""
    out: List[Dict[str, Any]] = []
    named: set = set()
    open_recoveries: Dict[int, TraceEvent] = {}
    for event in events:
        tid = event.track + 1  # tid 0 renders awkwardly in some viewers
        if event.track >= 0 and event.track not in named:
            named.add(event.track)
            out.append({"ph": "M", "pid": pid, "tid": tid,
                        "name": "thread_name",
                        "args": {"name": event.stream}})
        base = {"pid": pid, "tid": tid, "ts": event.time,
                "cat": "protocol"}
        args = _jsonable(event.args)
        if event.chunk >= 0:
            args["chunk"] = event.chunk
        if event.message is not None:
            args["message"] = event.message.value
            args["mcount"] = event.mcount
        if event.kind is EventKind.CHUNK_SERVICE:
            start = float(event.args.get("start", event.time))
            out.append({**base, "ph": "X", "ts": start,
                        "dur": max(event.time - start, 0.0),
                        "name": f"service chunk {event.chunk}",
                        "args": args})
        elif event.kind is EventKind.RECOVERY_BEGIN:
            open_recoveries[event.track] = event
        elif event.kind is EventKind.RECOVERY_END:
            begin = open_recoveries.pop(event.track, None)
            start = begin.time if begin is not None else event.time
            out.append({**base, "ph": "X", "ts": start,
                        "dur": max(event.time - start, 0.0),
                        "name": "recovery", "args": args})
        elif event.kind in (EventKind.STREAM_BEGIN, EventKind.STREAM_END):
            out.append({**base, "ph": "i", "s": "t",
                        "name": event.kind.value, "args": args})
        elif event.kind in _INSTANT_KINDS:
            name = event.kind.value
            if event.chunk >= 0:
                name = f"{name} {event.chunk}"
            out.append({**base, "ph": "i", "s": "t", "name": name,
                        "args": args})
        if event.kind in (EventKind.CREDIT_ISSUE, EventKind.DONE) \
                and "outstanding" in event.args:
            out.append({"ph": "C", "pid": pid, "tid": tid,
                        "ts": event.time, "name": f"credits t{tid}",
                        "args": {"outstanding":
                                 event.args["outstanding"]}})
    return out


def export_chrome_trace(events: List[TraceEvent], path: str,
                        workload: Optional[str] = None) -> int:
    """Write a ``trace.json`` loadable by chrome://tracing / Perfetto.

    Returns the number of trace-event records written.
    """
    records = [
        {"ph": "M", "pid": 1, "name": "process_name",
         "args": {"name": workload or "repro"}},
        *chrome_trace_events(events),
    ]
    payload = {"traceEvents": records, "displayTimeUnit": "ns"}
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return len(records)

