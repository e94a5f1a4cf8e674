"""Trace exporters: Chrome ``trace_event`` JSON, JSONL, and text tables.

The Chrome format (the JSON Array/Object format consumed by Perfetto and
``chrome://tracing``) maps our records directly: complete spans become
``"ph": "X"`` events with microsecond ``ts``/``dur``, instants become
``"ph": "i"`` with thread scope, and track names are emitted as ``"M"``
metadata events.  Every record is stamped with the one clock domain,
``sim``, in its ``cat`` suffix, its ``clock`` key and the table's
``Clock`` column.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.tracer import SIM_CLOCK, NullTracer, SpanRecord, Tracer
from repro.system.metrics import table_to_text


def _event(span: SpanRecord) -> dict:
    event = {
        "name": span.name,
        "cat": f"{span.cat},{SIM_CLOCK}",
        "ph": span.ph,
        "ts": span.ts_s * 1e6,  # trace_event timestamps are microseconds
        "pid": span.pid,
        "tid": span.tid,
    }
    if span.ph == "X":
        event["dur"] = span.dur_s * 1e6
    else:  # instant: thread-scoped
        event["s"] = "t"
    if span.args:
        event["args"] = dict(span.args)
    return event


def chrome_trace(tracer: "Tracer | NullTracer") -> dict:
    """The full trace as a Chrome trace_event JSON object."""
    events: list[dict] = []
    for pid, info in sorted(tracer.tracks.items()):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": info.process_name},
            }
        )
        for tid, thread_name in sorted(info.thread_names.items()):
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": thread_name},
                }
            )
    events.extend(_event(span) for span in tracer.spans())
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"dropped_spans": tracer.dropped},
    }


def write_chrome_trace(tracer: "Tracer | NullTracer", path: "str | Path") -> Path:
    """Serialize the Chrome trace deterministically (sorted keys)."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(tracer), sort_keys=True) + "\n")
    return path


def spans_jsonl(tracer: "Tracer | NullTracer") -> str:
    """One JSON object per line — the grep/jq-friendly raw export."""
    lines = []
    for span in tracer.spans():
        lines.append(
            json.dumps(
                {
                    "name": span.name,
                    "cat": span.cat,
                    "clock": SIM_CLOCK,
                    "ph": span.ph,
                    "ts_s": span.ts_s,
                    "dur_s": span.dur_s,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": span.args or {},
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def write_jsonl(tracer: "Tracer | NullTracer", path: "str | Path") -> Path:
    path = Path(path)
    path.write_text(spans_jsonl(tracer))
    return path


def slowest_spans_table(tracer: "Tracer | NullTracer", k: int = 10) -> str:
    """Top-k slowest spans as an aligned text table."""
    rows = []
    for span in tracer.slowest(k):
        rows.append(
            [
                span.name,
                span.cat,
                SIM_CLOCK,
                f"{span.ts_s * 1e3:.3f}",
                f"{span.dur_s * 1e3:.3f}",
                f"{span.pid}/{span.tid}",
            ]
        )
    return table_to_text(
        ["Span", "Cat", "Clock", "Start(ms)", "Dur(ms)", "Track"], rows, min_width=6
    )
