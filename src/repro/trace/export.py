"""Trace exporters: JSONL and Chrome ``chrome://tracing`` JSON.

The JSONL stream is the machine-readable format: one event object per
line, followed by one ``type: "summary"`` line carrying the event and
drop counts plus the counters passed in. Events serialize with sorted
keys, so two runs with the same seeds produce byte-identical files --
the property the determinism tests pin.

The Chrome export produces the trace-event JSON schema that
``chrome://tracing`` / Perfetto load directly: instant events ("i"),
span begin/end pairs ("B"/"E"), counter samples ("C"), and "M"
metadata rows naming one virtual thread per category.

The recorder keeps no counters. Every exporter takes them as a
``{(category, name): value}`` mapping; ``repro-dma trace`` fills it
from the traced kernel's stats structs via :mod:`repro.metrics`.
"""

from __future__ import annotations

import io
import json
import warnings
from typing import IO, Iterable, Mapping

from repro import durability
from repro.trace.recorder import CATEGORIES, TraceEvent, TraceRecorder

#: ``{(category, name): value}`` counter samples an export carries
Counters = Mapping[tuple[str, str], int]


def summary_record(recorder: TraceRecorder, *,
                   counters: Counters | None = None) -> dict:
    """The JSONL trailer line: event and drop counts plus *counters*."""
    return {
        "type": "summary",
        "nr_events": recorder.nr_events,
        "nr_emitted": recorder.nr_emitted,
        "dropped": recorder.dropped,
        "counters": {f"{cat}/{name}": value
                     for (cat, name), value
                     in sorted((counters or {}).items())},
    }


def write_jsonl(recorder: TraceRecorder, stream: IO[str], *,
                counters: Counters | None = None) -> int:
    """Write every retained event plus the summary line; returns the
    number of event lines written."""
    written = 0
    for event in recorder.events:
        record = dict(event.to_json(), type="event")
        stream.write(json.dumps(record, sort_keys=True) + "\n")
        written += 1
    stream.write(json.dumps(summary_record(recorder, counters=counters),
                            sort_keys=True) + "\n")
    return written


def dump_jsonl(recorder: TraceRecorder, path: str, *,
               counters: Counters | None = None) -> int:
    """Write the JSONL trace atomically (a killed writer leaves the old
    file or none, never a torn one); returns the number of events."""
    buffer = io.StringIO()
    written = write_jsonl(recorder, buffer, counters=counters)
    durability.atomic_write_text(path, buffer.getvalue())
    return written


def load_jsonl(path: str) -> tuple[list[TraceEvent], dict | None]:
    """Read a JSONL trace back into (events, summary-or-None).

    A **torn trailing line** -- the writer crashed mid-append, so the
    last line is not complete JSON -- is healed instead of raised: the
    partial record is dropped with one :class:`UserWarning` naming its
    byte offset, the same tolerance the campaign's JSONL resume
    applies to its results file. Corruption anywhere *before* the
    final line still raises, because that means lost interior events,
    not an interrupted append.
    """
    events: list[TraceEvent] = []
    summary = None
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    offset = 0
    for index, raw in enumerate(lines):
        line = raw.strip()
        if line:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                trailing = all(not rest.strip()
                               for rest in lines[index + 1:])
                if not trailing:
                    raise
                warnings.warn(
                    f"{path}: dropped torn trailing line at byte "
                    f"{offset} ({len(raw.encode('utf-8'))} bytes); "
                    f"the trace was interrupted mid-append")
                break
            if record.get("type") == "summary":
                summary = record
            else:
                events.append(TraceEvent.from_json(record))
        offset += len(raw.encode("utf-8"))
    return events, summary


def chrome_trace(events: Iterable[TraceEvent], *,
                 counters: Counters | None = None,
                 process_name: str = "repro-dma") -> dict:
    """Build a ``chrome://tracing`` trace-event JSON document.

    Each category gets its own virtual thread (tid) so spans and
    instants group into per-subsystem rows; timestamps are already in
    microseconds, the unit the schema expects.
    """
    tids = {category: index + 1
            for index, category in enumerate(CATEGORIES)}
    trace_events: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
         "args": {"name": process_name}},
    ]
    used = sorted({event.category for event in events},
                  key=lambda c: tids[c])
    for category in used:
        trace_events.append(
            {"name": "thread_name", "ph": "M", "pid": 1,
             "tid": tids[category], "args": {"name": category}})
    for event in events:
        record = {"name": event.name, "cat": event.category,
                  "ph": event.phase, "ts": round(event.ts_us, 6),
                  "pid": 1, "tid": tids[event.category],
                  "args": dict(event.args)}
        if event.phase == "i":
            record["s"] = "t"  # thread-scoped instant
        trace_events.append(record)
    last_ts = max((event.ts_us for event in events), default=0.0)
    for (category, name), value in sorted((counters or {}).items()):
        trace_events.append(
            {"name": name, "cat": category, "ph": "C",
             "ts": round(last_ts, 6), "pid": 1, "tid": tids[category],
             "args": {"value": value}})
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


def dump_chrome_trace(recorder: TraceRecorder, path: str, *,
                      counters: Counters | None = None) -> int:
    """Write the Chrome trace JSON atomically; returns the number of
    traceEvents."""
    document = chrome_trace(recorder.events, counters=counters)
    durability.atomic_write_json(path, document, sort_keys=True,
                                 trailing_newline=True)
    return len(document["traceEvents"])
