"""Plain-text rendering of flight-recorder traces.

Turns a sequence of :class:`repro.trace.TraceEvent` into an
ftrace-style timeline -- one line per event, span begin/end marked and
indented -- plus a counters/histograms summary block. Both renderers
are pure functions over already-captured data, so they work equally on
a live recorder's ``events`` and on a stream reloaded with
:func:`repro.trace.load_jsonl`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from repro.trace.recorder import TraceEvent

#: Argument keys rendered as hex (addresses and frame numbers).
_HEX_KEYS = frozenset({
    "iova", "kva", "pfn", "paddr", "ubuf_kva", "linear_iova",
    "chunk_pfn", "iova_pfn",
})

_PHASE_MARK = {"B": "+", "E": "-"}


def _render_value(key: str, value) -> str:
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, int) and key in _HEX_KEYS:
        return f"{value:#x}"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def _render_args(args: dict, *, max_len: int = 56) -> str:
    if not args:
        return ""
    text = " ".join(f"{k}={_render_value(k, v)}"
                    for k, v in args.items())
    if len(text) > max_len:
        text = text[:max_len - 3] + "..."
    return text


def render_timeline(events: Iterable["TraceEvent"], *,
                    last: int | None = None) -> str:
    """Render *events* as an indented, span-aware text timeline.

    ``last`` keeps only the final *n* events (the flight-recorder
    view). Span indentation is tracked across the rendered slice; a
    slice that starts inside a span simply renders at depth 0.
    """
    rows = list(events)
    if last is not None:
        rows = rows[-last:]
    lines = [f"{'ts(ms)':>12}  {'cat':<7} event"]
    depth = 0
    for event in rows:
        if event.phase == "E":
            depth = max(0, depth - 1)
        mark = _PHASE_MARK.get(event.phase, " ")
        indent = "  " * depth
        args = _render_args(event.args)
        line = (f"{event.ts_us / 1000.0:>12.3f}  {event.category:<7} "
                f"{mark}{indent}{event.name}")
        if args:
            line += f"  {args}"
        lines.append(line)
        if event.phase == "B":
            depth += 1
    return "\n".join(lines)


def render_trace_summary(summary: dict) -> str:
    """Render a :func:`repro.trace.summary_record` dict as text: event
    and drop counts, then the counters the record carries."""
    lines = [
        f"events: {summary['nr_events']} retained / "
        f"{summary['nr_emitted']} emitted "
        f"({summary['dropped']} dropped)",
    ]
    counters = summary.get("counters") or {}
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]}")
    return "\n".join(lines)


def render_invalidation_report(windows) -> str:
    """One-line report of trace-derived invalidation windows.

    *windows* is a :class:`repro.trace.InvalidationWindows`.
    """
    if not windows.windows_us and not windows.nr_sync \
            and not windows.nr_unpaired:
        return "invalidation windows: none observed"
    deferred = len(windows.windows_us) - windows.nr_sync
    parts = [f"invalidation windows: {deferred} deferred"]
    if deferred:
        parts.append(f"max {windows.max_ms:.3f} ms, "
                     f"mean {windows.mean_ms:.3f} ms")
    if windows.nr_sync:
        parts.append(f"{windows.nr_sync} synchronous (zero-width)")
    if windows.nr_unpaired:
        parts.append(f"{windows.nr_unpaired} still open at end of trace")
    return "; ".join(parts)
