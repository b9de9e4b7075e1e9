"""The flight recorder: a bounded ring of typed tracepoint events.

Every event is stamped from the simulated clock (:class:`SimClock`), so
a trace is a pure function of the experiment seed -- two runs with the
same seeds produce byte-identical JSONL streams. The ring drops its
*oldest* events under pressure (and counts the drops), which keeps
memory O(capacity) even when a RingFlood-scale workload emits millions
of tracepoints: the recorder behaves like a hardware flight recorder,
always holding the most recent history.

Besides raw events, the recorder aggregates:

* **spans** -- nested begin/end pairs for latency attribution (rendered
  as "B"/"E" phases, Chrome-trace style);
* **counters** -- monotonic per-(category, name) tallies;
* **histograms** -- power-of-two bucketed value distributions, for
  rates and latency spreads without storing every sample.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.errors import TraceError

#: Every tracepoint category the instrumented layers emit.  Unknown
#: categories are rejected at emit time so filters cannot silently
#: miss a misspelled subsystem.
CATEGORIES = ("dma", "iommu", "net", "mem", "dkasan", "attack", "sim",
              "fault", "durability")

#: Default ring capacity: enough for the full Fig. 6/7 benches while
#: staying a few MiB even with verbose args.
DEFAULT_CAPACITY = 65536


class _EventFields(NamedTuple):
    seq: int
    ts_us: float
    category: str
    name: str
    phase: str
    args: dict


class TraceEvent(_EventFields):
    """One recorded tracepoint.

    ``phase`` follows the Chrome trace-event convention: ``"i"`` for an
    instant event, ``"B"``/``"E"`` for span begin/end. A tuple, so the
    recorder builds it in one C call; ``args`` is the emitter's keyword
    dict, kept as-is.
    """

    __slots__ = ()

    def __new__(cls, seq: int, ts_us: float, category: str, name: str,
                phase: str = "i", args: dict | None = None):
        return _new_event(cls, (seq, ts_us, category, name, phase,
                                {} if args is None else args))

    def to_json(self) -> dict:
        return {"seq": self.seq, "ts_us": round(self.ts_us, 6),
                "cat": self.category, "name": self.name,
                "ph": self.phase, "args": self.args}

    @classmethod
    def from_json(cls, record: dict) -> "TraceEvent":
        return cls(record["seq"], record["ts_us"], record["cat"],
                   record["name"], record.get("ph", "i"),
                   dict(record.get("args", {})))


_new_event = tuple.__new__


@dataclass
class Histogram:
    """Power-of-two bucketed distribution (ftrace ``hist:`` style).

    Bucket *i* counts values in ``[2**(i-1), 2**i)``; bucket 0 counts
    values < 1 (including 0 and negatives, which a simulated latency
    should never produce but a buggy caller might).
    """

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    buckets: dict[int, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = 0
        if value >= 1:
            index = int(value).bit_length()
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_json(self) -> dict:
        return {"count": self.count, "total": round(self.total, 6),
                "min": self.min, "max": self.max, "mean": round(self.mean, 6),
                "buckets": {str(k): v
                            for k, v in sorted(self.buckets.items())}}


class Span:
    """Handle for an open span; close via the recorder (or ``with``)."""

    __slots__ = ("category", "name", "begin_seq", "begin_ts_us", "closed")

    def __init__(self, category: str, name: str, begin_seq: int,
                 begin_ts_us: float) -> None:
        self.category = category
        self.name = name
        self.begin_seq = begin_seq
        self.begin_ts_us = begin_ts_us
        self.closed = False

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self.closed else "open"
        return f"<Span {self.category}/{self.name} {state}>"


class _SpanContext:
    """``with recorder.span(...)`` helper (no-op when filtered out)."""

    __slots__ = ("_recorder", "_span")

    def __init__(self, recorder: "TraceRecorder | None",
                 span: Span | None) -> None:
        self._recorder = recorder
        self._span = span

    def __enter__(self) -> Span | None:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._recorder is not None and self._span is not None:
            self._recorder.end(self._span)


class TraceRecorder:
    """Bounded, category-filtered, deterministically stamped recorder.

    ``categories=None`` records everything; otherwise only the named
    categories are kept (the rest are no-ops, including their counters
    and histograms). The clock may be bound after construction --
    :class:`repro.sim.kernel.Kernel` binds its own clock at boot when a
    recorder is installed, so events are stamped in that kernel's
    simulated time.
    """

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY,
                 categories=None, clock=None) -> None:
        if capacity <= 0:
            raise TraceError(f"bad trace capacity {capacity}")
        unknown = set(categories or ()) - set(CATEGORIES)
        if unknown:
            raise TraceError(
                f"unknown trace categories: {', '.join(sorted(unknown))} "
                f"(valid: {', '.join(CATEGORIES)})")
        self.capacity = capacity
        self._categories = frozenset(categories) if categories else None
        #: every category :meth:`emit_args` keeps: a miss is filtered
        #: or unknown, so a kept event costs one set lookup
        self._kept = frozenset(CATEGORIES) if self._categories is None \
            else self._categories
        self._clock = clock
        #: a full ring drops its oldest event on append
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self._next_seq = 0
        self._span_stack: list[Span] = []
        self.counters: dict[tuple[str, str], int] = {}
        self.histograms: dict[tuple[str, str], Histogram] = {}
        self._observers: list = []

    # -- configuration ------------------------------------------------------

    def wants(self, category: str) -> bool:
        return self._categories is None or category in self._categories

    @property
    def categories(self) -> frozenset | None:
        return self._categories

    def bind_clock(self, clock) -> None:
        """Stamp subsequent events from *clock* (a ``SimClock``)."""
        self._clock = clock

    @property
    def now_us(self) -> float:
        return self._clock.now_us if self._clock is not None else 0.0

    # -- observers ----------------------------------------------------------

    def add_observer(self, fn) -> None:
        """Stream every subsequently emitted event into *fn(event)*.

        Observers see events **before** the drop-oldest ring can evict
        them, so a streaming consumer (the coverage collector) is
        independent of the ring capacity. Observers must not emit.
        """
        self._observers.append(fn)

    # -- events -------------------------------------------------------------

    def emit(self, category: str, name: str, *, phase: str = "i",
             **args) -> TraceEvent | None:
        """Record one event; returns None when the category is filtered."""
        return self.emit_args(category, name, phase, args)

    def emit_args(self, category: str, name: str, phase: str,
                  args: dict) -> TraceEvent | None:
        """:meth:`emit` with the args dict passed in, and kept, as-is:
        the hot path behind :func:`repro.trace.emit`."""
        if category not in self._kept:
            if category not in CATEGORIES:
                raise TraceError(f"unknown trace category {category!r}")
            return None
        clock = self._clock
        event = _new_event(TraceEvent, (
            self._next_seq, clock.now_us if clock is not None else 0.0,
            category, name, phase, args))
        self._next_seq += 1
        self._events.append(event)
        if self._observers:
            for observer in self._observers:
                observer(event)
        return event

    @property
    def events(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        return list(self._events)

    @property
    def nr_events(self) -> int:
        return len(self._events)

    @property
    def nr_emitted(self) -> int:
        """Events ever emitted, including those the ring dropped."""
        return self._next_seq

    @property
    def dropped(self) -> int:
        """Events the full ring dropped, oldest first."""
        return self._next_seq - len(self._events)

    def last_seq(self) -> int | None:
        """Sequence number of the most recent event, if any (the ring
        always holds the newest event, so this is the last seq issued)."""
        return self._next_seq - 1 if self._next_seq else None

    def tail(self, n: int) -> list[TraceEvent]:
        """The last *n* retained events, oldest first."""
        if n <= 0:
            return []
        return list(self._events)[-n:]

    # -- spans --------------------------------------------------------------

    def begin(self, category: str, name: str, **args) -> Span | None:
        """Open a span; returns None when the category is filtered."""
        event = self.emit(category, name, phase="B", **args)
        if event is None:
            return None
        span = Span(category, name, event.seq, event.ts_us)
        self._span_stack.append(span)
        return span

    def end(self, span: Span) -> TraceEvent | None:
        """Close *span*; spans must close in LIFO order."""
        if span.closed:
            raise TraceError(
                f"span {span.category}/{span.name} closed twice")
        if not self._span_stack:
            raise TraceError(
                f"closing span {span.category}/{span.name} "
                f"with no span open")
        top = self._span_stack[-1]
        if top is not span:
            raise TraceError(
                f"mismatched span close: closing {span.category}/"
                f"{span.name} while {top.category}/{top.name} is open")
        self._span_stack.pop()
        span.closed = True
        return self.emit(span.category, span.name, phase="E",
                         dur_us=round(self.now_us - span.begin_ts_us, 6))

    def span(self, category: str, name: str, **args) -> _SpanContext:
        """``with recorder.span("attack", "kaslr-break"): ...``"""
        return _SpanContext(self, self.begin(category, name, **args))

    @property
    def open_spans(self) -> int:
        return len(self._span_stack)

    # -- aggregates ---------------------------------------------------------

    def count(self, category: str, name: str, delta: int = 1) -> None:
        """Bump a monotonic counter (no ring-buffer traffic)."""
        if not self.wants(category):
            return
        key = (category, name)
        self.counters[key] = self.counters.get(key, 0) + delta

    def observe(self, category: str, name: str, value: float) -> None:
        """Record one sample into a pow-2 bucketed histogram."""
        if not self.wants(category):
            return
        key = (category, name)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)
