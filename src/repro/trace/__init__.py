"""repro.trace -- the kernel-wide flight recorder.

An ftrace/perf-style tracing layer over the whole simulation: the DMA
API, the IOMMU (IOTLB and flush queue), the network rings, the
allocators, D-KASAN, and the attacks all carry tracepoints that emit
typed events into one bounded ring buffer, stamped from the simulated
clock. It records events and spans only; counts live in the resident
stats structs that :mod:`repro.metrics` reads out (``repro-dma
metrics``).

**Tracing is disabled by default and costs almost nothing when off.**
Instrumented call sites guard with :func:`enabled`, which is a single
module-global ``None`` check; no recorder object, no event allocation,
no clock read happens until one is installed:

    from repro import trace

    recorder = trace.install(trace.TraceRecorder(
        categories=("iommu", "dma")))
    ...           # run a workload / attack
    trace.uninstall()
    for event in recorder.events:
        print(event)

or, scoped::

    with trace.session(categories=("iommu",)) as recorder:
        ...

Importing this module (or any instrumented module) has no side
effects: no recorder is installed, no state is created beyond the
module itself. The CI no-op step pins that property.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import TraceError
from repro.trace.analysis import (InvalidationWindows,
                                  derive_invalidation_windows,
                                  event_counts, stale_access_count)
from repro.trace.export import (chrome_trace, dump_chrome_trace,
                                dump_jsonl, load_jsonl, summary_record,
                                write_jsonl)
from repro.trace.recorder import (CATEGORIES, DEFAULT_CAPACITY, Span,
                                  TraceEvent, TraceRecorder)

__all__ = [
    "CATEGORIES", "DEFAULT_CAPACITY", "InvalidationWindows",
    "Span", "TraceError", "TraceEvent", "TraceRecorder", "active",
    "bind_clock", "chrome_trace", "derive_invalidation_windows",
    "active_categories", "dump_chrome_trace", "dump_jsonl", "emit",
    "enabled", "event_counts",
    "install", "last_seq", "load_jsonl", "session", "span",
    "stale_access_count", "summary_record", "uninstall", "write_jsonl",
]

#: The installed recorder. ``None`` (the default) means tracing is off
#: and every hook below is a near-zero-cost no-op.
_active: TraceRecorder | None = None

_NO_CATEGORIES: frozenset = frozenset()

#: The categories the installed recorder wants -- empty when tracing is
#: off. This is module *data*, not a function, so per-event hot loops
#: can hoist ``trace.active_categories`` into a local once and pay one
#: O(1) membership test per event instead of a function call (the
#: :func:`enabled` predicate must never be re-evaluated per event in a
#: loop whose recorder cannot change mid-loop).
active_categories: frozenset = _NO_CATEGORIES


def install(recorder: TraceRecorder) -> TraceRecorder:
    """Install *recorder* as the process-wide flight recorder."""
    global _active, active_categories
    if _active is not None:
        raise TraceError("a trace recorder is already installed")
    _active = recorder
    wanted = recorder.categories
    active_categories = frozenset(CATEGORIES) if wanted is None \
        else wanted
    return recorder


def uninstall() -> TraceRecorder | None:
    """Remove (and return) the installed recorder, if any."""
    global _active, active_categories
    recorder, _active = _active, None
    active_categories = _NO_CATEGORIES
    return recorder


def active() -> TraceRecorder | None:
    """The installed recorder, or None when tracing is disabled."""
    return _active


@contextmanager
def session(**kwargs):
    """Install a fresh :class:`TraceRecorder` for the ``with`` body."""
    recorder = install(TraceRecorder(**kwargs))
    try:
        yield recorder
    finally:
        uninstall()


# -- hot-path hooks (the no-op guard) -------------------------------------
#
# Instrumented sites test ``"cat" in trace.active_categories`` (or call
# ``trace.enabled(cat)`` off the hot path) before building event
# arguments, so a disabled trace costs one global read per tracepoint.
# An enabled one costs one args dict and one ring append per event;
# ``benchmarks/test_bench_trace_overhead.py`` holds a campaign seed's
# flight recorder plus coverage stream to a budget.

def enabled(category: str) -> bool:
    """True when a recorder is installed and wants *category*."""
    return category in active_categories


def emit(category: str, name: str, *, phase: str = "i", **args):
    """Record one event (no-op when tracing is off). The kwargs dict
    becomes the event's ``args`` as-is."""
    recorder = _active
    if recorder is None:
        return None
    return recorder.emit_args(category, name, phase, args)


def span(category: str, name: str, **args):
    """Context manager tracing a begin/end span (no-op when off)."""
    recorder = _active
    if recorder is None:
        return _NULL_SPAN
    return recorder.span(category, name, **args)


def last_seq() -> int | None:
    recorder = _active
    return recorder.last_seq() if recorder is not None else None


def bind_clock(clock) -> None:
    """Bind the installed recorder (if any) to *clock*."""
    recorder = _active
    if recorder is not None:
        recorder.bind_clock(clock)


class _NullSpanContext:
    """Shared do-nothing span for the disabled-tracing path."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return None


_NULL_SPAN = _NullSpanContext()
