"""repro.trace unit tests: ring, spans, aggregates, exporters.

Everything here drives the recorder directly (no kernel); the
cross-layer behaviour lives in ``test_trace_integration.py``.
"""

import io
import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import trace
from repro.errors import TraceError
from repro.sim.clock import SimClock
from repro.trace import (CATEGORIES, Histogram, Span, TraceEvent,
                         TraceRecorder, chrome_trace,
                         derive_invalidation_windows, event_counts,
                         load_jsonl, summary_record, write_jsonl)


@pytest.fixture(autouse=True)
def _recorder_slot_clean():
    """No test may leak an installed recorder into the next one."""
    assert trace.active() is None
    yield
    trace.uninstall()


# -- ring buffer -----------------------------------------------------------------


def test_ring_drops_oldest_and_counts():
    recorder = TraceRecorder(capacity=8)
    for i in range(20):
        recorder.emit("dma", "map", index=i)
    assert recorder.nr_events == 8
    assert recorder.nr_emitted == 20
    assert recorder.dropped == 12
    # the *most recent* history survives, oldest first
    assert [e.args["index"] for e in recorder.events] == list(range(12, 20))
    assert [e.seq for e in recorder.events] == list(range(12, 20))
    assert recorder.last_seq() == 19
    assert [e.seq for e in recorder.tail(3)] == [17, 18, 19]
    assert recorder.tail(0) == []


def test_bad_capacity_rejected():
    with pytest.raises(TraceError, match="capacity"):
        TraceRecorder(capacity=0)
    with pytest.raises(TraceError, match="capacity"):
        TraceRecorder(capacity=-5)


def test_unknown_category_rejected_at_construction():
    with pytest.raises(TraceError, match="unknown trace categories"):
        TraceRecorder(categories=("dma", "gpu"))


def test_unknown_category_rejected_at_emit():
    recorder = TraceRecorder(categories=("dma",))
    with pytest.raises(TraceError, match="unknown trace category"):
        recorder.emit("gpu", "map")


def test_events_stamped_from_bound_clock():
    clock = SimClock()
    recorder = TraceRecorder()
    assert recorder.now_us == 0.0  # unbound: time origin
    recorder.bind_clock(clock)
    clock.advance_us(125.0)
    event = recorder.emit("sim", "tick")
    assert event.ts_us == 125.0


# -- category filtering ----------------------------------------------------------


def test_category_filter_drops_events_counters_histograms():
    recorder = TraceRecorder(categories=("iommu",))
    assert recorder.wants("iommu") and not recorder.wants("dma")
    assert recorder.emit("dma", "map") is None
    assert recorder.emit("iommu", "fq_defer") is not None
    recorder.count("dma", "maps")
    recorder.count("iommu", "flushes")
    recorder.observe("dma", "lifetime", 3.0)
    assert recorder.nr_events == 1
    assert recorder.counters == {("iommu", "flushes"): 1}
    assert recorder.histograms == {}


def test_unfiltered_recorder_accepts_every_category():
    recorder = TraceRecorder()
    for category in CATEGORIES:
        assert recorder.emit(category, "x") is not None
    assert recorder.nr_events == len(CATEGORIES)


# -- spans ------------------------------------------------------------------------


def test_span_nesting_emits_balanced_begin_end():
    clock = SimClock()
    recorder = TraceRecorder(clock=clock)
    outer = recorder.begin("attack", "outer")
    clock.advance_us(10.0)
    inner = recorder.begin("attack", "inner")
    clock.advance_us(5.0)
    recorder.end(inner)
    recorder.end(outer)
    phases = [(e.phase, e.name) for e in recorder.events]
    assert phases == [("B", "outer"), ("B", "inner"),
                      ("E", "inner"), ("E", "outer")]
    assert recorder.events[2].args["dur_us"] == 5.0
    assert recorder.events[3].args["dur_us"] == 15.0
    assert recorder.open_spans == 0


def test_span_mismatched_close_raises():
    recorder = TraceRecorder()
    outer = recorder.begin("attack", "outer")
    recorder.begin("attack", "inner")
    with pytest.raises(TraceError, match="mismatched span close"):
        recorder.end(outer)


def test_span_double_close_raises():
    recorder = TraceRecorder()
    span = recorder.begin("attack", "s")
    recorder.end(span)
    with pytest.raises(TraceError, match="closed twice"):
        recorder.end(span)


def test_span_close_with_none_open_raises():
    recorder = TraceRecorder()
    span = recorder.begin("attack", "s")
    recorder.end(span)
    other = recorder.begin("attack", "t")
    recorder.end(other)
    span.closed = False
    with pytest.raises(TraceError, match="no span open"):
        recorder.end(span)


def test_span_context_manager():
    recorder = TraceRecorder()
    with recorder.span("net", "reap", cpu=0) as span:
        assert span is not None and not span.closed
    assert [e.phase for e in recorder.events] == ["B", "E"]


def test_filtered_span_is_noop():
    recorder = TraceRecorder(categories=("dma",))
    with recorder.span("attack", "s") as span:
        assert span is None
    assert recorder.nr_events == 0


# -- aggregates -------------------------------------------------------------------


def test_histogram_pow2_buckets():
    hist = Histogram()
    for value in (0, 0.5, 1, 2, 3, 1024):
        hist.observe(value)
    # bucket i counts [2**(i-1), 2**i); <1 lands in bucket 0
    assert hist.buckets == {0: 2, 1: 1, 2: 2, 11: 1}
    assert hist.count == 6
    assert hist.min == 0 and hist.max == 1024
    assert hist.mean == pytest.approx(1030.5 / 6)


def test_counters_accumulate():
    recorder = TraceRecorder()
    recorder.count("iommu", "iotlb_hit")
    recorder.count("iommu", "iotlb_hit", 4)
    recorder.count("iommu", "iotlb_miss")
    assert recorder.counters[("iommu", "iotlb_hit")] == 5
    assert recorder.counters[("iommu", "iotlb_miss")] == 1
    assert recorder.nr_events == 0  # counters stay off the ring


# -- module-level no-op guard -----------------------------------------------------


def test_disabled_by_default_hooks_are_noops():
    assert trace.active() is None
    assert trace.enabled("dma") is False
    assert trace.emit("dma", "map", iova=1) is None
    assert trace.last_seq() is None
    trace.count("dma", "maps")
    trace.observe("dma", "lifetime", 1.0)
    trace.bind_clock(SimClock())
    with trace.span("attack", "s") as span:
        assert span is None


def test_install_uninstall_cycle():
    recorder = trace.install(TraceRecorder())
    assert trace.active() is recorder
    assert trace.enabled("dma") is True
    trace.emit("dma", "map", iova=7)
    assert recorder.nr_events == 1
    assert trace.uninstall() is recorder
    assert trace.active() is None
    assert trace.uninstall() is None


def test_double_install_raises():
    trace.install(TraceRecorder())
    with pytest.raises(TraceError, match="already installed"):
        trace.install(TraceRecorder())


def test_session_scopes_recorder():
    with trace.session(categories=("sim",)) as recorder:
        assert trace.active() is recorder
        assert trace.enabled("sim") and not trace.enabled("dma")
    assert trace.active() is None


def test_importing_trace_has_no_side_effects():
    import importlib

    import repro.trace as module
    importlib.reload(module)
    assert module.active() is None


# -- exporters --------------------------------------------------------------------


def _sample_recorder() -> TraceRecorder:
    clock = SimClock()
    recorder = TraceRecorder(clock=clock)
    recorder.emit("dma", "map", iova=0x1000, size=512)
    clock.advance_us(3.0)
    with recorder.span("attack", "phase", rank=0):
        clock.advance_us(2.0)
        recorder.emit("iommu", "fq_defer", domain=1, iova_pfn=2)
    recorder.count("dma", "maps", 2)
    recorder.observe("dma", "lifetime", 5.0)
    return recorder


def test_jsonl_roundtrip(tmp_path):
    recorder = _sample_recorder()
    path = tmp_path / "trace.jsonl"
    nr = trace.dump_jsonl(recorder, str(path))
    assert nr == recorder.nr_events
    events, summary = load_jsonl(str(path))
    assert events == recorder.events
    assert summary["nr_events"] == recorder.nr_events
    assert summary["counters"] == {"dma/maps": 2}
    assert summary["histograms"]["dma/lifetime"]["count"] == 1


def test_jsonl_lines_are_sorted_json():
    recorder = _sample_recorder()
    stream = io.StringIO()
    write_jsonl(recorder, stream)
    for line in stream.getvalue().splitlines():
        record = json.loads(line)
        assert line == json.dumps(record, sort_keys=True)


def test_summary_record_shape():
    summary = summary_record(_sample_recorder())
    assert summary["type"] == "summary"
    assert summary["nr_emitted"] == 4  # map + B + fq_defer + E
    assert summary["dropped"] == 0


def test_chrome_trace_schema():
    recorder = _sample_recorder()
    doc = chrome_trace(recorder.events, counters=recorder.counters)
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    rows = doc["traceEvents"]
    metadata = [r for r in rows if r["ph"] == "M"]
    names = {r["args"]["name"] for r in metadata
             if r["name"] == "thread_name"}
    assert {"dma", "iommu", "attack"} <= names
    instants = [r for r in rows if r["ph"] == "i"]
    assert all(r["s"] == "t" for r in instants)
    spans = [r for r in rows if r["ph"] in ("B", "E")]
    assert [r["ph"] for r in spans] == ["B", "E"]
    counters = [r for r in rows if r["ph"] == "C"]
    assert counters and counters[0]["name"] == "maps"
    assert counters[0]["cat"] == "dma"
    assert counters[0]["args"] == {"value": 2}
    # each category renders on its own tid, stable within the doc
    tid_of = {r["args"]["name"]: r["tid"] for r in metadata
              if r["name"] == "thread_name"}
    for row in rows:
        if row["ph"] == "i":
            assert row["tid"] == tid_of[row["cat"]]


def test_event_json_roundtrip():
    event = TraceEvent(3, 1.5, "net", "rx_post", "i", {"slot": 2})
    assert TraceEvent.from_json(event.to_json()) == event


# -- analysis ---------------------------------------------------------------------


def _iommu_event(seq, ts, name, **args):
    return TraceEvent(seq, ts, "iommu", name, "i", args)


def test_derive_windows_pairs_defer_with_next_drain():
    events = [
        _iommu_event(0, 100.0, "fq_defer"),
        _iommu_event(1, 400.0, "fq_defer"),
        _iommu_event(2, 1000.0, "fq_drain"),
        _iommu_event(3, 1500.0, "fq_defer"),
    ]
    windows = derive_invalidation_windows(events)
    assert windows.windows_us == [900.0, 600.0]
    assert windows.nr_unpaired == 1
    assert windows.nr_sync == 0
    assert windows.max_us == 900.0
    assert windows.mean_us == 750.0


def test_derive_windows_counts_sync_as_zero_width():
    events = [_iommu_event(0, 5.0, "inv_sync"),
              _iommu_event(1, 9.0, "inv_sync")]
    windows = derive_invalidation_windows(events)
    assert windows.nr_sync == 2
    assert windows.windows_us == [0.0, 0.0]
    assert windows.max_ms == 0.0


def test_event_counts():
    events = [_iommu_event(0, 1.0, "fq_defer"),
              _iommu_event(1, 2.0, "fq_defer"),
              TraceEvent(2, 3.0, "dma", "map", "i", {})]
    counts = event_counts(events)
    assert counts[("iommu", "fq_defer")] == 2
    assert counts[("dma", "map")] == 1


def test_event_defaults_give_each_event_its_own_args():
    first = TraceEvent(0, 0.0, "dma", "map")
    second = TraceEvent(1, 0.0, "dma", "map")
    assert first.phase == "i" and first.args == {}
    first.args["iova"] = 1
    assert second.args == {}


def test_emit_keeps_the_callers_args_dict():
    recorder = trace.install(TraceRecorder())
    args = {"iova": 1}
    assert recorder.emit_args("dma", "map", "i", args).args is args
    event = trace.emit("dma", "unmap", phase="B", iova=2)
    assert (event.phase, event.args) == ("B", {"iova": 2})


# -- the recorder == the dataclass-and-popleft recorder it replaced ---------------


class ReferenceEvent:
    """Reference model of an event: the frozen-dataclass layout's
    ``to_json``."""

    __slots__ = ("seq", "ts_us", "category", "name", "phase", "args")

    def __init__(self, seq, ts_us, category, name, phase="i", args=None):
        self.seq, self.ts_us, self.category = seq, ts_us, category
        self.name, self.phase = name, phase
        self.args = {} if args is None else args

    def to_json(self):
        return {"seq": self.seq, "ts_us": round(self.ts_us, 6),
                "cat": self.category, "name": self.name,
                "ph": self.phase, "args": self.args}


class ReferenceRecorder:
    """Reference model: the recorder before events became tuples, the
    ring a ``maxlen`` deque and ``dropped`` a derived count."""

    def __init__(self, *, capacity=65536, categories=None, clock=None):
        if capacity <= 0:
            raise TraceError(f"bad trace capacity {capacity}")
        unknown = set(categories or ()) - set(CATEGORIES)
        if unknown:
            raise TraceError(
                f"unknown trace categories: {', '.join(sorted(unknown))} "
                f"(valid: {', '.join(CATEGORIES)})")
        self.capacity = capacity
        self._categories = frozenset(categories) if categories else None
        self._clock = clock
        self._events = deque()
        self._next_seq = 0
        self.dropped = 0
        self._span_stack = []
        self.counters = {}
        self.histograms = {}
        self._observers = []

    def wants(self, category):
        return self._categories is None or category in self._categories

    @property
    def now_us(self):
        return self._clock.now_us if self._clock is not None else 0.0

    def add_observer(self, fn):
        self._observers.append(fn)

    def emit(self, category, name, *, phase="i", **args):
        if category not in CATEGORIES:
            raise TraceError(f"unknown trace category {category!r}")
        if not self.wants(category):
            return None
        event = ReferenceEvent(self._next_seq, self.now_us, category,
                               name, phase, args)
        self._next_seq += 1
        if len(self._events) >= self.capacity:
            self._events.popleft()
            self.dropped += 1
        self._events.append(event)
        for observer in self._observers:
            observer(event)
        return event

    @property
    def events(self):
        return list(self._events)

    @property
    def nr_events(self):
        return len(self._events)

    @property
    def nr_emitted(self):
        return self._next_seq

    def last_seq(self):
        return self._events[-1].seq if self._events else None

    def tail(self, n):
        if n <= 0:
            return []
        return list(self._events)[-n:]

    def begin(self, category, name, **args):
        event = self.emit(category, name, phase="B", **args)
        if event is None:
            return None
        span = Span(category, name, event.seq, event.ts_us)
        self._span_stack.append(span)
        return span

    def end(self, span):
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

    @property
    def open_spans(self):
        return len(self._span_stack)

    def count(self, category, name, delta=1):
        if not self.wants(category):
            return
        key = (category, name)
        self.counters[key] = self.counters.get(key, 0) + delta

    def observe(self, category, name, value):
        if not self.wants(category):
            return
        key = (category, name)
        hist = self.histograms.get(key)
        if hist is None:
            hist = self.histograms[key] = Histogram()
        hist.observe(value)


def _outcome(fn):
    """``to_json`` of what *fn* returns, or the TraceError message."""
    try:
        result = fn()
    except TraceError as exc:
        return ("TraceError", str(exc))
    if isinstance(result, list):
        return [event.to_json() for event in result]
    return result.to_json() if hasattr(result, "to_json") else result


def _state(recorder):
    return {"events": [event.to_json() for event in recorder.events],
            "seqs": [event.seq for event in recorder.events],
            "dropped": recorder.dropped,
            "nr_events": recorder.nr_events,
            "nr_emitted": recorder.nr_emitted,
            "last_seq": recorder.last_seq(),
            "open_spans": recorder.open_spans,
            "counters": dict(recorder.counters),
            "histograms": {key: hist.to_json() for key, hist
                           in recorder.histograms.items()}}


_categories = st.sampled_from(CATEGORIES + ("gpu",))
_names = st.sampled_from(("map", "unmap", "fq_defer", "x"))
_ops = st.one_of(
    st.tuples(st.just("emit"), _categories, _names,
              st.sampled_from(("i", "B", "E")),
              st.dictionaries(st.sampled_from(("iova", "site", "n")),
                              st.integers(-3, 3), max_size=2)),
    st.tuples(st.just("begin"), _categories, _names),
    st.tuples(st.just("end"), st.integers(0, 3)),
    st.tuples(st.just("count"), _categories, _names, st.integers(-2, 5)),
    st.tuples(st.just("observe"), _categories, _names,
              st.one_of(st.integers(-2, 3000),
                        st.floats(-1.0, 1e4, allow_nan=False))),
    st.tuples(st.just("tail"), st.integers(-1, 10)),
    st.tuples(st.just("advance"), st.floats(0.0, 50.0)))


@settings(max_examples=400, deadline=None)
@given(capacity=st.integers(1, 8),
       categories=st.one_of(st.none(),
                            st.sets(st.sampled_from(CATEGORIES),
                                    min_size=1).map(sorted)),
       ops=st.lists(_ops, max_size=40))
def test_recorder_matches_reference(capacity, categories, ops):
    """The tuple-event, ``maxlen``-ring recorder, driven through the
    module hooks the instrumented layers call, reproduces the old
    recorder event for event."""
    clock = SimClock()
    reference = ReferenceRecorder(capacity=capacity,
                                  categories=categories, clock=clock)
    recorder = trace.install(TraceRecorder(
        capacity=capacity, categories=categories, clock=clock))
    seen_ref, seen_new = [], []
    reference.add_observer(lambda e: seen_ref.append(e.to_json()))
    recorder.add_observer(lambda e: seen_new.append(e.to_json()))
    spans_ref, spans_new = [], []
    try:
        for op in ops:
            kind = op[0]
            if kind == "emit":
                _, category, name, phase, args = op
                assert _outcome(lambda: trace.emit(
                    category, name, phase=phase, **args)) == \
                    _outcome(lambda: reference.emit(
                        category, name, phase=phase, **args))
            elif kind == "begin":
                _, category, name = op
                got = _outcome(lambda: recorder.begin(category, name))
                want = _outcome(lambda: reference.begin(category, name))
                assert type(got) is type(want)
                if isinstance(got, tuple):
                    assert got == want
                elif got is not None:
                    spans_new.append(got)
                    spans_ref.append(want)
            elif kind == "end":
                if spans_new:
                    index = op[1] % len(spans_new)
                    assert _outcome(lambda: recorder.end(
                        spans_new[index])) == _outcome(
                        lambda: reference.end(spans_ref[index]))
            elif kind == "count":
                _, category, name, delta = op
                trace.count(category, name, delta)
                reference.count(category, name, delta)
            elif kind == "observe":
                _, category, name, value = op
                trace.observe(category, name, value)
                reference.observe(category, name, value)
            elif kind == "tail":
                assert _outcome(lambda: recorder.tail(op[1])) == \
                    _outcome(lambda: reference.tail(op[1]))
            else:
                clock.advance_us(op[1])
            assert trace.last_seq() == reference.last_seq()
        assert _state(recorder) == _state(reference)
        assert seen_new == seen_ref
    finally:
        trace.uninstall()
