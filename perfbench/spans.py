"""Outside-in span recorder for the benchmark's traced runs.

The benchmark measures per-layer cost without changing the program:
:func:`installed` replaces public entry points of ``repro``'s modules
with thin wrappers that open and close a span around each call, and
puts the originals back when the traced run ends. A span is
``[name, layer, start, end, parent, seed, weight]``; spans stay in
memory and are summarized once the run is over.

Seeds are the unit of the per-seed tables. In a campaign, entering
``runner.run_seed`` closes the previous seed's root span and opens the
next, so what the runner does between two seeds (appending the record,
folding coverage into the map) is charged to the seed it belongs to.
Work done once per campaign (start-up, ``CoverageMap.save`` in
``finish()``) lies outside every seed and goes to the run table.
A layer's self time is its spans' duration minus the time their child
spans cover; summed over a seed, the self times equal the seed span,
and the run table plus every seed equals the run span.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

#: span fields, by position
NAME, LAYER, START, END, PARENT, SEED, WEIGHT = range(7)


class Recorder:
    """Spans of one traced run, kept in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: id of the open per-seed root span's seed, else None
        self.seed: int | None = None
        self._root: int | None = None
        self._nr_seeds = 0

    def open(self, name: str, layer: str, now: float | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, layer,
                           self.clock() if now is None else now, None,
                           parent, self.seed, 1])
        self._stack.append(index)
        return index

    def close(self, index: int, now: float | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed "
                               f"out of order")
        self._stack.pop()
        self.spans[index][END] = self.clock() if now is None else now

    def parent_layer(self, index: int) -> str | None:
        parent = self.spans[index][PARENT]
        return None if parent is None else self.spans[parent][LAYER]

    def begin_seed(self, name: str, layer: str) -> None:
        """Close the running seed's root span and open the next one at
        the same instant, so consecutive seeds tile the run. A seed's
        root span is a child of whatever span is open outside it."""
        now = self.clock()
        self.end_seed(now)
        self.seed = self._nr_seeds
        self._nr_seeds += 1
        self._root = self.open(name, layer, now)

    def end_seed(self, now: float | None = None) -> None:
        if self._root is not None:
            self.close(self._root, now)
            self._root = None
            self.seed = None


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span."""

    owner: object        # the module or class the caller looks it up in
    attr: str
    layer: str
    #: "span" (plain), "seed" (starts a seed), "run" (ends the running
    #: seed: once-per-run work), or "cache" (the wrapped call's
    #: ``compute`` argument is charged back to the caller's layer)
    kind: str = "span"
    #: result -> span weight (default 1: the span counts one call)
    weight: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.owner.__name__.rsplit('.', 1)[-1]}.{self.attr}"


def _wrap(recorder: Recorder, target: Target, fn: Callable) -> Callable:
    name, layer, weight = target.name, target.layer, target.weight
    open_, close = recorder.open, recorder.close

    if target.kind == "cache":
        @functools.wraps(fn)
        def cached(cache, namespace, key, compute, **kwargs):
            index = open_(name, layer)
            caller = recorder.parent_layer(index) or layer

            def timed_compute():
                inner = open_(f"{name}.compute", caller)
                try:
                    return compute()
                finally:
                    close(inner)
            try:
                return fn(cache, namespace, key, timed_compute, **kwargs)
            finally:
                close(index)
        return cached

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.kind == "seed":
            recorder.begin_seed("seed", layer)
        elif target.kind == "run":
            recorder.end_seed()
        index = open_(name, layer)
        try:
            result = fn(*args, **kwargs)
            if weight is not None:
                recorder.spans[index][WEIGHT] = weight(result)
            return result
        finally:
            close(index)
    return wrapper


@contextmanager
def installed(recorder: Recorder, targets: list[Target]):
    """Wrap every target for the duration of the block, then put each
    original object back. Targets are defined on their owner itself,
    so restoring is a plain assignment."""
    saved = []
    try:
        for target in targets:
            original = vars(target.owner)[target.attr]
            saved.append((target, original))
            setattr(target.owner, target.attr,
                    _wrap(recorder, target, original))
        yield recorder
    finally:
        for target, original in reversed(saved):
            setattr(target.owner, target.attr, original)


def campaign_targets() -> list[Target]:
    """Every layer a differential-campaign seed passes through, wrapped
    where its caller looks it up."""
    from repro.campaign import mutate, runner, snapshot
    from repro.core.dkasan import sanitizer
    from repro.coverage import signature, store
    from repro.sim import kernel, workload

    dkasan = sanitizer.DKasan
    return [
        Target(runner, "run_seed", "campaign.runner", kind="seed"),
        Target(runner, "run_differential", "campaign.oracle"),
        Target(runner, "append_record", "durability"),
        Target(mutate.CorpusMutator, "derive", "campaign.mutate"),
        Target(snapshot, "materialize", "campaign.snapshot"),
        *spade_targets(),
        Target(kernel.Kernel, "__init__", "sim.kernel"),
        Target(workload, "run_manifest_replay", "sim.workload",
               weight=lambda stats: stats.sites_replayed),
        Target(dkasan, "__init__", "core.dkasan"),
        *(Target(dkasan, attr, "core.dkasan") for attr in DKASAN_SINKS),
        Target(signature.CoverageCollector, "feed", "coverage"),
        Target(signature.CoverageCollector, "record", "coverage"),
        Target(store.CoverageMap, "observe_record", "coverage"),
        Target(store.CoverageMap, "save", "durability", kind="run"),
    ]


def spade_targets() -> list[Target]:
    """The SPADE stack alone: analysis, parser, tokenizer, cache."""
    from repro import perfcache
    from repro.core.spade import analyzer, cindex, cparse

    return [
        Target(analyzer.Spade, "__init__", "core.spade"),
        Target(analyzer.Spade, "analyze", "core.spade"),
        Target(cindex, "parse_file", "core.spade.cparse"),
        Target(cparse, "tokenize", "core.spade.ctokens"),
        Target(perfcache.PerfCache, "cached", "perfcache", kind="cache"),
    ]


#: the six D-KASAN sink callbacks the simulated kernel drives
DKASAN_SINKS = ("on_alloc", "on_free", "on_dma_map", "on_dma_unmap",
                "on_cpu_access", "on_device_access")

#: exact per-seed counts: metric -> span names whose weights it sums
COUNTS = {
    "core.spade.cparse.calls": ("cindex.parse_file",),
    "sim.workload.sites": ("workload.run_manifest_replay",),
    "core.dkasan.calls": tuple(f"DKasan.{attr}" for attr in DKASAN_SINKS),
    "coverage.events": ("CoverageCollector.feed",),
    "durability.appends": ("runner.append_record",),
}


def _self_ms(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover, ms."""
    covered = defaultdict(float)
    for span in spans:
        if span[END] is None:
            raise RuntimeError(f"span {span[NAME]!r} never closed")
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[END] - span[START]
    return [(span[END] - span[START] - covered[index]) * 1e3
            for index, span in enumerate(spans)]


def seed_tables(spans: list[list]) -> list[dict]:
    """Per seed: wall ms of its root span, self ms and wrapped calls per
    layer, and the summed weight per span name. Spans outside any seed
    belong to :func:`run_table`."""
    self_ms = _self_ms(spans)
    seeds: dict[int, dict] = {}
    for index, span in enumerate(spans):
        if span[SEED] is None:
            continue
        table = seeds.setdefault(span[SEED], {
            "wall_ms": 0.0, "self_ms": Counter(), "calls": Counter(),
            "counts": Counter()})
        parent = span[PARENT]
        if parent is None or spans[parent][SEED] != span[SEED]:
            table["wall_ms"] = (span[END] - span[START]) * 1e3
        elif not span[NAME].endswith(".compute"):
            table["calls"][span[LAYER]] += 1
        table["self_ms"][span[LAYER]] += self_ms[index]
        table["counts"][span[NAME]] += span[WEIGHT]
    return [{key: dict(value) if isinstance(value, Counter) else value
             for key, value in table.items()}
            for _seed, table in sorted(seeds.items())]


def run_table(spans: list[list]) -> dict:
    """Self ms per layer of the spans outside every seed: the work a
    campaign does once, not once per seed."""
    self_ms = _self_ms(spans)
    table: Counter = Counter()
    for index, span in enumerate(spans):
        if span[SEED] is None:
            table[span[LAYER]] += self_ms[index]
    return dict(table)


def _run_median(run_tables: list[dict], layer: str) -> float:
    return statistics.median(run.get(layer, 0.0) for run in run_tables) \
        if run_tables else 0.0


def layer_medians(tables: list[dict], layers: list[str],
                  run_tables: list[dict] = (), nr_seeds: int = 1) -> dict:
    """``<layer>.self_ms``: the per-seed median plus the once-per-run
    self time (median over *run_tables*) spread over the run's
    *nr_seeds* seeds; and the exact per-seed counts."""
    out = {}
    for layer in layers:
        out[f"{layer}.self_ms"] = statistics.median(
            table["self_ms"].get(layer, 0.0) for table in tables) \
            + _run_median(run_tables, layer) / nr_seeds
    for metric, names in COUNTS.items():
        out[metric] = statistics.median(
            sum(table["counts"].get(name, 0) for name in names)
            for table in tables)
    return out


def stage_table(tables: list[dict], layers: list[str],
                run_tables: list[dict] = ()) -> str:
    """Per layer: per-seed median ms, once-per-run median ms, share of
    traced wall time, calls/seed."""
    wall = sum(table["wall_ms"] for table in tables) \
        + sum(sum(run.values()) for run in run_tables) or 1.0
    lines = [f"{'layer':<22}{'ms/seed p50':>12}{'ms/run':>9}{'share':>8}"
             f"{'calls/seed':>12}"]
    for layer in layers:
        total = sum(table["self_ms"].get(layer, 0.0) for table in tables) \
            + sum(run.get(layer, 0.0) for run in run_tables)
        median = statistics.median(table["self_ms"].get(layer, 0.0)
                                   for table in tables)
        calls = sum(table["calls"].get(layer, 0) for table in tables)
        lines.append(f"{layer:<22}{median:>12.3f}"
                     f"{_run_median(run_tables, layer):>9.1f}"
                     f"{total / wall:>8.1%}{calls / len(tables):>12.1f}")
    return "\n".join(lines)
