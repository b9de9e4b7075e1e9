"""Typed instruments and the process-wide metrics registry.

The registry is the aggregate tier of observability: where
:mod:`repro.trace` records *individual* events into a bounded ring
(and therefore drops the oldest under pressure), the registry holds
*unbounded* counters, gauges, and pow-2 histograms -- the numbers a
production kernel exposes under ``/proc`` and a fleet alerts on. It
is the only counter tier: the flight recorder keeps none, and
``repro-dma trace`` takes its exports' counters from here.

Design notes:

* Instruments are keyed ``(subsystem, name, labels)`` where labels is
  a sorted tuple of ``(key, value)`` pairs -- a *labeled family* in
  Prometheus terms.  The same ``(subsystem, name)`` must always map to
  the same instrument kind; a collision raises
  :class:`~repro.errors.MetricsError`.
* Subsystems publish mostly via *collectors* (pull model): the cheap
  always-on stats structs the simulation already maintains (IotlbStats,
  NicStats, CacheStats, ...) are read out at :meth:`collect` time and
  written into the registry with ``set``.  The hot path therefore pays
  nothing for metrics beyond the plain integer increments it already
  performed -- which is how the ringflood event rate stays within the
  10% overhead budget.
* Push-style helpers (``counter().inc()``, ``histogram().observe()``)
  exist for wall-clock timings (SPADE parse/analyze) and campaign
  progress, where there is no resident stats struct to pull from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import MetricsError

#: Every subsystem that publishes instruments.  Exporters iterate this
#: order (then sort within) so output is deterministic.
SUBSYSTEMS = ("dma", "iommu", "net", "mem", "dkasan", "perfcache",
              "spade", "campaign", "coverage", "sim", "faults",
              "durability")

LabelItems = tuple  # tuple[tuple[str, str], ...]


def _label_items(labels: dict) -> LabelItems:
    for key in labels:
        if not key or not isinstance(key, str):
            raise MetricsError(f"bad label key: {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """A monotonically non-decreasing count (maps/unmaps, hits, ...)."""

    value: int | float = 0

    def inc(self, delta: int | float = 1) -> None:
        if delta < 0:
            raise MetricsError(f"counter increment must be >= 0, "
                               f"got {delta}")
        self.value += delta

    def set(self, value: int | float) -> None:
        """Pull-model publish: overwrite with the collected total."""
        if value < 0:
            raise MetricsError(f"counter value must be >= 0, got {value}")
        self.value = value


@dataclass
class Gauge:
    """An instantaneous level (live mappings, free pages, queue depth)."""

    value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def inc(self, delta: int | float = 1) -> None:
        self.value += delta

    def dec(self, delta: int | float = 1) -> None:
        self.value -= delta


def pow2_bucket(value: float) -> int:
    """Power-of-two bucket index: bucket ``i`` holds values in
    ``[2**(i-1), 2**i)``; bucket 0 holds values below 1 (0 and
    negatives included)."""
    return int(value).bit_length() if value >= 1 else 0


@dataclass
class Histogram:
    """Power-of-two bucketed histogram; :func:`pow2_bucket` picks each
    observation's bucket."""

    buckets: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None

    def observe(self, value: float) -> None:
        index = pow2_bucket(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(i): self.buckets[i]
                        for i in sorted(self.buckets)},
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclass
class Sample:
    """One collected instrument, flattened for export."""

    subsystem: str
    name: str
    kind: str
    labels: dict
    value: int | float | None = None      # counter / gauge
    histogram: Histogram | None = None    # histogram


class MetricsRegistry:
    """Process-wide home for every instrument.

    Collectors registered under a *slot* replace each other -- the most
    recently booted kernel owns the ``kernel`` slot, mirroring how the
    flight recorder binds to the most recently booted clock.
    """

    def __init__(self) -> None:
        self._instruments: dict[tuple, object] = {}
        self._kinds: dict[tuple[str, str], str] = {}
        self._collectors: dict[str, Callable[["MetricsRegistry"], None]] = {}
        self._nr_anonymous = 0

    # -- instrument accessors (create on first use) ----------------------

    def _instrument(self, kind: str, subsystem: str, name: str,
                    labels: dict):
        if subsystem not in SUBSYSTEMS:
            raise MetricsError(f"unknown subsystem {subsystem!r} "
                               f"(expected one of {SUBSYSTEMS})")
        family = (subsystem, name)
        known = self._kinds.get(family)
        if known is None:
            self._kinds[family] = kind
        elif known != kind:
            raise MetricsError(
                f"{subsystem}/{name} is a {known}, not a {kind}")
        key = (subsystem, name, _label_items(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = self._instruments[key] = _KINDS[kind]()
        return instrument

    def counter(self, subsystem: str, name: str, **labels) -> Counter:
        return self._instrument("counter", subsystem, name, labels)

    def gauge(self, subsystem: str, name: str, **labels) -> Gauge:
        return self._instrument("gauge", subsystem, name, labels)

    def histogram(self, subsystem: str, name: str, **labels) -> Histogram:
        return self._instrument("histogram", subsystem, name, labels)

    # -- collectors (pull model) -----------------------------------------

    def register_collector(self, collect: Callable[["MetricsRegistry"],
                                                   None],
                           *, slot: str | None = None) -> None:
        """Add a collector; a named *slot* replaces its predecessor."""
        if slot is None:
            slot = f"anonymous-{self._nr_anonymous}"
            self._nr_anonymous += 1
        self._collectors[slot] = collect

    def collect(self) -> None:
        """Run every collector, refreshing pulled instruments."""
        for collect in list(self._collectors.values()):
            collect(self)

    # -- export ----------------------------------------------------------

    def samples(self, *, collect: bool = True) -> list[Sample]:
        """Every instrument, sorted for deterministic export."""
        if collect:
            self.collect()
        order = {subsystem: i for i, subsystem in enumerate(SUBSYSTEMS)}
        out = []
        for key in sorted(self._instruments,
                          key=lambda k: (order[k[0]], k[1], k[2])):
            subsystem, name, items = key
            instrument = self._instruments[key]
            kind = self._kinds[(subsystem, name)]
            sample = Sample(subsystem=subsystem, name=name, kind=kind,
                            labels=dict(items))
            if kind == "histogram":
                sample.histogram = instrument
            else:
                sample.value = instrument.value
            out.append(sample)
        return out

    def subsystems_present(self, *, collect: bool = True) -> list[str]:
        present = {s.subsystem for s in self.samples(collect=collect)}
        return [s for s in SUBSYSTEMS if s in present]

    def __len__(self) -> int:
        return len(self._instruments)
