"""IOTLB invalidation policies: strict vs. deferred (Figure 6).

* **Strict** invalidates the IOTLB entry synchronously on every unmap,
  charging the backend's invalidation cost each time (~2000 cycles on
  Intel VT-d, vmexit-priced on virtio-iommu). After unmap the device
  has *no* window.
* **Deferred** (the Linux default on VT-d) queues invalidations and
  drains them on a periodic timer, amortizing the cost. The page-table
  entry is gone, but the cached translation keeps working until the
  flush: "a malicious device can take advantage of this time window,
  where it has access to memory pages unbeknownst to the CPU"
  (section 5.2.1). What a drain invalidates is backend-dependent:
  ``"domain"`` drops every cached entry (VT-d, AMD-Vi), ``"range"``
  drops exactly the queued pages with one batched cost (SMMUv3 TLBI),
  and ``"page"`` drops the queued pages paying the cost per page.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro import faults, trace
from repro.backends import DEFAULT_BACKEND, INVALIDATION_GRANULARITIES
from repro.iommu.iotlb import IOTLB_INVALIDATION_CYCLES, Iotlb
from repro.sim.clock import SimClock

#: Linux's deferred flush period upper bound cited by the paper: 10 ms
#: (the default backend's cadence; per-backend periods live in the
#: backend spec).
DEFAULT_FLUSH_PERIOD_US = DEFAULT_BACKEND.flush_period_us


@dataclass
class InvalidationStats:
    unmaps: int = 0
    sync_invalidations: int = 0
    deferred_invalidations: int = 0
    flushes: int = 0
    cycles_spent: int = 0
    delayed_flushes: int = 0  # injected fq.delay faults absorbed


class InvalidationPolicy(ABC):
    """Strategy invoked by the IOMMU core on every unmap."""

    def __init__(self, clock: SimClock, iotlb: Iotlb, *,
                 invalidation_cycles: int = IOTLB_INVALIDATION_CYCLES,
                 trace_extra: dict | None = None) -> None:
        if invalidation_cycles <= 0:
            raise ValueError(
                f"bad invalidation cost {invalidation_cycles}")
        self._clock = clock
        self._iotlb = iotlb
        self._cycles = invalidation_cycles
        # non-default backends tag their events (e.g. backend=NAME);
        # the default tags nothing, keeping pre-backend traces intact
        self._trace_extra = trace_extra or {}
        self.stats = InvalidationStats()

    @property
    def invalidation_cycles(self) -> int:
        return self._cycles

    @property
    @abstractmethod
    def name(self) -> str:
        """Policy name as it would appear in ``intel_iommu=`` options."""

    @abstractmethod
    def on_unmap(self, domain_id: int, iova_pfn: int) -> None:
        """Handle removal of a page-table entry."""

    @abstractmethod
    def max_window_us(self) -> float:
        """Upper bound on how long a stale entry may survive an unmap."""

    @abstractmethod
    def queue_post_flush(self, fn) -> None:
        """Run *fn* once the unmap is actually visible to the device.

        Linux's flush queue releases the IOVA range only after the
        IOTLB invalidation lands; modeling that here keeps freed IOVAs
        from being re-allocated while stale cached translations (with
        the *old* permissions) still cover them.
        """

    def _charge(self, cycles: int) -> None:
        self.stats.cycles_spent += cycles
        self._clock.charge_cycles(cycles)


class StrictInvalidation(InvalidationPolicy):
    """``intel_iommu=strict``: invalidate synchronously on each unmap."""

    @property
    def name(self) -> str:
        return "strict"

    def on_unmap(self, domain_id: int, iova_pfn: int) -> None:
        self.stats.unmaps += 1
        self.stats.sync_invalidations += 1
        self._iotlb.invalidate(domain_id, iova_pfn)
        if "iommu" in trace.active_categories:
            trace.emit("iommu", "inv_sync", domain=domain_id,
                       iova_pfn=iova_pfn,
                       cycles=self._cycles, **self._trace_extra)
        self._charge(self._cycles)

    def max_window_us(self) -> float:
        return 0.0

    def queue_post_flush(self, fn) -> None:
        fn()  # invalidation is synchronous; the IOVA is free right away


class DeferredInvalidation(InvalidationPolicy):
    """The Linux default: batch invalidations, flush on a timer."""

    def __init__(self, clock: SimClock, iotlb: Iotlb, *,
                 flush_period_us: float = DEFAULT_FLUSH_PERIOD_US,
                 invalidation_cycles: int = IOTLB_INVALIDATION_CYCLES,
                 granularity: str = "domain",
                 trace_extra: dict | None = None) -> None:
        super().__init__(clock, iotlb,
                         invalidation_cycles=invalidation_cycles,
                         trace_extra=trace_extra)
        if flush_period_us <= 0:
            raise ValueError(f"bad flush period {flush_period_us}")
        if granularity not in INVALIDATION_GRANULARITIES:
            raise ValueError(
                f"bad invalidation granularity {granularity!r}")
        self._flush_period_us = flush_period_us
        self._granularity = granularity
        self._pending: list[tuple[int, int]] = []
        self._post_flush: list = []
        self._timer = clock.call_every(flush_period_us, self.flush_now)

    @property
    def name(self) -> str:
        return "deferred"

    @property
    def flush_period_us(self) -> float:
        return self._flush_period_us

    @property
    def granularity(self) -> str:
        return self._granularity

    @property
    def nr_pending(self) -> int:
        return len(self._pending)

    def on_unmap(self, domain_id: int, iova_pfn: int) -> None:
        self.stats.unmaps += 1
        self.stats.deferred_invalidations += 1
        self._pending.append((domain_id, iova_pfn))
        if "iommu" in trace.active_categories:
            trace.emit("iommu", "fq_defer", domain=domain_id,
                       iova_pfn=iova_pfn, nr_pending=len(self._pending),
                       **self._trace_extra)

    def queue_post_flush(self, fn) -> None:
        self._post_flush.append(fn)

    def flush_now(self) -> None:
        """The periodic flush (cost charged per the backend's drain
        granularity: one batch cost for domain/range, per-page for
        page)."""
        if not self._pending and not self._post_flush \
                and len(self._iotlb) == 0:
            return
        if "iommu.fq.delay" in faults.active_sites \
                and faults.fires("iommu.fq.delay"):
            # Drain postponed one period: stale entries and queued IOVA
            # releases survive until the next timer tick -- exactly the
            # widened deferred-invalidation window of section 5.2.1.
            self.stats.delayed_flushes += 1
            return
        pending, self._pending = self._pending, []
        nr_pending = len(pending)
        if self._granularity == "domain":
            dropped = self._iotlb.flush_all()
            nr_charges = 1
        else:
            dropped = 0
            for domain_id, iova_pfn in pending:
                dropped += self._iotlb.invalidate(domain_id, iova_pfn)
            nr_charges = nr_pending if self._granularity == "page" else 1
        cycles = self._cycles * max(1, nr_charges)
        self.stats.flushes += 1
        if "iommu" in trace.active_categories:
            trace.emit("iommu", "fq_drain", nr_pending=nr_pending,
                       iotlb_dropped=dropped,
                       cycles=cycles, **self._trace_extra)
            trace.count("iommu", "flushes")
        self._charge(cycles)
        callbacks, self._post_flush = self._post_flush, []
        for fn in callbacks:
            fn()

    def max_window_us(self) -> float:
        return self._flush_period_us

    def shutdown(self) -> None:
        self._timer.cancel()
