"""The IOTLB: a translation cache the hardware does NOT keep coherent.

"The IOMMU does not maintain consistency between the IOTLB and the IOMMU
page tables. As a result, the OS has to explicitly invalidate the IOTLB"
(section 5.2.1). A cached entry therefore remains usable by the device
after the page-table entry is removed, until the OS invalidates it --
the deferred-invalidation vulnerability.

Geometry (capacity, associativity, replacement policy) comes from the
active :class:`~repro.backends.spec.IommuBackend`. The default
``intel-vtd`` model is a 4096-entry fully-associative LRU cache -- one
set, behaviorally identical to the pre-backend implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults
from repro.backends import DEFAULT_BACKEND, IommuBackend
from repro.iommu.domain import IovaEntry

#: Cycle costs from the paper (section 5.2.1): an IOTLB invalidation is
#: ~2000 cycles on the default (Intel VT-d) backend, versus ~100 for a
#: CPU TLB invalidation. Per-backend costs live in the backend spec.
IOTLB_INVALIDATION_CYCLES = DEFAULT_BACKEND.invalidation_cycles
TLB_INVALIDATION_CYCLES = 100

DEFAULT_CAPACITY = DEFAULT_BACKEND.iotlb_capacity

#: Multiplier spreading (domain, pfn) keys across sets; any odd
#: constant works, this one is the classic string-hash prime.
_SET_HASH_PRIME = 1_000_003


@dataclass
class IotlbStats:
    hits: int = 0
    misses: int = 0
    stale_hits: int = 0
    invalidations: int = 0
    global_flushes: int = 0
    evictions: int = 0


class Iotlb:
    """Set-associative translation cache keyed by (domain_id, iova_pfn).

    Each set is a plain dict used as an LRU: insertion order is
    recency order, a delete + reinsert is move-to-end, and the first
    key is the LRU victim -- all O(1), no OrderedDict link juggling on
    every ring-buffer DMA translation. Under ``replacement="fifo"``
    hits do not refresh recency, so the first key is the oldest
    insertion instead.
    """

    def __init__(self, *, capacity: int | None = None,
                 associativity: int | None = None,
                 replacement: str | None = None,
                 backend: IommuBackend | None = None) -> None:
        spec = backend if backend is not None else DEFAULT_BACKEND
        if capacity is None:
            capacity = spec.iotlb_capacity
        if backend is not None and associativity is None:
            associativity = spec.iotlb_associativity
        if replacement is None:
            replacement = spec.iotlb_replacement
        if capacity <= 0:
            raise ValueError(f"bad IOTLB capacity {capacity}")
        ways = capacity if associativity is None else associativity
        if ways <= 0 or capacity % ways != 0:
            raise ValueError(
                f"bad IOTLB associativity {associativity} for "
                f"capacity {capacity}")
        if replacement not in ("lru", "fifo"):
            raise ValueError(f"bad IOTLB replacement {replacement!r}")
        self._capacity = capacity
        self._ways = ways
        self._nr_sets = capacity // ways
        self._lru = replacement == "lru"
        self._sets: list[dict[tuple[int, int], IovaEntry]] = [
            {} for _ in range(self._nr_sets)]
        self.stats = IotlbStats()

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def nr_sets(self) -> int:
        return self._nr_sets

    @property
    def ways(self) -> int:
        return self._ways

    @property
    def replacement(self) -> str:
        return "lru" if self._lru else "fifo"

    @property
    def nr_entries(self) -> int:
        if self._nr_sets == 1:
            return len(self._sets[0])
        return sum(len(entries) for entries in self._sets)

    def _set_of(self, domain_id: int,
                iova_pfn: int) -> dict[tuple[int, int], IovaEntry]:
        if self._nr_sets == 1:
            return self._sets[0]
        return self._sets[
            (domain_id * _SET_HASH_PRIME + iova_pfn) % self._nr_sets]

    def lookup(self, domain_id: int, iova_pfn: int) -> IovaEntry | None:
        key = (domain_id, iova_pfn)
        entries = self._set_of(domain_id, iova_pfn)
        entry = entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if self._lru:
            del entries[key]
            entries[key] = entry
        self.stats.hits += 1
        return entry

    def insert(self, domain_id: int, entry: IovaEntry) -> None:
        key = (domain_id, entry.iova_pfn)
        entries = self._set_of(domain_id, entry.iova_pfn)
        if key in entries:
            del entries[key]
        entries[key] = entry
        while len(entries) > self._ways:
            del entries[next(iter(entries))]
            self.stats.evictions += 1
        if "iommu.iotlb.evict" in faults.active_sites:
            firing = faults.fires("iommu.iotlb.evict")
            if firing is not None:
                self.force_evict(firing.arg or 0.5)

    def force_evict(self, fraction: float) -> int:
        """Evict the coldest *fraction* of entries (an adversarial
        eviction storm: only costs later misses, never correctness)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(
                f"force_evict fraction must be within [0, 1], "
                f"got {fraction!r}")
        total = self.nr_entries
        victims = max(1, int(total * fraction)) if total else 0
        remaining = victims
        for entries in self._sets:
            while remaining > 0 and entries:
                del entries[next(iter(entries))]
                self.stats.evictions += 1
                remaining -= 1
        return victims

    def invalidate(self, domain_id: int, iova_pfn: int) -> bool:
        """Invalidate one entry; True if it was cached."""
        self.stats.invalidations += 1
        entries = self._set_of(domain_id, iova_pfn)
        return entries.pop((domain_id, iova_pfn), None) is not None

    def flush_all(self) -> int:
        """Global invalidation; returns the number of entries dropped."""
        dropped = self.nr_entries
        for entries in self._sets:
            entries.clear()
        self.stats.global_flushes += 1
        return dropped

    def contains(self, domain_id: int, iova_pfn: int) -> bool:
        """Non-perturbing membership test (no stats, no LRU update)."""
        return (domain_id, iova_pfn) in self._set_of(domain_id, iova_pfn)

    def __len__(self) -> int:
        return self.nr_entries
