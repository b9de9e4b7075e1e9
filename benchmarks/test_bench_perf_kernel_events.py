"""Perf: event rates of the hottest simulator paths (E18).

The two structures the perf pass rewrote: the IOTLB (plain-dict LRU,
O(1) move-to-end) and the page_frag cache (dict-keyed fragments, O(1)
free). The IOTLB rate is taken once per registered backend model, at
one capacity, so it compares set geometry and replacement policy side
by side. Tracing is off, so these also pin the no-op tracepoint cost.
"""

import pytest

from repro import trace
from repro.backends import backend_names, resolve_backend
from repro.iommu.domain import IovaEntry
from repro.iommu.iotlb import Iotlb
from repro.iommu.perms import DmaPerm
from repro.mem.buddy import BuddyAllocator
from repro.mem.page_frag import PageFragCache
from repro.mem.phys import PhysicalMemory
from repro.mem.virt import IdentityTranslator

NR_EVENTS = 50_000


@pytest.mark.parametrize("backend", backend_names())
def test_iotlb_event_rate(benchmark, backend):
    assert trace.active() is None
    spec = resolve_backend(backend)
    entries = [IovaEntry(pfn, pfn + 1, DmaPerm.BIDIRECTIONAL)
               for pfn in range(512)]

    def iotlb_round():
        # capacity pinned across backends: the rate measures each
        # model's set geometry and replacement policy, not its size
        iotlb = Iotlb(capacity=256,
                      associativity=spec.iotlb_associativity,
                      replacement=spec.iotlb_replacement)
        for i in range(NR_EVENTS):
            entry = entries[i % 512]
            if iotlb.lookup(7, entry.iova_pfn) is None:
                iotlb.insert(7, entry)
        return iotlb

    iotlb = benchmark(iotlb_round)
    assert iotlb.stats.hits + iotlb.stats.misses == NR_EVENTS
    assert iotlb.stats.evictions > 0  # the LRU path was exercised
    benchmark.extra_info["events_per_s"] = round(
        NR_EVENTS / benchmark.stats.stats.min)


def test_page_frag_event_rate(benchmark):
    assert trace.active() is None

    def frag_round():
        phys = PhysicalMemory(16384)
        buddy = BuddyAllocator(phys, reserved_low_pages=16)
        cache = PageFragCache(buddy, IdentityTranslator())
        live = []
        for _ in range(NR_EVENTS):
            live.append(cache.alloc(1856))
            if len(live) >= 8:
                cache.free(live.pop(0))
        return len(live)

    assert benchmark(frag_round) < 8 + 1
    benchmark.extra_info["events_per_s"] = round(
        NR_EVENTS / benchmark.stats.stats.min)
