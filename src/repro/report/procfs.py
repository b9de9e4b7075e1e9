"""``/proc``-style snapshot renderers for the metrics layer.

The registry's Prometheus/JSON exports are machine food; these
renderers are the human view -- the same resident stats structs
formatted the way a kernel developer would expect to read them:
``render_meminfo`` after ``/proc/meminfo``, ``render_netdev`` after
``/proc/net/dev``, and ``iommu``/``dkasan``/``cache`` stat blocks in
the two-column style of ``/proc/<subsystem>/stats`` files.

Everything here is pull-model and read-only: renderers take the live
objects (a booted :class:`~repro.sim.kernel.Kernel`, a
:class:`~repro.core.dkasan.DKasan`) and never mutate them.
"""

from __future__ import annotations

from repro.mem.phys import PAGE_SIZE

#: width of the name column in two-column stat blocks
_NAME_WIDTH = 24


def _row(name: str, value, unit: str = "") -> str:
    suffix = f" {unit}" if unit else ""
    return f"{name + ':':<{_NAME_WIDTH}}{value:>12}{suffix}"


def render_meminfo(kernel) -> str:
    """An allocator snapshot in the shape of ``/proc/meminfo``."""
    buddy = kernel.buddy
    slab = kernel.slab
    frag_allocs = frag_frees = frag_refills = frag_live = 0
    for cache in kernel.page_frag.caches():
        frag_allocs += cache.nr_allocs
        frag_frees += cache.nr_frees
        frag_refills += cache.nr_refills
        frag_live += cache.nr_live_frags
    skb = kernel.skb_alloc.stats
    lines = [
        "meminfo:",
        _row("MemTotal", kernel.phys.size_bytes // 1024, "kB"),
        _row("MemFree", buddy.nr_free_pages * PAGE_SIZE // 1024, "kB"),
        _row("BuddyAllocs", buddy.nr_allocs),
        _row("BuddyFrees", buddy.nr_frees),
        _row("SlabKmallocs", slab.nr_kmallocs),
        _row("SlabKfrees", slab.nr_kfrees),
        _row("SlabLiveObjects", slab.nr_live_objects),
        _row("PageFragAllocs", frag_allocs),
        _row("PageFragFrees", frag_frees),
        _row("PageFragRefills", frag_refills),
        _row("PageFragLive", frag_live),
        _row("SkbAllocs", skb.skb_allocs),
        _row("SkbFrees", skb.skb_frees),
        _row("SkbRxBufferAllocs", skb.rx_buffer_allocs),
    ]
    return "\n".join(lines)


def render_iommu_stats(kernel) -> str:
    """IOMMU / IOTLB / invalidation-policy counters as a stat block."""
    from repro.backends import backend_label

    iommu = kernel.iommu
    iotlb = iommu.iotlb.stats
    stats = iommu.stats
    inv = iommu.policy.stats
    # the header grows a backend tag only off the default model, so
    # the pre-backend snapshot text stays byte-identical
    label = backend_label(getattr(iommu, "backend", None))
    header = f"iommu_stats: (mode={iommu.mode})" if label is None \
        else f"iommu_stats: (mode={iommu.mode} backend={label})"
    lines = [
        header,
        _row("IotlbHits", iotlb.hits),
        _row("IotlbMisses", iotlb.misses),
        _row("IotlbStaleHits", iotlb.stale_hits),
        _row("IotlbInvalidations", iotlb.invalidations),
        _row("IotlbGlobalFlushes", iotlb.global_flushes),
        _row("IotlbEvictions", iotlb.evictions),
        _row("IotlbEntries", iommu.iotlb.nr_entries),
        _row("DeviceReads", stats.device_reads),
        _row("DeviceWrites", stats.device_writes),
        _row("BytesRead", stats.bytes_read),
        _row("BytesWritten", stats.bytes_written),
        _row("Faults", stats.faults),
        _row("StaleTranslations", stats.stale_translations),
        _row("Unmaps", inv.unmaps),
        _row("SyncInvalidations", inv.sync_invalidations),
        _row("DeferredInvalidations", inv.deferred_invalidations),
        _row("FlushQueueDrains", inv.flushes),
        _row("FlushQueueDepth", getattr(iommu.policy, "nr_pending", 0)),
        _row("InvalidationCycles", inv.cycles_spent),
    ]
    return "\n".join(lines)


def render_netdev(kernel) -> str:
    """Per-NIC counters in the spirit of ``/proc/net/dev``."""
    header = (f"{'Interface':<10}{'rx_pkts':>10}{'tx_pkts':>10}"
              f"{'tx_tmout':>10}{'ring_rst':>10}{'rx_occ':>8}"
              f"{'tx_infl':>8}")
    lines = ["netdev:", header]
    for name in sorted(kernel.nics):
        nic = kernel.nics[name]
        stats = nic.stats
        rx_posted = sum(len(ring.posted_descriptors())
                        for ring in nic.rx_rings.values())
        tx_inflight = sum(1 for ring in nic.tx_rings.values()
                          for desc in ring.descriptors
                          if desc.posted and not desc.completed)
        lines.append(f"{name:<10}{stats.rx_packets:>10}"
                     f"{stats.tx_packets:>10}{stats.tx_timeouts:>10}"
                     f"{stats.rx_ring_resets:>10}{rx_posted:>8}"
                     f"{tx_inflight:>8}")
    stack = kernel.stack.stats
    lines += [
        _row("StackRxDelivered", stack.rx_delivered),
        _row("StackEchoed", stack.echoed),
        _row("StackForwarded", stack.forwarded),
        _row("StackDropped", stack.dropped),
        _row("StackSkbsFreed", stack.skbs_freed),
        _row("StackZerocopyCbs", stack.zerocopy_callbacks),
        _row("StackOopses", stack.oopses),
    ]
    return "\n".join(lines)


def render_dkasan_stats(dkasan) -> str:
    """D-KASAN findings by class, zero-filled over every known kind."""
    from repro.core.dkasan.sanitizer import EVENT_KINDS
    counts = dkasan.summary_counts()
    lines = ["dkasan_stats:"]
    lines += [_row(kind, counts.get(kind, 0)) for kind in EVENT_KINDS]
    lines.append(_row("total", len(dkasan.events)))
    return "\n".join(lines)


def render_cache_stats(usages, totals) -> str:
    """Perfcache disk footprint + aggregated effectiveness counters.

    *usages* is the per-namespace disk footprint
    (:meth:`~repro.perfcache.PerfCache.disk_usage`); *totals* is the
    cross-process sum of persisted :class:`~repro.perfcache.CacheStats`
    (:meth:`~repro.perfcache.PerfCache.aggregate_persisted_stats`).
    """
    lines = ["cache_stats:"]
    if usages:
        lines.append(f"{'Namespace':<12}{'entries':>10}{'bytes':>14}")
        for usage in usages:
            lines.append(f"{usage.namespace:<12}{usage.entries:>10}"
                         f"{usage.bytes:>14}")
    else:
        lines.append("  (no disk tier)")
    lines += [
        _row("MemoryHits", totals.memory_hits),
        _row("DiskHits", totals.disk_hits),
        _row("Misses", totals.misses),
        _row("Stores", totals.stores),
        _row("Bypasses", totals.bypasses),
        _row("CorruptRecovered", totals.corrupt),
        _row("WriteErrors", totals.write_errors),
    ]
    lookups = totals.lookups
    ratio = totals.hits / lookups if lookups else 0.0
    lines.append(_row("HitRatio", f"{ratio:.3f}"))
    return "\n".join(lines)


def render_coverage_stats(cover) -> str:
    """Campaign coverage map as a ``/proc``-style stat block.

    *cover* is a :class:`repro.coverage.CoverageMap`: global feature
    totals, per-lane seed counts, and per-subsystem feature density.
    """
    lines = ["coverage_stats:"]
    nr_seeds = cover.nr_seeds
    lines.append(_row("Features", cover.nr_features))
    lines.append(_row("Seeds", nr_seeds))
    per_seed = cover.nr_features / nr_seeds if nr_seeds else 0.0
    lines.append(_row("FeaturesPerSeed", f"{per_seed:.2f}"))
    lines.append(_row("Lanes", len(cover.lanes)))
    for lane in cover.lanes:
        lines.append(_row(f"  lane {lane}", len(cover.seeds(lane)),
                          "seeds"))
    groups = cover.group_stats()
    for group in sorted(groups):
        stat = groups[group]
        lines.append(_row(f"Group_{group}",
                          f"{stat['nr_features']}/{stat['count']}",
                          "features/hits"))
    return "\n".join(lines)
