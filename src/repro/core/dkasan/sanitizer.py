"""The D-KASAN sanitizer (section 4.2).

"We modified KASAN to record DMA-map operations in addition to memory
allocations." The sanitizer subscribes to the allocator and DMA API
event streams (:class:`repro.mem.accounting.MemEventSink`) and reports:

1. **alloc-after-map** -- a kmalloc object is allocated from a mapped
   page;
2. **map-after-alloc** -- the containing page is mapped after an
   object was allocated (the object was not the mapped buffer);
3. **access-after-map** -- the CPU accesses a DMA-mapped page;
4. **multiple-map** -- an object/page is mapped multiple times with
   possibly different permissions.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

from repro import metrics, trace
from repro.core.dkasan.shadow import ShadowMemory, ShadowState
from repro.mem.accounting import AllocSite, MemEventSink
from repro.mem.phys import PAGE_SHIFT, PAGE_SIZE

EVENT_KINDS = ("alloc-after-map", "map-after-alloc", "access-after-map",
               "multiple-map",
               # device-side extensions (section 5.2.1's consequences):
               # a DMA that only worked because of a stale IOTLB entry,
               # and a DMA that touched memory already freed/reused
               "device-access-after-unmap", "device-access-after-free")


@dataclass(frozen=True)
class DKasanEvent:
    """One sanitizer finding."""

    kind: str
    size: int
    perms: tuple[str, ...]      # DMA access rights exposing the memory
    site: AllocSite             # the allocating (or accessing) location
    pfn: int
    device: str

    def render(self) -> str:
        perms = ", ".join(self.perms)
        return f"size {self.size} [{perms}] {self.site}"


@dataclass(eq=False)
class _LiveWindow:
    """One live DMA mapping as D-KASAN sees it; compared by identity,
    so an unmap removes exactly the window its map added."""

    paddr: int
    size: int
    perm: str
    device: str
    site: AllocSite

    @property
    def pfns(self) -> range:
        return range(self.paddr >> PAGE_SHIFT,
                     ((self.paddr + self.size - 1) >> PAGE_SHIFT) + 1)

    def contains_object(self, paddr: int, size: int) -> bool:
        """Whether [paddr, paddr+size) is (inside) the mapped buffer."""
        return self.paddr <= paddr and \
            paddr + size <= self.paddr + self.size


@dataclass
class _LiveObject:
    paddr: int
    size: int
    site: AllocSite

    @property
    def pfns(self) -> range:
        return range(self.paddr >> PAGE_SHIFT,
                     ((self.paddr + self.size - 1) >> PAGE_SHIFT) + 1)


class DKasan(MemEventSink):
    """Runtime detector of dynamic sub-page exposures.

    Pass an instance as the ``sink`` when constructing a
    :class:`repro.sim.kernel.Kernel`; every allocator and DMA event is
    then checked.
    """

    def __init__(self, phys_bytes: int) -> None:
        self.shadow = ShadowMemory(phys_bytes)
        self.events: list[DKasanEvent] = []
        self._windows_by_pfn: dict[int, list[_LiveWindow]] = \
            defaultdict(list)
        self._objects_by_pfn: dict[int, list[_LiveObject]] = \
            defaultdict(list)
        self._objects_by_paddr: dict[int, _LiveObject] = {}
        #: throttle duplicate access-after-map floods per (site, pfn)
        self._access_seen: set[tuple[str, int]] = set()
        # most recently constructed sanitizer owns the metrics slot
        # (same last-boot-wins rule as the kernel collector)
        metrics.observe_dkasan(self)

    # -- helpers -------------------------------------------------------------

    def _active_perms(self, pfn: int) -> tuple[str, ...]:
        return tuple(sorted({w.perm
                             for w in self._windows_by_pfn.get(pfn, ())}))

    def _emit(self, kind: str, size: int, perms: tuple[str, ...],
              site: AllocSite, pfn: int, device: str) -> None:
        self.events.append(DKasanEvent(kind, size, perms, site, pfn,
                                       device))
        if "dkasan" in trace.active_categories:
            # trigger_seq cross-references the tracepoint (dma map,
            # device access, ...) whose handling raised this finding --
            # the most recent event in the flight recorder.
            trace.emit("dkasan", kind, size=size,
                       perms=list(perms), site=str(site), pfn=pfn,
                       device=device, trigger_seq=trace.last_seq())

    # -- MemEventSink implementation -------------------------------------------

    def on_alloc(self, paddr: int, size: int, site: AllocSite) -> None:
        obj = _LiveObject(paddr, size, site)
        self._objects_by_paddr[paddr] = obj
        for pfn in obj.pfns:
            self._objects_by_pfn[pfn].append(obj)
            exposing = [w for w in self._windows_by_pfn.get(pfn, ())
                        if not w.contains_object(paddr, size)]
            if exposing:
                perms = tuple(sorted({w.perm for w in exposing}))
                self._emit("alloc-after-map", size, perms, site, pfn,
                           exposing[0].device)
        self.shadow.poison_range(paddr, size, ShadowState.ALLOCATED)

    def on_free(self, paddr: int, size: int) -> None:
        obj = self._objects_by_paddr.pop(paddr, None)
        if obj is None:
            return
        for pfn in obj.pfns:
            try:
                self._objects_by_pfn[pfn].remove(obj)
            except ValueError:
                pass
        self.shadow.poison_range(paddr, size, ShadowState.FREED)

    def on_dma_map(self, paddr: int, size: int, perm: str,
                   device: str, site: AllocSite) -> None:
        window = _LiveWindow(paddr, size, perm, device, site)
        for page in window.pfns:
            existing = self._windows_by_pfn[page]
            if existing:
                # the page is now reachable through several mappings,
                # with the union of their permissions
                perms = tuple(sorted({w.perm for w in existing}
                                     | {perm}))
                for obj in self._objects_by_pfn.get(page, ()):
                    self._emit("multiple-map", obj.size, perms, obj.site,
                               page, device)
                if not self._objects_by_pfn.get(page):
                    self._emit("multiple-map", PAGE_SIZE, perms, site,
                               page, device)
            for obj in self._objects_by_pfn.get(page, ()):
                # the mapped buffer itself is *supposed* to be mapped;
                # only co-located bystanders are findings
                if window.contains_object(obj.paddr, obj.size):
                    continue
                self._emit("map-after-alloc", obj.size, (perm,),
                           obj.site, page, device)
            existing.append(window)

    def on_dma_unmap(self, paddr: int, size: int, device: str) -> None:
        first = paddr >> PAGE_SHIFT
        last = (paddr + size - 1) >> PAGE_SHIFT
        victim = None
        for page in range(first, last + 1):
            windows = self._windows_by_pfn[page]
            for window in windows:
                if window is victim or victim is None \
                        and window.paddr == paddr and window.size == size \
                        and window.device == device:
                    victim = window
                    windows.remove(window)
                    break

    def on_cpu_access(self, paddr: int, size: int, write: bool,
                      site: AllocSite) -> None:
        pfn = paddr >> PAGE_SHIFT
        perms = self._active_perms(pfn)
        if not perms:
            return
        key = (site.function, pfn)
        if key in self._access_seen:
            return
        self._access_seen.add(key)
        self._emit("access-after-map", size, perms, site,
                   pfn, self._windows_by_pfn[pfn][0].device)

    def on_device_access(self, paddr: int, size: int, write: bool,
                         device: str, stale: bool) -> None:
        """Device-side checks (not in the paper's tool, which hooked
        only CPU-side events; the IOMMU model makes these visible):

        * ``device-access-after-unmap``: the translation used was a
          stale IOTLB entry -- the deferred-invalidation window in
          action (Figure 6);
        * ``device-access-after-free``: the accessed bytes belong to a
          freed (possibly already reused) object -- the hot-page-reuse
          hazard of section 5.2.1.
        """
        kind = "write" if write else "read"
        site = AllocSite(f"dma_{kind}:{device}")
        perms = ("WRITE",) if write else ("READ",)
        if stale:
            self._emit("device-access-after-unmap", size, perms, site,
                       paddr >> PAGE_SHIFT, device)
        if self.shadow.any_state_in(paddr, size, ShadowState.FREED):
            self._emit("device-access-after-free", size, perms, site,
                       paddr >> PAGE_SHIFT, device)

    # -- reporting ---------------------------------------------------------------

    def events_of(self, kind: str) -> list[DKasanEvent]:
        return [e for e in self.events if e.kind == kind]

    def detected_site_functions(self, *,
                                kinds: tuple[str, ...] | None = None
                                ) -> set[str]:
        """Site-function names that triggered at least one event.

        The campaign replay encodes ``path:line`` manifest identities
        as the site-function string, so this set is the join key that
        turns runtime events back into per-call-site detections.
        """
        return {e.site.function for e in self.events
                if kinds is None or e.kind in kinds}

    def summary_counts(self) -> Counter:
        return Counter(e.kind for e in self.events)

    def unique_findings(self) -> list[tuple[DKasanEvent, int]]:
        """Events deduplicated by (kind, size, perms, site), with counts."""
        buckets: dict[tuple, list[DKasanEvent]] = defaultdict(list)
        for event in self.events:
            buckets[(event.kind, event.size, event.perms,
                     str(event.site))].append(event)
        return [(items[0], len(items)) for items in buckets.values()]
