"""The DMA API a driver uses (section 2.3).

``dma_map_single`` takes a KVA and length, maps *every page the buffer
touches* into the device's IOVA space, and returns an IOVA whose low
bits preserve the in-page offset. That page granularity -- the API
"insinuates that only the mapped bytes are exposed, when, in fact, the
whole page is accessible" (section 9.1) -- is the sub-page vulnerability
in API form, and is reproduced exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import faults, trace
from repro.dma.tracking import MappingRegistry
from repro.errors import DmaApiError
from repro.iommu.iommu import Iommu
from repro.iommu.perms import DmaPerm
from repro.kaslr.translate import AddressSpace
from repro.mem.accounting import NULL_SINK, AllocSite, MemEventSink
from repro.mem.phys import PAGE_SHIFT, PAGE_SIZE
from repro.sim.clock import SimClock

VALID_DIRECTIONS = ("DMA_TO_DEVICE", "DMA_FROM_DEVICE", "DMA_BIDIRECTIONAL")


@dataclass(frozen=True)
class ScatterGatherEntry:
    """One element of a mapped scatter/gather list."""

    iova: int
    size: int


class DmaApi:
    """``dma_map_*`` / ``dma_unmap_*`` over the IOMMU."""

    def __init__(self, iommu: Iommu, addr_space: AddressSpace,
                 clock: SimClock, *, sink: MemEventSink = NULL_SINK) -> None:
        self._iommu = iommu
        self._addr_space = addr_space
        self._clock = clock
        self._sink = sink
        self.registry = MappingRegistry()

    def _check_direction(self, direction: str) -> DmaPerm:
        if direction not in VALID_DIRECTIONS:
            raise DmaApiError(f"bad DMA direction {direction!r}")
        return DmaPerm.from_dma_direction(direction)

    # -- single mappings -----------------------------------------------------

    def dma_map_single(self, device: str, kva: int, size: int,
                       direction: str, *,
                       site: AllocSite | None = None) -> int:
        """Map [kva, kva+size) for *device*; returns the buffer's IOVA.

        The device is granted access to every byte of every page the
        buffer overlaps -- not just the buffer itself.
        """
        if size <= 0:
            raise DmaApiError(f"dma_map_single of size {size}")
        if "dma.map" in faults.active_sites and faults.fires("dma.map"):
            raise faults.InjectedDmaMapError("dma.map")
        perm = self._check_direction(direction)
        site = site or AllocSite("dma_map_single")
        paddr = self._addr_space.paddr_of_kva(kva)
        first_pfn = paddr >> PAGE_SHIFT
        last_pfn = (paddr + size - 1) >> PAGE_SHIFT
        nr_pages = last_pfn - first_pfn + 1
        domain = self._iommu.attach_device(device)
        iova_base = domain.iova_allocator.alloc(nr_pages)
        for i in range(nr_pages):
            self._iommu.map_page(device, (iova_base >> PAGE_SHIFT) + i,
                                 first_pfn + i, perm)
        iova = iova_base | (paddr & (PAGE_SIZE - 1))
        self.registry.add(
            device=device, iova=iova, kva=kva, paddr=paddr, size=size,
            direction=direction, perm=perm, site=site,
            first_pfn=first_pfn, nr_pages=nr_pages)
        if "dma" in trace.active_categories:
            trace.emit("dma", "map", device=device, iova=iova, kva=kva,
                       size=size, perm=perm.value, direction=direction,
                       nr_pages=nr_pages, site=str(site))
        self._sink.on_dma_map(paddr, size, perm.value, device, site)
        return iova

    def dma_unmap_single(self, device: str, iova: int, size: int,
                         direction: str) -> None:
        """Remove the mapping created by :meth:`dma_map_single`.

        The page-table entries are removed immediately; whether the
        device actually loses access now depends on the IOMMU's
        invalidation policy (strict vs deferred) and on other live
        mappings of the same frames (type (c)).
        """
        self._check_direction(direction)
        mapping = self.registry.lookup(device, iova)
        if mapping is None:
            raise DmaApiError(f"dma_unmap_single of unknown IOVA {iova:#x}")
        if mapping.size != size or mapping.direction != direction:
            raise DmaApiError(
                f"dma_unmap_single mismatch: mapped (size={mapping.size}, "
                f"{mapping.direction}), unmapped (size={size}, {direction})")
        self.registry.remove(device, iova, now_us=self._clock.now_us)
        if "dma" in trace.active_categories:
            trace.emit("dma", "unmap", device=device, iova=iova,
                       kva=mapping.kva, size=size, perm=mapping.perm.value,
                       direction=direction, nr_pages=mapping.nr_pages)
        iova_base = iova & ~(PAGE_SIZE - 1)
        for i in range(mapping.nr_pages):
            self._iommu.unmap_page(device, (iova_base >> PAGE_SHIFT) + i)
        # The IOVA range is reusable only once the invalidation is
        # visible to hardware (immediately in strict mode, at the next
        # periodic flush in deferred mode -- the Linux flush queue).
        allocator = self._iommu.domain_of(device).iova_allocator
        self._iommu.policy.queue_post_flush(
            lambda: allocator.free(iova_base))
        self._sink.on_dma_unmap(mapping.paddr, mapping.size, device)

    # -- page mappings --------------------------------------------------------

    def dma_map_page(self, device: str, pfn: int, offset: int, size: int,
                     direction: str, *,
                     site: AllocSite | None = None) -> int:
        """Map part of a page frame, as drivers do for frag buffers."""
        kva = self._addr_space.kva_of_pfn(pfn, offset)
        return self.dma_map_single(device, kva, size, direction,
                                   site=site or AllocSite("dma_map_page"))

    def dma_unmap_page(self, device: str, iova: int, size: int,
                       direction: str) -> None:
        self.dma_unmap_single(device, iova, size, direction)

    # -- scatter/gather --------------------------------------------------------

    def dma_map_sg(self, device: str, buffers: list[tuple[int, int]],
                   direction: str, *,
                   site: AllocSite | None = None) -> list[ScatterGatherEntry]:
        """Map a scatter/gather list of (kva, size) buffers."""
        site = site or AllocSite("dma_map_sg")
        entries = [
            ScatterGatherEntry(
                self.dma_map_single(device, kva, size, direction, site=site),
                size)
            for kva, size in buffers
        ]
        return entries

    def dma_unmap_sg(self, device: str, entries: list[ScatterGatherEntry],
                     direction: str) -> None:
        for entry in entries:
            self.dma_unmap_single(device, entry.iova, entry.size, direction)
