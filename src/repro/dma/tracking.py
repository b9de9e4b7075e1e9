"""Registry of live DMA mappings.

This is kernel-side ground truth, used by D-KASAN (to attribute
map-after-alloc / alloc-after-map events) and by the window-analysis
experiments. Attack code never reads it -- attackers only see what their
device can read via DMA.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import DmaApiError
from repro.iommu.perms import DmaPerm
from repro.mem.accounting import AllocSite


@dataclass
class DmaMapping:
    """One live (or historical) DMA mapping."""

    mapping_id: int
    device: str
    iova: int
    kva: int
    paddr: int
    size: int
    direction: str
    perm: DmaPerm
    site: AllocSite
    first_pfn: int
    nr_pages: int
    active: bool = True
    unmapped_at_us: float | None = None

    @property
    def pfns(self) -> range:
        return range(self.first_pfn, self.first_pfn + self.nr_pages)


class MappingRegistry:
    """Indexes live mappings by IOVA and by PFN."""

    def __init__(self) -> None:
        self._by_key: dict[tuple[str, int], DmaMapping] = {}
        self._by_pfn: dict[int, list[DmaMapping]] = defaultdict(list)
        #: the last mapping id handed out (ids start at 1)
        self.last_id = 0
        # cumulative totals
        self.nr_added = 0
        self.nr_removed = 0

    def add(self, **kwargs) -> DmaMapping:
        self.last_id += 1
        mapping = DmaMapping(mapping_id=self.last_id, **kwargs)
        key = (mapping.device, mapping.iova)
        if key in self._by_key:
            raise DmaApiError(
                f"duplicate mapping for {mapping.device} IOVA "
                f"{mapping.iova:#x}")
        self._by_key[key] = mapping
        for pfn in mapping.pfns:
            self._by_pfn[pfn].append(mapping)
        self.nr_added += 1
        return mapping

    def remove(self, device: str, iova: int, *,
               now_us: float) -> DmaMapping:
        mapping = self._by_key.pop((device, iova), None)
        if mapping is None:
            raise DmaApiError(
                f"unmap of unknown mapping: {device} IOVA {iova:#x}")
        mapping.active = False
        mapping.unmapped_at_us = now_us
        for pfn in mapping.pfns:
            self._by_pfn[pfn].remove(mapping)
            if not self._by_pfn[pfn]:
                del self._by_pfn[pfn]
        self.nr_removed += 1
        return mapping

    def lookup(self, device: str, iova: int) -> DmaMapping | None:
        return self._by_key.get((device, iova))

    def mappings_on_pfn(self, pfn: int) -> list[DmaMapping]:
        """Live mappings covering frame *pfn* (multiple => type (c))."""
        return list(self._by_pfn.get(pfn, ()))

    def live_mappings(self) -> list[DmaMapping]:
        return list(self._by_key.values())

    @property
    def nr_live(self) -> int:
        return len(self._by_key)
