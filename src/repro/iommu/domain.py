"""IOMMU protection domain: the per-device IOVA page table.

The page table is page-granular -- the architectural fact behind every
sub-page vulnerability: "the IOMMU cannot fully protect the kernel ...
because it only restricts DMA at page-level granularity".

A single physical frame may be referenced by multiple IOVA entries with
different permissions (section 2.2), which is what makes type (c)
vulnerabilities possible: unmapping one IOVA leaves the frame reachable
through another.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.errors import DmaApiError
from repro.iommu.iova import IovaAllocator
from repro.iommu.perms import DmaPerm


@dataclass(frozen=True)
class IovaEntry:
    """One page-table entry: IOVA page -> physical frame + permission."""

    iova_pfn: int
    pfn: int
    perm: DmaPerm


class IommuDomain:
    """One device's I/O address space."""

    def __init__(self, domain_id: int, name: str, *,
                 iova_limit: int | None = None,
                 iova_free_cache: bool = True) -> None:
        self.domain_id = domain_id
        self.name = name
        self._entries: dict[int, IovaEntry] = {}        # iova_pfn -> entry
        self._by_pfn: dict[int, set[int]] = defaultdict(set)  # pfn -> iova_pfns
        iova_kwargs = {} if iova_limit is None else {"limit": iova_limit}
        self.iova_allocator = IovaAllocator(free_cache=iova_free_cache,
                                            **iova_kwargs)

    def map_page(self, iova_pfn: int, pfn: int, perm: DmaPerm) -> IovaEntry:
        if iova_pfn in self._entries:
            raise DmaApiError(
                f"domain {self.name}: IOVA page {iova_pfn:#x} already mapped")
        entry = IovaEntry(iova_pfn, pfn, perm)
        self._entries[iova_pfn] = entry
        self._by_pfn[pfn].add(iova_pfn)
        return entry

    def unmap_page(self, iova_pfn: int) -> IovaEntry:
        entry = self._entries.pop(iova_pfn, None)
        if entry is None:
            raise DmaApiError(
                f"domain {self.name}: unmap of unmapped IOVA page "
                f"{iova_pfn:#x}")
        self._by_pfn[entry.pfn].discard(iova_pfn)
        if not self._by_pfn[entry.pfn]:
            del self._by_pfn[entry.pfn]
        return entry

    def lookup(self, iova_pfn: int) -> IovaEntry | None:
        """Page-table walk; None models a not-present entry (fault)."""
        return self._entries.get(iova_pfn)

    def iova_pfns_of_pfn(self, pfn: int) -> frozenset[int]:
        """All live IOVA pages that reference frame *pfn*.

        More than one element means a type (c) sub-page vulnerability:
        the device retains access through the surviving IOVAs after any
        one of them is unmapped.
        """
        return frozenset(self._by_pfn.get(pfn, ()))

    @property
    def nr_entries(self) -> int:
        return len(self._entries)
