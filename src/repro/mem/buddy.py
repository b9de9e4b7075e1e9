"""Buddy page allocator with per-CPU hot-page caches.

Models the two properties of the Linux page allocator that the paper's
attacks depend on:

* **Near-deterministic boot allocation.** Free blocks are handed out in a
  deterministic order, so the set of PFNs a driver's RX rings land on
  repeats across boots (the RingFlood attack, section 5.3).
* **Hot-page reuse.** Freed order-0 pages go to a per-CPU LIFO cache and
  are the first to be re-allocated ("Linux reuses hot pages as they are
  likely to reside in the CPU caches", section 5.2.1), which lets a device
  holding a stale IOTLB entry attack whatever object the page is reused
  for.
"""

from __future__ import annotations

from collections import defaultdict

from repro import faults, trace
from repro.errors import AllocatorError, OutOfMemoryError
from repro.mem.accounting import NULL_SINK, AllocSite, MemEventSink
from repro.mem.phys import PhysicalMemory

MAX_ORDER = 10  # largest block: 2^10 pages = 4 MiB
PCP_BATCH = 32  # per-CPU cache high-water mark


class BuddyAllocator:
    """Power-of-two buddy allocator over a :class:`PhysicalMemory`.

    ``reserved_low_pages`` models the frames the kernel image, page
    tables, and early boot allocations pin before drivers load.
    """

    def __init__(self, phys: PhysicalMemory, *, nr_cpus: int = 1,
                 reserved_low_pages: int = 256,
                 sink: MemEventSink = NULL_SINK) -> None:
        if reserved_low_pages >= phys.nr_pages:
            raise ValueError("reserved pages exceed physical memory")
        self._phys = phys
        self._nr_cpus = nr_cpus
        self._sink = sink
        self._free_lists: dict[int, list[int]] = {o: [] for o in
                                                  range(MAX_ORDER + 1)}
        self._free_set: set[tuple[int, int]] = set()  # (pfn, order)
        self._pcp: dict[int, list[int]] = defaultdict(list)
        self._allocated: dict[int, int] = {}  # base pfn -> order
        self._nr_free = 0
        self._generation = 0
        self.nr_allocs = 0  # cumulative successful alloc_pages calls
        self.nr_frees = 0   # cumulative successful free_pages calls
        self._seed_free_lists(reserved_low_pages, phys.nr_pages)

    def _seed_free_lists(self, start: int, end: int) -> None:
        """Carve [start, end) into maximal aligned power-of-two blocks."""
        pfn = start
        while pfn < end:
            order = MAX_ORDER
            while order > 0 and (pfn % (1 << order) != 0
                                 or pfn + (1 << order) > end):
                order -= 1
            self._push_free(pfn, order)
            pfn += 1 << order

    # -- free-list plumbing -------------------------------------------------

    def _push_free(self, pfn: int, order: int) -> None:
        self._free_lists[order].append(pfn)
        self._free_set.add((pfn, order))
        self._nr_free += 1 << order

    def _pop_free(self, order: int) -> int:
        pfn = self._free_lists[order].pop()
        self._free_set.remove((pfn, order))
        self._nr_free -= 1 << order
        return pfn

    def _remove_free(self, pfn: int, order: int) -> None:
        self._free_lists[order].remove(pfn)
        self._free_set.remove((pfn, order))
        self._nr_free -= 1 << order

    # -- public API ---------------------------------------------------------

    @property
    def nr_free_pages(self) -> int:
        return self._nr_free + sum(len(v) for v in self._pcp.values())

    def alloc_pages(self, order: int = 0, *, cpu: int = 0,
                    site: AllocSite | None = None) -> int:
        """Allocate 2^order contiguous page frames; returns the base PFN."""
        if not 0 <= order <= MAX_ORDER:
            raise AllocatorError(f"bad order {order}")
        if "mem.buddy.alloc" in faults.active_sites \
                and faults.fires("mem.buddy.alloc"):
            raise faults.InjectedOutOfMemory("mem.buddy.alloc")
        if order == 0 and self._pcp[cpu]:
            pfn = self._pcp[cpu].pop()  # LIFO: hottest page first
        else:
            pfn = self._alloc_from_buddy(order)
        self._allocated[pfn] = order
        self._generation += 1
        self.nr_allocs += 1
        for i in range(1 << order):
            page = self._phys.page(pfn + i)
            page.allocated = True
            page.order = order
            page.alloc_generation = self._generation
        if trace.enabled("mem"):
            trace.emit("mem", "pages_alloc", pfn=pfn, order=order,
                       cpu=cpu, site=str(site or "alloc_pages"))
        self._sink.on_pages_alloc(pfn, 1 << order,
                                  site or AllocSite("alloc_pages"))
        return pfn

    def _alloc_from_buddy(self, order: int) -> int:
        current = order
        while current <= MAX_ORDER and not self._free_lists[current]:
            current += 1
        if current > MAX_ORDER:
            raise OutOfMemoryError(f"no free block of order {order}")
        pfn = self._pop_free(current)
        while current > order:  # split, keeping the low half
            current -= 1
            self._push_free(pfn + (1 << current), current)
        return pfn

    def alloc_page(self, *, cpu: int = 0,
                   site: AllocSite | None = None) -> int:
        """Allocate a single page frame (order 0)."""
        return self.alloc_pages(0, cpu=cpu, site=site)

    def free_pages(self, pfn: int, order: int | None = None, *,
                   cpu: int = 0) -> None:
        """Free the block based at *pfn* (order defaults to the recorded one)."""
        recorded = self._allocated.pop(pfn, None)
        if recorded is None:
            raise AllocatorError(f"free of unallocated PFN {pfn:#x}")
        if order is not None and order != recorded:
            self._allocated[pfn] = recorded
            raise AllocatorError(
                f"free order {order} != allocated order {recorded}")
        order = recorded
        self.nr_frees += 1
        for i in range(1 << order):
            self._phys.page(pfn + i).allocated = False
        if trace.enabled("mem"):
            trace.emit("mem", "pages_free", pfn=pfn, order=order,
                       cpu=cpu)
        self._sink.on_pages_free(pfn, 1 << order)
        if order == 0:
            self._pcp[cpu].append(pfn)
            if len(self._pcp[cpu]) > PCP_BATCH:
                # Drain the coldest half back to the buddy lists.
                drain = self._pcp[cpu][:PCP_BATCH // 2]
                del self._pcp[cpu][:PCP_BATCH // 2]
                for cold in drain:
                    self._merge_free(cold, 0)
        else:
            self._merge_free(pfn, order)

    def _merge_free(self, pfn: int, order: int) -> None:
        """Coalesce with the buddy block while both halves are free."""
        while order < MAX_ORDER:
            buddy = pfn ^ (1 << order)
            if (buddy, order) not in self._free_set:
                break
            self._remove_free(buddy, order)
            pfn = min(pfn, buddy)
            order += 1
        self._push_free(pfn, order)

    def is_allocated(self, pfn: int) -> bool:
        """Whether frame *pfn* is inside any live allocation."""
        return self._phys.page(pfn).allocated
