"""SLUB-style slab allocator (the kernel's ``kmalloc``).

Two behaviours matter to the paper and are modeled faithfully:

* **Freelist metadata lives on the slab page** (type (b) sub-page
  vulnerability, Figure 1): each free object's first 8 bytes hold the KVA
  of the next free object. If an I/O buffer allocated from a slab page is
  DMA-mapped, the device can read kernel pointers from -- and corrupt --
  this freelist.
* **Objects of similar size share pages** (type (d), random co-location):
  ``kmalloc`` rounds requests up to a size class and packs them onto
  shared slab pages, so an I/O buffer and an unrelated kernel object
  routinely co-reside on one page. D-KASAN's ``alloc-after-map`` /
  ``map-after-alloc`` events detect exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import faults, trace
from repro.errors import AllocatorError
from repro.mem.accounting import NULL_SINK, AllocSite, MemEventSink
from repro.mem.buddy import BuddyAllocator
from repro.mem.phys import PAGE_SIZE, PhysicalMemory, paddr_to_pfn
from repro.mem.virt import VirtTranslator

#: kmalloc size classes, as in Linux (kmalloc-8 ... kmalloc-8k).
KMALLOC_SIZES = (8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048,
                 4096, 8192)

#: End-of-freelist sentinel stored in the last free object.
_FREELIST_END = 0


@dataclass
class _Slab:
    """One slab: 2^order contiguous pages carved into equal objects."""

    base_pfn: int
    order: int
    object_size: int
    inuse: int = 0
    freelist_head_paddr: int = field(default=0)  # 0 == empty

    @property
    def base_paddr(self) -> int:
        return self.base_pfn * PAGE_SIZE

    @property
    def capacity(self) -> int:
        return (PAGE_SIZE << self.order) // self.object_size


class _KmemCache:
    """Per-size-class cache, holding partial and full slabs."""

    def __init__(self, object_size: int) -> None:
        self.object_size = object_size
        # Slabs for 8 KiB objects span two pages; everything else fits one.
        self.slab_order = 1 if object_size > PAGE_SIZE else 0
        self.partial: list[_Slab] = []
        self.full: list[_Slab] = []
        self.slab_by_pfn: dict[int, _Slab] = {}

    @property
    def name(self) -> str:
        return f"kmalloc-{self.object_size}"


class SlabAllocator:
    """``kmalloc``/``kfree`` over a buddy allocator.

    Returns and accepts *kernel virtual addresses*; freelist pointers
    written into slab memory are also KVAs, so a device reading a mapped
    slab page observes genuine kernel pointers.
    """

    def __init__(self, phys: PhysicalMemory, buddy: BuddyAllocator,
                 translate: VirtTranslator, *,
                 sink: MemEventSink = NULL_SINK) -> None:
        self._phys = phys
        self._buddy = buddy
        self._translate = translate
        self._sink = sink
        self._caches = {size: _KmemCache(size) for size in KMALLOC_SIZES}
        self._live: dict[int, tuple[int, int]] = {}  # paddr -> (class, req)
        self.nr_kmallocs = 0  # cumulative successful kmalloc calls
        self.nr_kfrees = 0    # cumulative successful kfree calls

    # -- helpers ------------------------------------------------------------

    def size_class(self, size: int) -> int:
        """The kmalloc size class a request of *size* bytes rounds up to."""
        for cls in KMALLOC_SIZES:
            if size <= cls:
                return cls
        raise AllocatorError(
            f"kmalloc of {size} bytes exceeds the largest size class; "
            f"use alloc_pages for large buffers")

    def _cache_of_slab_pfn(self, pfn: int) -> _KmemCache | None:
        for cache in self._caches.values():
            slab = cache.slab_by_pfn.get(pfn)
            if slab is not None:
                return cache
        return None

    def _new_slab(self, cache: _KmemCache, cpu: int,
                  site: AllocSite) -> _Slab:
        pfn = self._buddy.alloc_pages(cache.slab_order, cpu=cpu, site=site)
        slab = _Slab(pfn, cache.slab_order, cache.object_size)
        # Thread the freelist through the objects themselves (SLUB-style):
        # the first word of each free object is the KVA of the next.
        nobj = slab.capacity
        base = slab.base_paddr
        next_kva = _FREELIST_END
        for i in range(nobj - 1, -1, -1):
            obj_paddr = base + i * cache.object_size
            self._phys.write_u64(obj_paddr, next_kva)
            next_kva = self._translate.kva_of_paddr(obj_paddr)
        slab.freelist_head_paddr = base
        for i in range(1 << cache.slab_order):
            cache.slab_by_pfn[pfn + i] = slab
        return slab

    # -- public API ---------------------------------------------------------

    def kmalloc(self, size: int, *, cpu: int = 0,
                site: AllocSite | None = None) -> int:
        """Allocate *size* bytes; returns the object's KVA."""
        if size <= 0:
            raise AllocatorError(f"kmalloc of non-positive size {size}")
        if "mem.slab.kmalloc" in faults.active_sites \
                and faults.fires("mem.slab.kmalloc"):
            raise faults.InjectedOutOfMemory("mem.slab.kmalloc")
        site = site or AllocSite("kmalloc")
        cache = self._caches[self.size_class(size)]
        if not cache.partial:
            cache.partial.append(self._new_slab(cache, cpu, site))
        slab = cache.partial[-1]
        obj_paddr = slab.freelist_head_paddr
        if obj_paddr == 0:
            raise AllocatorError(f"corrupt freelist in {cache.name}")
        next_kva = self._phys.read_u64(obj_paddr)
        slab.freelist_head_paddr = (
            0 if next_kva == _FREELIST_END
            else self._translate.paddr_of_kva(next_kva))
        slab.inuse += 1
        if slab.freelist_head_paddr == 0:
            cache.partial.remove(slab)
            cache.full.append(slab)
        # Scrub the freelist word so the caller starts with zeroed link.
        self._phys.write_u64(obj_paddr, 0)
        self._live[obj_paddr] = (cache.object_size, size)
        self.nr_kmallocs += 1
        if trace.enabled("mem"):
            trace.emit("mem", "kmalloc", size=size,
                       object_size=cache.object_size, cpu=cpu,
                       pfn=paddr_to_pfn(obj_paddr), site=str(site))
        self._sink.on_alloc(obj_paddr, cache.object_size, site)
        return self._translate.kva_of_paddr(obj_paddr)

    def kfree(self, kva: int) -> None:
        """Free the object at *kva*."""
        paddr = self._translate.paddr_of_kva(kva)
        live = self._live.pop(paddr, None)
        if live is None:
            raise AllocatorError(f"kfree of unknown object at KVA {kva:#x}")
        object_size, _requested = live
        cache = self._caches[object_size]
        slab = cache.slab_by_pfn.get(paddr_to_pfn(paddr))
        if slab is None:
            raise AllocatorError(f"kfree: no slab owns paddr {paddr:#x}")
        # Push onto the freelist head, writing the next-pointer *into the
        # freed object* -- the metadata a mapped device can read/corrupt.
        old_head_kva = (_FREELIST_END if slab.freelist_head_paddr == 0 else
                        self._translate.kva_of_paddr(slab.freelist_head_paddr))
        self._phys.write_u64(paddr, old_head_kva)
        was_full = slab.freelist_head_paddr == 0
        slab.freelist_head_paddr = paddr
        slab.inuse -= 1
        self.nr_kfrees += 1
        if was_full:
            cache.full.remove(slab)
            cache.partial.append(slab)
        if trace.enabled("mem"):
            trace.emit("mem", "kfree", object_size=object_size,
                       pfn=paddr_to_pfn(paddr))
        self._sink.on_free(paddr, object_size)
        if slab.inuse == 0 and len(cache.partial) > 1:
            # Return fully-free surplus slabs to the buddy allocator.
            cache.partial.remove(slab)
            for i in range(1 << slab.order):
                del cache.slab_by_pfn[slab.base_pfn + i]
            self._buddy.free_pages(slab.base_pfn)

    def ksize(self, kva: int) -> int:
        """Usable size of the object at *kva* (its size class)."""
        paddr = self._translate.paddr_of_kva(kva)
        live = self._live.get(paddr)
        if live is None:
            raise AllocatorError(f"ksize of unknown object at KVA {kva:#x}")
        return live[0]

    def live_objects_on_pfn(self, pfn: int) -> list[tuple[int, int]]:
        """(paddr, size) of live objects on frame *pfn* (for D-KASAN)."""
        cache = self._cache_of_slab_pfn(pfn)
        if cache is None:
            return []
        lo = pfn * PAGE_SIZE
        hi = lo + PAGE_SIZE
        return sorted((paddr, sz) for paddr, (sz, _r) in self._live.items()
                      if lo <= paddr < hi)

    @property
    def nr_live_objects(self) -> int:
        return len(self._live)
