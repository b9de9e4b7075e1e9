"""D-KASAN: each event kind, shadow memory, report rendering."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dkasan import DKasan, format_report, format_sample_lines
from repro.core.dkasan.shadow import GRANULE, ShadowMemory, ShadowState
from repro.mem.accounting import AllocSite
from repro.mem.phys import PAGE_SIZE
from repro.sim.kernel import Kernel


def make_instrumented(**kwargs):
    dkasan = DKasan(256 << 20)
    kernel = Kernel(seed=9, phys_mb=256, sink=dkasan,
                    boot_jitter_pages=0, boot_jitter_blocks=0, **kwargs)
    kernel.iommu.attach_device("dev0")
    return dkasan, kernel


def test_map_after_alloc_detected():
    """An unrelated object already on the page when a neighbour gets
    mapped (section 4.2 case 2)."""
    dkasan, kernel = make_instrumented()
    bystander = kernel.slab.kmalloc(512, site=AllocSite("load_elf_phdrs",
                                                        0xBF, 0x130))
    io_buf = kernel.slab.kmalloc(512)  # same slab page
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    events = dkasan.events_of("map-after-alloc")
    assert any(e.site.function == "load_elf_phdrs" and e.size == 512
               for e in events)


def test_mapped_buffer_itself_not_reported():
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512)
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    assert all(e.site.function != "kmalloc"
               for e in dkasan.events_of("map-after-alloc"))


def test_alloc_after_map_detected():
    """A fresh object lands on an already-mapped page (case 1)."""
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512)
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    kernel.slab.kmalloc(512, site=AllocSite("sock_alloc_inode",
                                            0x4F, 0x120))
    events = dkasan.events_of("alloc-after-map")
    assert any(e.site.function == "sock_alloc_inode" for e in events)
    assert events[0].perms == ("WRITE",)


def test_access_after_map_detected():
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512)
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    kernel.cpu_write(io_buf, b"touch", site=AllocSite("memcpy_toio"))
    events = dkasan.events_of("access-after-map")
    assert events and events[0].site.function == "memcpy_toio"


def test_access_unmapped_page_silent():
    dkasan, kernel = make_instrumented()
    buf = kernel.slab.kmalloc(512)
    kernel.cpu_write(buf, b"x")
    assert dkasan.events_of("access-after-map") == []


def test_multiple_map_merges_permissions():
    """Figure 3 line 1: the same buffer mapped READ and WRITE."""
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512, site=AllocSite("__alloc_skb",
                                                     0xE0, 0x3F0))
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_TO_DEVICE")
    events = dkasan.events_of("multiple-map")
    assert any(e.perms == ("READ", "WRITE")
               and e.site.function == "__alloc_skb" for e in events)
    assert "size 512 [READ, WRITE] __alloc_skb+0xe0/0x3f0" in \
        events[0].render() or any(
            "size 512 [READ, WRITE] __alloc_skb+0xe0/0x3f0"
            == e.render() for e in events)


def test_unmap_clears_windows():
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512)
    iova = kernel.dma.dma_map_single("dev0", io_buf, 512,
                                     "DMA_FROM_DEVICE")
    kernel.dma.dma_unmap_single("dev0", iova, 512, "DMA_FROM_DEVICE")
    kernel.slab.kmalloc(512, site=AllocSite("late_alloc"))
    assert all(e.site.function != "late_alloc"
               for e in dkasan.events_of("alloc-after-map"))


def test_access_events_throttled_per_site_and_page():
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512)
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    for _ in range(10):
        kernel.cpu_write(io_buf, b"y", site=AllocSite("poll_loop"))
    assert len(dkasan.events_of("access-after-map")) == 1


def test_shadow_memory_states():
    shadow = ShadowMemory(1 << 20)
    shadow.poison_range(0x100, 64, ShadowState.ALLOCATED)
    assert shadow.state_at(0x100) == ShadowState.ALLOCATED
    assert shadow.state_at(0x100 + 63) == ShadowState.ALLOCATED
    assert shadow.state_at(0x100 + 64) == ShadowState.UNTRACKED
    shadow.poison_range(0x100, 64, ShadowState.FREED)
    assert shadow.any_state_in(0x100, 64, ShadowState.FREED)
    assert shadow.tracked_granules == 8


def test_kernel_tracks_freed_state():
    dkasan, kernel = make_instrumented()
    buf = kernel.slab.kmalloc(256)
    paddr = kernel.addr_space.paddr_of_kva(buf)
    assert dkasan.shadow.state_at(paddr) == ShadowState.ALLOCATED
    kernel.slab.kfree(buf)
    assert dkasan.shadow.state_at(paddr) == ShadowState.FREED


def test_report_formatting():
    dkasan, kernel = make_instrumented()
    io_buf = kernel.slab.kmalloc(512, site=AllocSite("__alloc_skb",
                                                     0xE0, 0x3F0))
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_FROM_DEVICE")
    kernel.dma.dma_map_single("dev0", io_buf, 512, "DMA_TO_DEVICE")
    report = format_report(dkasan)
    assert "multiple-map" in report
    lines = format_sample_lines(dkasan.events, limit=3)
    assert lines[0].startswith("[1] size ")


def test_workload_produces_all_dynamic_kinds():
    """The section 4.2 experiment shape: compile + ping."""
    from repro.sim.workload import run_compile_and_ping
    dkasan = DKasan(256 << 20)
    kernel = Kernel(seed=9, phys_mb=256, sink=dkasan)
    nic = kernel.add_nic("eth0")
    stats = run_compile_and_ping(kernel, nic, rounds=25)
    assert stats.pings == 25
    counts = dkasan.summary_counts()
    for kind in ("alloc-after-map", "map-after-alloc",
                 "access-after-map", "multiple-map"):
        assert counts[kind] > 0, kind
    assert kernel.stack.stats.oopses == 0


# -- flat shadow == the sparse dict shadow it replaced --------------------------

class DictShadowMemory:
    """Reference model: the sparse dict shadow, one entry per granule."""

    def __init__(self, phys_bytes: int) -> None:
        self._limit = phys_bytes // GRANULE
        self._shadow: dict[int, int] = {}

    def _index(self, paddr: int) -> int:
        index = paddr // GRANULE
        if not 0 <= index < self._limit:
            raise ValueError(f"shadow index for paddr {paddr:#x} "
                             f"out of range")
        return index

    def poison_range(self, paddr: int, size: int,
                     state: ShadowState) -> None:
        start = self._index(paddr)
        end = self._index(paddr + max(size - 1, 0))
        for index in range(start, end + 1):
            if state == ShadowState.UNTRACKED:
                self._shadow.pop(index, None)
            else:
                self._shadow[index] = int(state)

    def state_at(self, paddr: int) -> ShadowState:
        return ShadowState(self._shadow.get(self._index(paddr), 0))

    def any_state_in(self, paddr: int, size: int,
                     state: ShadowState) -> bool:
        start = self._index(paddr)
        end = self._index(paddr + max(size - 1, 0))
        return any(self._shadow.get(i, 0) == int(state)
                   for i in range(start, end + 1))

    @property
    def tracked_granules(self) -> int:
        return len(self._shadow)


SHADOW_PHYS = 4 * PAGE_SIZE
states = st.sampled_from(list(ShadowState))
# a little past both ends of memory, so some calls must raise
paddrs = st.integers(-2 * GRANULE, SHADOW_PHYS + 2 * GRANULE)
sizes = st.integers(0, 2 * PAGE_SIZE + GRANULE)   # 0 and page-crossing
shadow_ops = st.one_of(
    st.tuples(st.just("poison_range"), paddrs, sizes, states),
    st.tuples(st.just("state_at"), paddrs),
    st.tuples(st.just("any_state_in"), paddrs, sizes, states),
    st.tuples(st.just("tracked_granules")),
)


def _outcome(shadow, op):
    name, *args = op
    try:
        attr = getattr(shadow, name)
        return ("ok", attr(*args) if args else attr)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=200, deadline=None)
@given(phys_bytes=st.sampled_from([1, GRANULE, SHADOW_PHYS - 3,
                                   SHADOW_PHYS]),
       ops=st.lists(shadow_ops, max_size=40))
def test_flat_shadow_matches_dict_shadow(phys_bytes, ops):
    flat, ref = ShadowMemory(phys_bytes), DictShadowMemory(phys_bytes)
    for op in ops:
        assert _outcome(flat, op) == _outcome(ref, op), op
    for paddr in range(0, phys_bytes - GRANULE + 1, GRANULE):
        assert flat.state_at(paddr) == ref.state_at(paddr)
    assert flat.tracked_granules == ref.tracked_granules


DKASAN_PHYS = 8 * PAGE_SIZE
# few object slots, not page-aligned, so frees and maps keep landing on
# live objects and windows, and objects straddle pages
obj_paddrs = st.integers(0, 15).map(lambda i: i * 2056)
obj_sizes = st.sampled_from([1, 8, 64, 512, PAGE_SIZE, PAGE_SIZE + 64])
sites = st.sampled_from([AllocSite("kmalloc"), AllocSite("__alloc_skb",
                                                         0xE0, 0x3F0)])
devices = st.sampled_from(["dev0", "dev1"])
sink_ops = st.one_of(
    st.tuples(st.just("on_alloc"), obj_paddrs, obj_sizes, sites),
    st.tuples(st.just("on_free"), obj_paddrs, obj_sizes),
    st.tuples(st.just("on_dma_map"), obj_paddrs, obj_sizes,
              st.sampled_from(["READ", "WRITE"]), devices, sites),
    st.tuples(st.just("on_dma_unmap"), obj_paddrs, obj_sizes, devices),
    st.tuples(st.just("on_device_access"),
              obj_paddrs | st.integers(0, DKASAN_PHYS - 1), obj_sizes,
              st.booleans(), devices, st.booleans()),
)


@settings(max_examples=100, deadline=None)
@given(ops=st.lists(sink_ops, min_size=30, max_size=80))
def test_dkasan_events_identical_on_both_shadows(ops):
    flat, ref = DKasan(DKASAN_PHYS), DKasan(DKASAN_PHYS)
    ref.shadow = DictShadowMemory(DKASAN_PHYS)
    for op in ops:
        assert _outcome(flat, op) == _outcome(ref, op), op
    assert flat.events == ref.events
