"""The simulated kernel: one boot of the victim machine.

Construction order mirrors a boot: physical memory, KASLR, allocators,
IOMMU + DMA API, the (per-build, boot-invariant) kernel image, the
executor, and finally the network substrate. A fresh :class:`Kernel`
per boot with the same ``seed`` but a different ``boot_index`` models
the paper's reboot experiments (section 5.3): KASLR re-randomizes every
boot while the *build* (gadget locations, symbol offsets) and the
near-deterministic allocation order persist.
"""

from __future__ import annotations

import functools

from repro import metrics, trace
from repro.cpu.exec import Executor
from repro.cpu.text import KernelImage
from repro.dma.api import DmaApi
from repro.iommu.iommu import Iommu
from repro.kaslr.randomize import randomize
from repro.kaslr.translate import AddressSpace
from repro.mem.accounting import NULL_SINK, AllocSite, MemEventSink
from repro.mem.buddy import BuddyAllocator
from repro.mem.page_frag import DEFAULT_CHUNK_ORDER, PageFragAllocator
from repro.mem.phys import PAGE_SIZE, PhysicalMemory
from repro.mem.slab import SlabAllocator
from repro.net.alloc import SkbAllocator
from repro.net.gro import GroEngine
from repro.net.nic import Nic
from repro.net.stack import ECHO_PORT, NetworkStack
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng

#: The build seed fixes the kernel binary (symbols, gadgets) across
#: boots, the way one installed kernel image persists across reboots.
DEFAULT_BUILD_SEED = 42


@functools.lru_cache(maxsize=4)
def kernel_image(build_seed: int) -> KernelImage:
    """The (immutable) image of one build, generated once per process."""
    return KernelImage(DeterministicRng(build_seed))


class Kernel:
    """One booted instance of the victim system."""

    def __init__(self, *, seed: int = 1, boot_index: int = 0,
                 build_seed: int = DEFAULT_BUILD_SEED,
                 nr_cpus: int = 4, phys_mb: int = 1024,
                 iommu_mode: str = "deferred",
                 flush_period_us: float | None = None,
                 iommu_backend=None,
                 kaslr: bool = True,
                 cet_ibt: bool = False, cet_shadow_stack: bool = False,
                 pointer_blinding: bool = False,
                 bounce_buffers: bool = False,
                 damn: bool = False,
                 randomize_struct_layout: bool = False,
                 page_frag_chunk_order: int = DEFAULT_CHUNK_ORDER,
                 forwarding: bool = False,
                 zerocopy_threshold: int | None = None,
                 boot_jitter_pages: int | None = None,
                 boot_jitter_blocks: int | None = None,
                 sink: MemEventSink = NULL_SINK) -> None:
        self.nr_cpus = nr_cpus
        self.seed = seed
        self.boot_index = boot_index
        self.clock = SimClock()
        self.rng = DeterministicRng(seed, domain=f"boot-{boot_index}")
        self.sink = sink

        nr_pages = phys_mb * (1 << 20) // PAGE_SIZE
        self.phys = PhysicalMemory(nr_pages)
        phys_bytes = self.phys.size_bytes
        self.kaslr_state = randomize(self.rng.child("kaslr"),
                                     enabled=kaslr, phys_bytes=phys_bytes)
        self.addr_space = AddressSpace(self.kaslr_state, phys_bytes)

        self.buddy = BuddyAllocator(self.phys, nr_cpus=nr_cpus, sink=sink)
        self.slab = SlabAllocator(self.phys, self.buddy, self.addr_space,
                                  sink=sink)
        self.page_frag = PageFragAllocator(
            self.buddy, self.addr_space, nr_cpus=nr_cpus,
            chunk_order=page_frag_chunk_order, sink=sink)

        # DAMN-style segregation: skb data buffers come from a slab
        # whose pages hold nothing but I/O data (ASPLOS'18).
        self.io_slab = (SlabAllocator(self.phys, self.buddy,
                                      self.addr_space, sink=sink)
                        if damn else self.slab)

        self.iommu = Iommu(self.phys, self.clock, mode=iommu_mode,
                           flush_period_us=flush_period_us,
                           backend=iommu_backend, sink=sink)
        self.dma = DmaApi(self.iommu, self.addr_space, self.clock, sink=sink)
        if bounce_buffers:
            from repro.core.defenses.bounce import BounceDmaApi
            self.dma = BounceDmaApi(self.dma, self.phys, self.addr_space,
                                    self.buddy)

        # The image is a property of the *build*, not the boot: every
        # boot of one build shares the image memoized per build_seed.
        self.image = kernel_image(build_seed)
        self.executor = Executor(self.phys, self.addr_space, self.image,
                                 cet_ibt=cet_ibt,
                                 cet_shadow_stack=cet_shadow_stack)

        from repro.net.structs import (SKB_SHARED_INFO,
                                       randomized_shared_info_layout)
        self.shared_info_layout = (
            randomized_shared_info_layout(self.rng.child("struct-layout"))
            if randomize_struct_layout else SKB_SHARED_INFO)
        self.skb_alloc = SkbAllocator(
            self.phys, self.addr_space, self.slab, self.page_frag,
            self.buddy, io_slab=self.io_slab,
            shared_info_layout=self.shared_info_layout)
        self.gro = GroEngine(self)
        self.stack = NetworkStack(self, forwarding=forwarding)
        self.stack.zerocopy_threshold = zerocopy_threshold
        if pointer_blinding:
            from repro.core.defenses.blinding import PointerBlinding
            self.stack.pointer_blinding = PointerBlinding(
                self.rng.child("blinding"))

        self.nics: dict[str, Nic] = {}
        self._consume_boot_jitter(boot_jitter_pages, boot_jitter_blocks)
        self.stack.create_socket(ECHO_PORT)

        # The most recently booted kernel stamps the flight recorder:
        # its SimClock becomes the trace time base.
        recorder = trace.active()
        if recorder is not None:
            recorder.bind_clock(self.clock)
            if recorder.wants("sim"):
                from repro.backends import backend_label
                label = backend_label(self.iommu.backend)
                extra = {} if label is None else {"backend": label}
                recorder.emit("sim", "boot", seed=seed,
                              boot_index=boot_index,
                              iommu_mode=iommu_mode, nr_cpus=nr_cpus,
                              phys_mb=phys_mb, **extra)
        # Same last-boot-wins rule for the metrics registry: this boot
        # now owns the ``kernel`` collector slot.
        metrics.observe_kernel(self)

    # -- boot behaviour --------------------------------------------------------

    def _consume_boot_jitter(self, jitter_pages: int | None,
                             jitter_blocks: int | None) -> None:
        """Model the small cross-boot drift in early allocations.

        "While the pages each module receives may vary in a multi-core
        environment due to timing issues, we do not expect the drift to
        be too large" (section 5.3). Two sources of drift: single pages
        taken by early-boot code, and order-3 blocks grabbed by other
        modules racing the NIC driver -- the latter displace the
        page_frag chunks the RX rings live in, so they are what makes
        PFN profiles probabilistic rather than exact.
        """
        rng = self.rng.child("boot-jitter")
        if jitter_pages is None:
            jitter_pages = rng.randint(0, 6)
        if jitter_blocks is None:
            jitter_blocks = rng.randint(0, 3)
        for _ in range(jitter_pages):
            self.buddy.alloc_page(site=AllocSite("early_boot"))
        for _ in range(jitter_blocks):
            self.buddy.alloc_pages(3, site=AllocSite("module_init"))

    def add_nic(self, name: str, **config) -> Nic:
        nic = Nic(self, name, **config)
        self.nics[name] = nic
        for cpu in range(self.nr_cpus):
            nic.refill_rx(cpu=cpu)
        return nic

    # -- symbols ------------------------------------------------------------------

    def symbol_address(self, name: str) -> int:
        """Runtime (KASLR-slid) address of a kernel symbol."""
        return self.addr_space.symbol_kva(self.image.symbol(name).image_offset)

    def init_net_address(self) -> int:
        return self.symbol_address("init_net")

    # -- CPU memory access (fires sanitizer hooks) -----------------------------------

    def cpu_read(self, kva: int, length: int, *,
                 site: AllocSite | None = None) -> bytes:
        paddr = self.addr_space.paddr_of_kva(kva)
        self.sink.on_cpu_access(paddr, length, False,
                                site or AllocSite("cpu_read"))
        return self.phys.read(paddr, length)

    def cpu_write(self, kva: int, data: bytes, *,
                  site: AllocSite | None = None) -> None:
        paddr = self.addr_space.paddr_of_kva(kva)
        self.sink.on_cpu_access(paddr, len(data), True,
                                site or AllocSite("cpu_write"))
        self.phys.write(paddr, data)

    # -- convenience --------------------------------------------------------------

    def poll_and_process(self) -> int:
        """NAPI-poll every NIC on every CPU, then run the softirq backlog.

        Convenience for workloads/tests that don't need to interleave an
        attacker between delivery and processing.
        """
        for nic in self.nics.values():
            for cpu in range(self.nr_cpus):
                nic.napi_poll(cpu=cpu)
        return self.stack.process_backlog()

    # -- time ---------------------------------------------------------------------

    def advance_time_us(self, delta_us: float) -> None:
        self.clock.advance_us(delta_us)

    def advance_time_ms(self, delta_ms: float) -> None:
        self.clock.advance_ms(delta_ms)
