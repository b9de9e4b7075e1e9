"""Kernel facade: boot composition, determinism, helpers."""

import pytest

from repro.cpu.text import KernelImage
from repro.sim.kernel import DEFAULT_BUILD_SEED, Kernel
from repro.sim.rng import DeterministicRng


def test_kaslr_differs_across_boots():
    bases = {Kernel(seed=5, boot_index=i, phys_mb=128)
             .addr_space.text_base for i in range(6)}
    assert len(bases) > 3


def test_build_invariant_across_boots():
    """Gadget/symbol offsets are a property of the build, not the boot."""
    a = Kernel(seed=5, boot_index=0, phys_mb=128)
    b = Kernel(seed=5, boot_index=1, phys_mb=128)
    assert a.image.text == b.image.text
    assert a.image.symbol("init_net").image_offset == \
        b.image.symbol("init_net").image_offset


def test_boots_of_one_build_share_one_image():
    a = Kernel(seed=5, boot_index=0, phys_mb=128)
    b = Kernel(seed=6, boot_index=2, phys_mb=128)
    assert a.image is b.image


def test_memoized_image_equals_a_fresh_build():
    image = Kernel(seed=5, phys_mb=128).image
    fresh = KernelImage(DeterministicRng(DEFAULT_BUILD_SEED))
    assert image.text == fresh.text
    assert image.symbols() == fresh.symbols()
    assert image.planted_gadgets() == fresh.planted_gadgets()


def test_other_build_seed_gives_other_image():
    default = Kernel(seed=5, phys_mb=128).image
    other = Kernel(seed=5, phys_mb=128, build_seed=7).image
    assert other is not default
    assert other.text != default.text
    assert other.planted_gadgets() != default.planted_gadgets()


def test_image_queries_do_not_leak_into_next_boot():
    first = Kernel(seed=5, phys_mb=128).image
    first.symbols().clear()
    first.planted_gadgets().append((0, "ret"))
    fresh = KernelImage(DeterministicRng(DEFAULT_BUILD_SEED))
    image = Kernel(seed=5, boot_index=1, phys_mb=128).image
    assert image.symbols() == fresh.symbols()
    assert image.planted_gadgets() == fresh.planted_gadgets()


def test_same_boot_is_reproducible():
    a = Kernel(seed=5, boot_index=3, phys_mb=128)
    b = Kernel(seed=5, boot_index=3, phys_mb=128)
    assert a.addr_space.text_base == b.addr_space.text_base
    assert a.slab.kmalloc(512) == b.slab.kmalloc(512)


def test_boot_jitter_shifts_allocations():
    a = Kernel(seed=5, boot_index=0, phys_mb=128, boot_jitter_pages=0,
               boot_jitter_blocks=0)
    b = Kernel(seed=5, boot_index=0, phys_mb=128, boot_jitter_pages=0,
               boot_jitter_blocks=2)
    pfn_a = a.buddy.alloc_pages(3)
    pfn_b = b.buddy.alloc_pages(3)
    assert pfn_a != pfn_b


def test_symbol_address_is_slid():
    k = Kernel(seed=5, phys_mb=128)
    offset = k.image.symbol("commit_creds").image_offset
    assert k.symbol_address("commit_creds") == \
        k.addr_space.text_base + offset
    assert k.init_net_address() == k.symbol_address("init_net")


def test_cpu_read_write_roundtrip(bare_kernel):
    kva = bare_kernel.slab.kmalloc(64)
    bare_kernel.cpu_write(kva, b"hello kernel")
    assert bare_kernel.cpu_read(kva, 12) == b"hello kernel"


def test_poll_and_process_runs_all_cpus(kernel):
    from repro.net.proto import PROTO_UDP, make_packet
    nic = kernel.nics["eth0"]
    nic.device_receive(make_packet(dst_ip=0x0A00_0001, proto=PROTO_UDP,
                                   dst_port=9999, payload=b"x"), cpu=1)
    processed = kernel.poll_and_process()
    assert processed == 1


def test_kaslr_disabled_kernel():
    k = Kernel(seed=5, phys_mb=128, kaslr=False)
    from repro.kaslr.layout import region
    assert k.addr_space.text_base == region("kernel_text").start


def test_report_table_rendering():
    from repro.report.tables import PaperComparison, render_table
    comparison = PaperComparison("demo")
    comparison.add("metric-a", 10, 11)
    comparison.note("shapes match")
    text = comparison.render()
    assert "metric-a" in text and "shapes match" in text
    table = render_table(["x", "y"], [["1", "2"], ["333", "4"]])
    assert "333" in table
