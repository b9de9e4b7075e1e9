"""Injection sites in the kernel and tooling layers, and the recovery
paths that absorb them."""

import os
import warnings

import pytest

from repro import faults
from repro.errors import DmaApiError, OutOfMemoryError
from repro.faults import FaultSpec, SiteRule, standard_spec
from repro.perfcache.store import PerfCache


@pytest.fixture(autouse=True)
def _clean_engine():
    yield
    faults.uninstall()


def _plan(*rules, stream=0):
    return FaultSpec(list(rules)).compile(stream=stream)


# -- kernel allocator sites --------------------------------------------------

def test_slab_kmalloc_injected_oom(bare_kernel):
    with faults.session(_plan(SiteRule("mem.slab.kmalloc",
                                       every_nth=1))):
        with pytest.raises(OutOfMemoryError) as info:
            bare_kernel.slab.kmalloc(256)
    assert isinstance(info.value, faults.InjectedFault)
    assert info.value.site == "mem.slab.kmalloc"
    # engine uninstalled: same call succeeds
    assert bare_kernel.slab.kmalloc(256)


def test_buddy_alloc_injected_oom(bare_kernel):
    with faults.session(_plan(SiteRule("mem.buddy.alloc",
                                       every_nth=1))):
        with pytest.raises(OutOfMemoryError):
            bare_kernel.buddy.alloc_pages(0)
    assert bare_kernel.buddy.alloc_pages(0)


def test_page_frag_injected_oom(bare_kernel):
    with faults.session(_plan(SiteRule("mem.page_frag.alloc",
                                       every_nth=1))):
        with pytest.raises(OutOfMemoryError):
            bare_kernel.page_frag.alloc(1024)
    assert bare_kernel.page_frag.alloc(1024)


def test_dma_map_injected_failure(kernel):
    kva = kernel.slab.kmalloc(512)
    with faults.session(_plan(SiteRule("dma.map", every_nth=1))):
        with pytest.raises(DmaApiError) as info:
            kernel.dma.dma_map_single("eth0", kva, 512, "DMA_TO_DEVICE")
    assert isinstance(info.value, faults.InjectedDmaMapError)
    # a non-injected map still works afterwards
    assert kernel.dma.dma_map_single("eth0", kva, 512, "DMA_TO_DEVICE")


# -- IOMMU sites -------------------------------------------------------------

def test_iotlb_eviction_storm(kernel):
    from repro.sim.workload import run_storage_workload
    plan = _plan(SiteRule("iommu.iotlb.evict", every_nth=2, arg=0.5))
    with faults.session(plan):
        stats = run_storage_workload(kernel, commands=16)
    assert plan.fired_counts().get("iommu.iotlb.evict", 0) > 0
    assert kernel.iommu.iotlb.stats.evictions > 0
    assert stats.commands == 16  # correctness survives the storm


def test_fq_delayed_drain(kernel):
    kva = kernel.slab.kmalloc(512)
    iova = kernel.dma.dma_map_single("eth0", kva, 512, "DMA_TO_DEVICE")
    kernel.dma.dma_unmap_single("eth0", iova, 512, "DMA_TO_DEVICE")
    policy = kernel.iommu.policy
    with faults.session(_plan(SiteRule("iommu.fq.delay",
                                       every_nth=1, max_fires=1))):
        policy.flush_now()
    assert policy.stats.delayed_flushes == 1
    policy.flush_now()   # the next drain works normally
    assert policy.stats.delayed_flushes == 1


# -- net sites ride the compile-ping workload --------------------------------

def test_rx_drop_and_truncate_recovered(kernel):
    from repro.sim.workload import run_compile_and_ping
    plan = _plan(SiteRule("net.ring.rx_drop", every_nth=5,
                          max_fires=3),
                 SiteRule("net.nic.truncate", every_nth=3,
                          max_fires=3, arg=0.5))
    nic = kernel.nics["eth0"]
    with faults.session(plan):
        stats = run_compile_and_ping(kernel, nic, rounds=30)
    assert nic.stats.rx_ring_drops > 0
    assert nic.stats.rx_truncated > 0
    assert stats.pings > 0           # most pings still make it


def test_workloads_survive_standard_kernel_plan(kernel):
    from repro.sim.workload import (run_compile_and_ping,
                                    run_storage_workload)
    kernel_spec, _tooling = standard_spec().split()
    nic = kernel.nics["eth0"]
    with faults.session(kernel_spec.compile(stream=0)):
        ping = run_compile_and_ping(kernel, nic, rounds=40)
    assert ping.faults_recovered > 0
    with faults.session(kernel_spec.compile(stream=1)):
        storage = run_storage_workload(kernel, commands=48)
    assert storage.faults_recovered > 0


def test_workload_fault_schedule_is_deterministic():
    """Satellite: same spec + seed => identical firing sequence."""
    from repro.sim.kernel import Kernel
    from repro.sim.workload import run_compile_and_ping
    kernel_spec, _tooling = standard_spec(seed=3).split()

    def run():
        kernel = Kernel(seed=7, phys_mb=256, boot_jitter_pages=0,
                        boot_jitter_blocks=0)
        nic = kernel.add_nic("eth0")
        plan = kernel_spec.compile(stream=2)
        with faults.session(plan):
            run_compile_and_ping(kernel, nic, rounds=25)
        return plan.firings

    first, second = run(), run()
    assert first == second
    assert first  # the plan actually fired


# -- perfcache: real filesystem errors degrade the disk tier -----------------

def _codec():
    return dict(encode=lambda obj: obj, decode=lambda payload: payload)


def test_perfcache_degrades_on_real_oserror(tmp_path, monkeypatch):
    cache = PerfCache(str(tmp_path / "cache"))

    def deny(*_args, **_kwargs):
        raise PermissionError(13, "Permission denied")

    monkeypatch.setattr("repro.perfcache.store.os.makedirs", deny)
    with pytest.warns(RuntimeWarning, match="disk tier .* unusable"):
        value = cache.cached("parse", "k1", lambda: {"v": 1},
                             **_codec())
    assert value == {"v": 1}
    assert cache.degraded
    assert not cache.persist_stats()
    # exactly one warning: later lookups recompute silently
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.cached("parse", "k2", lambda: {"v": 2},
                            **_codec()) == {"v": 2}
    assert not [w for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert cache.stats.write_errors == 1   # no further write attempts


@pytest.mark.skipif(os.geteuid() == 0,
                    reason="root ignores directory permissions")
def test_perfcache_degrades_on_readonly_directory(tmp_path):
    root = tmp_path / "ro"
    root.mkdir()
    os.chmod(root, 0o500)
    try:
        cache = PerfCache(str(root / "cache"))
        with pytest.warns(RuntimeWarning, match="disk tier .* unusable"):
            value = cache.cached("parse", "k1", lambda: {"v": 1},
                                 **_codec())
        assert value == {"v": 1}
        assert cache.degraded
    finally:
        os.chmod(root, 0o700)
