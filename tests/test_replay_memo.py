"""The replay memo is exact: memoized replay == full replay.

:mod:`repro.sim.replay_memo` applies recorded per-site deltas on the
default manifest-replay path. These tests force the full path by
patching the module's private ``_default_path`` predicate (a test
seam, not a setting) and hold every observable of the memoized replay
equal to it: records, D-KASAN's events, the coverage record, the
full-capacity trace ring, the published kernel stats, the IOVA
allocator, physical pages and shadow bytes.
"""

import dataclasses
import hashlib
from contextlib import contextmanager
from unittest import mock

import pytest

from repro import faults, metrics, trace
from repro.campaign.mutate import CorpusMutator
from repro.campaign.runner import run_seed
from repro.core.dkasan import DKasan
from repro.corpus.manifest import Manifest
from repro.coverage import COVERAGE_CATEGORIES, CoverageCollector
from repro.sim import replay_memo
from repro.sim.kernel import Kernel
from repro.sim.workload import run_manifest_replay

SCALE = 0.1


@pytest.fixture(scope="module")
def mutator():
    return CorpusMutator(2021, scale=SCALE)


@contextmanager
def full_replay():
    """Every replay in the body takes the full, unmemoized path."""
    with mock.patch.object(replay_memo, "_default_path",
                           lambda *args: False):
        yield


def replay_observables(manifest, *, seed: int = 3, max_sites=None,
                       traced: bool = True, backend=None,
                       iommu_mode: str = "strict",
                       probe_windows: bool = False,
                       before=lambda kernel: None) -> dict:
    """Replay *manifest* on a fresh campaign kernel, after
    ``before(kernel)``, and return every observable of the run;
    ``memo_hits`` is split off the stats."""
    collector = CoverageCollector()
    recorder = None
    if traced:
        recorder = trace.install(trace.TraceRecorder(
            capacity=1 << 20, categories=COVERAGE_CATEGORIES))
        recorder.add_observer(collector.feed)
    try:
        dkasan = DKasan(256 << 20)
        kernel = Kernel(seed=seed, phys_mb=256,
                        iommu_mode=iommu_mode,
                        iommu_backend=backend, boot_jitter_pages=0,
                        boot_jitter_blocks=0, sink=dkasan)
        before(kernel)
        stats = run_manifest_replay(kernel, manifest, max_sites=max_sites,
                                    probe_windows=probe_windows)
    finally:
        if traced:
            trace.uninstall()
    registry = metrics.MetricsRegistry()
    metrics.publish_kernel(registry, kernel)
    iova = kernel.iommu.domain_of("camp0").iova_allocator
    slab = kernel.slab._caches[4096]
    stats = dataclasses.asdict(stats)
    return {
        "memo_hits": stats.pop("memo_hits"),
        "stats": stats,
        # raw events: float timestamps compare bit for bit
        "ring": list(recorder.events) if traced else None,
        "nr_emitted": recorder.nr_emitted if traced else None,
        "dkasan": list(dkasan.events),
        "coverage": collector.record(),
        "metrics": metrics.prometheus_text(registry, collect=False),
        "iova": (iova._next_top, list(iova._free.items()),
                 list(iova._live.items())),
        "slab": ([(s.base_pfn, s.freelist_head_paddr, s.inuse)
                  for s in slab.partial], len(slab.full)),
        "mapping_id": kernel.dma.registry.last_id,
        "clock": (kernel.clock.now_us, kernel.clock.cycles),
        "phys": [(pfn, bytes(page.data), page.allocated, page.order,
                  page.alloc_generation)
                 for pfn, page in kernel.phys._pages.items()],
        "shadow": hashlib.sha256(dkasan.shadow._shadow).hexdigest(),
    }


def assert_memo_exact(manifest, **kwargs) -> dict:
    memo = replay_observables(manifest, **kwargs)
    with full_replay():
        full = replay_observables(manifest, **kwargs)
    assert full.pop("memo_hits") == 0
    hits = memo.pop("memo_hits")
    assert memo == full
    return {"hits": hits, **memo}


def test_memo_equals_full_replay_on_derived_corpora(mutator):
    for seed in (1, 2):
        result = assert_memo_exact(mutator.derive(seed).manifest,
                                   seed=seed)
        assert result["hits"] > 0


def test_memo_equals_full_replay_under_hypothesis(mutator):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    manifests = {seed: mutator.derive(seed).manifest for seed in range(4)}

    @st.composite
    def replays(draw):
        sites = draw(st.permutations(
            manifests[draw(st.sampled_from(sorted(manifests)))].sites))
        keep = draw(st.integers(0, len(sites)))
        max_sites = draw(st.none() | st.integers(0, keep + 2))
        kernel_seed = draw(st.integers(0, 1000))
        return kernel_seed, Manifest(sites=sites[:keep]), max_sites

    @settings(max_examples=30, deadline=None)
    @given(replays())
    def check(case):
        seed, manifest, max_sites = case
        assert_memo_exact(manifest, seed=seed, max_sites=max_sites)

    check()


def test_memo_equals_full_replay_without_a_recorder(mutator):
    result = assert_memo_exact(mutator.derive(5).manifest, traced=False)
    assert result["hits"] > 0 and result["ring"] is None


def test_seed_records_equal_full_replay(mutator):
    for seed in (3, 4):
        for kwargs in ({}, {"trace_events": 0},
                       {"trace_events": 0, "coverage": False},
                       {"backend": "arm-smmuv3"}):
            memo = run_seed(seed, scale=SCALE, mutator=mutator, **kwargs)
            with full_replay():
                full = run_seed(seed, scale=SCALE, mutator=mutator,
                                **kwargs)
            memo.pop("duration_s")
            full.pop("duration_s")
            assert memo == full, kwargs


@pytest.mark.parametrize("backend", ["arm-smmuv3", "amd-vi",
                                     "virtio-iommu"])
@pytest.mark.parametrize("probe_windows", [True, False])
def test_other_backends_take_the_full_path(mutator, backend,
                                           probe_windows):
    from repro.backends import get_backend

    result = assert_memo_exact(
        mutator.derive(6).manifest, backend=backend,
        iommu_mode=get_backend(backend).default_mode,
        probe_windows=probe_windows)
    assert result["hits"] == 0


def test_window_probes_take_the_full_path(mutator):
    manifest = mutator.derive(6).manifest
    assert assert_memo_exact(manifest, probe_windows=True)["hits"] == 0
    # the default model named explicitly is still the default path
    assert assert_memo_exact(manifest, backend="intel-vtd")["hits"] > 0


def test_an_armed_fault_plan_takes_the_full_path(mutator):
    manifest = mutator.derive(7).manifest
    unarmed = replay_observables(manifest)
    # a tooling site the replay never reaches: armed, never fires
    plan = faults.FaultSpec([faults.SiteRule("campaign.worker.hang",
                                             every_nth=1)]).compile()
    with faults.session(plan):
        armed = replay_observables(manifest)
    assert armed.pop("memo_hits") == 0
    assert unarmed.pop("memo_hits") > 0
    assert armed == unarmed
    # an armed kernel site still fires mid-replay: no site is skipped
    plan = faults.FaultSpec([faults.SiteRule("dma.map",
                                             at_steps=(40,))]).compile()
    with faults.session(plan), pytest.raises(faults.InjectedDmaMapError):
        replay_observables(manifest)


def test_memo_equals_full_replay_on_a_used_kernel(mutator):
    """A kernel a workload ran on first: other caches hold objects
    and the kmalloc-4096 cache starts with several slabs."""
    from repro.sim.workload import run_storage_workload

    result = assert_memo_exact(
        mutator.derive(8).manifest,
        before=lambda kernel: run_storage_workload(kernel, commands=24))
    assert result["hits"] > 0


def test_a_warm_iotlb_is_never_memoized(mutator):
    """A site's invalidations could drop a cached translation, which a
    delta cannot express: with the IOTLB holding an entry, no site is
    memoized."""
    def warm_iotlb(kernel):
        kva = kernel.slab.kmalloc(64)
        iova = kernel.dma.dma_map_single("dev9", kva, 64,
                                         "DMA_TO_DEVICE")
        kernel.iommu.device_read("dev9", iova, 8)

    result = assert_memo_exact(mutator.derive(8).manifest,
                               before=warm_iotlb)
    assert result["hits"] == 0


def test_memo_hit_rate_on_campaign_seeds(mutator):
    """Most sites reuse a recorded delta. A state field that silently
    changes on every site (and so disables the memo) fails this."""
    hits = sites = 0
    for seed in range(1, 9):
        result = replay_observables(mutator.derive(seed).manifest,
                                    seed=seed)
        hits += result["memo_hits"]
        sites += result["stats"]["sites_replayed"]
    assert hits / sites >= 0.8, (hits, sites)
