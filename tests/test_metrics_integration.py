"""Metrics across the stack: trace cross-checks, deterministic
exports, and the ``repro-dma metrics`` CLI."""

import json

import pytest

from repro import metrics, perfcache, trace
from repro.cli import main
from repro.core.dkasan import DKasan
from repro.sim.kernel import Kernel
from repro.trace import event_counts


@pytest.fixture(autouse=True)
def _slots_clean():
    assert metrics.active() is None
    assert trace.active() is None
    yield
    metrics.uninstall()
    trace.uninstall()
    perfcache.reset_default()


def _value(samples, subsystem, name, **labels):
    for sample in samples:
        if (sample.subsystem == subsystem and sample.name == name
                and sample.labels == labels):
            return sample.value
    raise AssertionError(f"no sample {subsystem}/{name} {labels}")


# -- metrics counters must agree with trace event counts --------------------------


@pytest.fixture(scope="module")
def ringflood_observed():
    """One traced + metered ringflood, shared by the cross-checks."""
    from repro.core.attacks.ringflood import (make_attacker,
                                              profile_replica_boots,
                                              run_ringflood)

    # replicas boot before the sessions open: their events and counters
    # must not pollute the victim's numbers
    profile = profile_replica_boots(3, seed=23, nr_slots=8)
    with trace.session(categories=("iommu", "dkasan")) as recorder:
        with metrics.session() as registry:
            dkasan = DKasan(512 << 20)
            victim = Kernel(seed=23, boot_index=5, phys_mb=512,
                            sink=dkasan)
            nic = victim.add_nic("eth0")
            device = make_attacker(victim, "eth0")
            run_ringflood(victim, nic, device, profile, nr_slots=8)
            samples = registry.samples()
    return samples, recorder, dkasan


def test_ringflood_stale_hits_match_trace(ringflood_observed):
    samples, recorder, _dkasan = ringflood_observed
    assert recorder.dropped == 0
    counts = event_counts(recorder.events)
    stale = _value(samples, "iommu", "iotlb_stale_hits")
    assert stale > 0                      # the attack's core mechanism
    assert stale == counts[("iommu", "stale_hit")]


def test_ringflood_dkasan_metrics_match_report(ringflood_observed):
    samples, _recorder, dkasan = ringflood_observed
    from repro.core.dkasan.sanitizer import EVENT_KINDS

    report = dkasan.summary_counts()
    assert sum(report.values()) > 0
    for kind in EVENT_KINDS:
        assert _value(samples, "dkasan", "events",
                      kind=kind) == report.get(kind, 0)
    assert _value(samples, "dkasan", "events_all") == len(dkasan.events)


def test_metrics_counters_survive_trace_ring_drops():
    """The ring drops the oldest events under pressure; the registry's
    pulled counters never lose counts."""
    from repro.sim.workload import run_compile_and_ping

    with trace.session(capacity=32) as recorder:
        with metrics.session() as registry:
            kernel = Kernel(seed=7, phys_mb=256, boot_jitter_pages=0,
                            boot_jitter_blocks=0)
            nic = kernel.add_nic("eth0")
            run_compile_and_ping(kernel, nic, rounds=5)
            samples = registry.samples()
    assert recorder.dropped > 0
    on_ring = event_counts(recorder.events)
    # the pulled counters keep the totals the bounded ring dropped
    assert _value(samples, "dma", "maps") > on_ring[("dma", "map")]
    assert _value(samples, "dma", "unmaps") > on_ring[("dma", "unmap")]


def test_last_boot_owns_the_kernel_collector_slot():
    with metrics.session() as registry:
        Kernel(seed=3, phys_mb=256, boot_jitter_pages=0,
               boot_jitter_blocks=0)
        second = Kernel(seed=4, phys_mb=256, boot_jitter_pages=1,
                        boot_jitter_blocks=0)
        second.add_nic("eth0")
        samples = registry.samples()
    # the NIC exists only on the second boot: its collector won
    assert _value(samples, "net", "rx_packets", device="eth0") == 0
    assert _value(samples, "mem", "phys_bytes") == \
        second.phys.size_bytes


# -- deterministic exports ---------------------------------------------------------


def _export_compile_ping(seed: int) -> tuple[str, str]:
    from repro.sim.workload import run_compile_and_ping

    perfcache.reset_default()
    with metrics.session() as registry:
        dkasan = DKasan(256 << 20)
        kernel = Kernel(seed=seed, phys_mb=256, sink=dkasan)
        nic = kernel.add_nic("eth0")
        run_compile_and_ping(kernel, nic, rounds=5)
        text = metrics.prometheus_text(registry)
        doc = json.dumps(metrics.json_record(registry, seed=seed),
                         sort_keys=True)
    return text, doc


def test_same_seed_exports_are_byte_identical(monkeypatch):
    first = _export_compile_ping(9)
    second = _export_compile_ping(9)
    assert first == second
    # the perfcache family is zero-filled either way, so disabling the
    # cache must not change a workload export by a single byte
    monkeypatch.setenv("REPRO_CACHE", "off")
    third = _export_compile_ping(9)
    assert third == first


def test_different_seed_exports_differ():
    assert _export_compile_ping(9) != _export_compile_ping(10)


def test_export_covers_at_least_six_subsystems():
    from repro.sim.workload import run_compile_and_ping

    with metrics.session() as registry:
        dkasan = DKasan(256 << 20)
        kernel = Kernel(seed=5, phys_mb=256, sink=dkasan)
        nic = kernel.add_nic("eth0")
        run_compile_and_ping(kernel, nic, rounds=3)
        present = registry.subsystems_present()
    assert len(present) >= 6
    assert {"dma", "iommu", "net", "mem", "dkasan",
            "perfcache"} <= set(present)


# -- perfcache counters ------------------------------------------------------------


def test_perfcache_corruption_recovery_reaches_registry(tmp_path):
    cache = perfcache.configure(str(tmp_path / "cache"))
    cache.cached("findings", "k" * 64, lambda: [1, 2],
                 encode=lambda o: o, decode=lambda p: p)
    # corrupt the entry on disk, then force a disk read
    path = cache._entry_path("findings", "k" * 64)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("{torn")
    cache.drop_memory()
    assert cache.cached("findings", "k" * 64, lambda: [1, 2],
                        encode=lambda o: o,
                        decode=lambda p: p) == [1, 2]
    assert cache.stats.corrupt == 1
    with metrics.session() as registry:
        samples = registry.samples()
    assert _value(samples, "perfcache", "corrupt_recovered") == 1
    hit_ratio = _value(samples, "perfcache", "hit_ratio")
    assert 0.0 <= hit_ratio <= 1.0


def test_persisted_stats_aggregate_across_processes(tmp_path):
    directory = str(tmp_path / "cache")
    a = perfcache.PerfCache(directory)
    a.cached("parse", "a" * 64, lambda: 1,
             encode=lambda o: o, decode=lambda p: p)
    assert a.persist_stats()
    b = perfcache.PerfCache(directory)
    b.cached("parse", "a" * 64, lambda: 1,
             encode=lambda o: o, decode=lambda p: p)   # disk hit
    b._stats_name = "STATS-99999-beef.json"            # second "process"
    assert b.persist_stats()
    total = perfcache.PerfCache(directory).aggregate_persisted_stats()
    assert total.misses == 1
    assert total.disk_hits == 1
    assert total.stores == 1


# -- the metrics CLI ---------------------------------------------------------------


def test_cli_metrics_prometheus_deterministic(tmp_path, capsys):
    out_a = tmp_path / "a.prom"
    out_b = tmp_path / "b.prom"
    assert main(["metrics", "--workload", "compile-ping", "--rounds",
                 "3", "--output", str(out_a)]) == 0
    assert main(["metrics", "--workload", "compile-ping", "--rounds",
                 "3", "--output", str(out_b)]) == 0
    text = out_a.read_text()
    assert text == out_b.read_text()
    assert "repro_iommu_iotlb_lookups_total" in text
    assert "repro_dkasan_events_total" in text
    stdout = capsys.readouterr().out
    assert "subsystems" in stdout


def test_cli_metrics_proc_format(capsys):
    assert main(["metrics", "--workload", "compile-ping",
                 "--rounds", "2", "--format", "proc"]) == 0
    out = capsys.readouterr().out
    for block in ("meminfo:", "iommu_stats:", "netdev:",
                  "dkasan_stats:"):
        assert block in out
    assert "MemTotal:" in out


def test_cli_metrics_json_format(capsys):
    assert main(["metrics", "--workload", "storage",
                 "--commands", "8", "--format", "json"]) == 0
    out = capsys.readouterr().out
    payload = out[out.index("{"):]
    doc = json.loads(payload[:payload.rindex("}") + 1])
    assert doc["schema"] == "repro.metrics/1"
    assert doc["seed"] == 5
