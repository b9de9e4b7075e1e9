"""Unit tests for the metrics registry and exporters."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import metrics
from repro.errors import MetricsError
from repro.metrics import Histogram, MetricsRegistry
from repro.metrics.export import json_record, prometheus_text
from repro.metrics.registry import pow2_bucket


@pytest.fixture(autouse=True)
def _registry_slot_clean():
    assert metrics.active() is None
    yield
    metrics.uninstall()


# -- instruments -------------------------------------------------------------------


def test_counter_inc_and_pull_set():
    registry = MetricsRegistry()
    counter = registry.counter("dma", "maps")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    counter.set(17)   # pull-model overwrite
    assert counter.value == 17
    with pytest.raises(MetricsError):
        counter.inc(-1)
    with pytest.raises(MetricsError):
        counter.set(-3)


def test_gauge_moves_both_ways():
    gauge = MetricsRegistry().gauge("mem", "free_pages")
    gauge.set(10)
    gauge.inc(5)
    gauge.dec(12)
    assert gauge.value == 3


def test_histogram_pow2_buckets():
    hist = MetricsRegistry().histogram("spade", "parse_seconds")
    hist.observe(0.25)    # < 1 -> bucket 0
    hist.observe(1)       # [1, 2) -> bucket 1
    hist.observe(3)       # [2, 4) -> bucket 2
    hist.observe(3.5)
    hist.observe(-2)      # clamped to bucket 0
    assert hist.buckets == {0: 2, 1: 1, 2: 2}
    assert hist.count == 5
    assert hist.min == -2
    assert hist.max == 3.5
    assert hist.to_json()["buckets"] == {"0": 2, "1": 1, "2": 2}


def _coverage_bucket(value):
    """The coverage signature's own bucket function before it shared
    :func:`pow2_bucket`, kept as the reference."""
    if value >= 1:
        return int(value).bit_length()
    return 0


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.integers(-(1 << 40), 1 << 40),
                 st.floats(allow_nan=False, allow_infinity=False,
                           min_value=-1e15, max_value=1e15),
                 st.floats(-1.0, 1.0),
                 st.sampled_from((0, 0.0, -0.0, 0.5, 0.999999, 1, 1.0,
                                  1.5, 2, -1, -0.5))))
def test_pow2_bucket_matches_the_coverage_bucket(value):
    """One bucket function serves the metrics histograms and the
    coverage signature: it must give the index the signature's old
    helper gave, or coverage digests would move."""
    assert pow2_bucket(value) == _coverage_bucket(value)
    hist = Histogram()
    hist.observe(value)
    assert hist.buckets == {pow2_bucket(value): 1}


def test_labeled_family_instruments_are_distinct():
    registry = MetricsRegistry()
    hit = registry.counter("iommu", "iotlb_lookups", result="hit")
    miss = registry.counter("iommu", "iotlb_lookups", result="miss")
    assert hit is not miss
    hit.inc(3)
    assert registry.counter("iommu", "iotlb_lookups",
                            result="hit").value == 3
    assert miss.value == 0
    assert len(registry) == 2


def test_kind_collision_raises():
    registry = MetricsRegistry()
    registry.counter("net", "rx_packets")
    with pytest.raises(MetricsError):
        registry.gauge("net", "rx_packets")


def test_unknown_subsystem_raises():
    with pytest.raises(MetricsError):
        MetricsRegistry().counter("nope", "things")


def test_collector_slots_last_wins():
    registry = MetricsRegistry()
    registry.register_collector(
        lambda r: r.gauge("sim", "boot_marker").set(1), slot="kernel")
    registry.register_collector(
        lambda r: r.gauge("sim", "boot_marker").set(2), slot="kernel")
    registry.collect()
    assert registry.gauge("sim", "boot_marker").value == 2


# -- install / session / env gate --------------------------------------------------


def test_double_install_raises():
    metrics.install()
    with pytest.raises(MetricsError):
        metrics.install()


def test_session_installs_and_uninstalls():
    with metrics.session() as registry:
        assert metrics.active() is registry
        metrics.count("campaign", "seeds", status="ok")
        assert registry.counter("campaign", "seeds",
                                status="ok").value == 1
    assert metrics.active() is None


def test_helpers_are_noops_when_inactive():
    metrics.count("dma", "maps")
    metrics.observe("spade", "analyze_seconds", 0.1)
    metrics.set_gauge("mem", "free_pages", 9)
    assert metrics.active() is None


# -- exporters ---------------------------------------------------------------------


def _toy_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("dma", "maps").set(7)
    registry.counter("iommu", "iotlb_lookups", result="hit").set(5)
    registry.counter("iommu", "iotlb_lookups", result="miss").set(2)
    registry.gauge("mem", "free_pages").set(1.5)
    hist = registry.histogram("spade", "analyze_seconds")
    hist.observe(0.5)
    hist.observe(3)
    return registry


def test_prometheus_text_shape():
    text = prometheus_text(_toy_registry())
    lines = text.splitlines()
    assert "# TYPE repro_dma_maps_total counter" in lines
    assert "repro_dma_maps_total 7" in lines
    # one TYPE line per family, label values sorted and quoted
    assert lines.count(
        "# TYPE repro_iommu_iotlb_lookups_total counter") == 1
    assert 'repro_iommu_iotlb_lookups_total{result="hit"} 5' in lines
    assert 'repro_iommu_iotlb_lookups_total{result="miss"} 2' in lines
    assert "repro_mem_free_pages 1.5" in lines
    # cumulative histogram buckets up to +Inf
    assert 'repro_spade_analyze_seconds_bucket{le="1"} 1' in lines
    assert 'repro_spade_analyze_seconds_bucket{le="2"} 1' in lines
    assert 'repro_spade_analyze_seconds_bucket{le="4"} 2' in lines
    assert 'repro_spade_analyze_seconds_bucket{le="+Inf"} 2' in lines
    assert "repro_spade_analyze_seconds_sum 3.5" in lines
    assert "repro_spade_analyze_seconds_count 2" in lines
    assert text.endswith("\n")


def test_prometheus_label_escaping():
    registry = MetricsRegistry()
    registry.counter("net", "rx_packets", device='e"t\\h\n0').set(1)
    text = prometheus_text(registry)
    assert r'device="e\"t\\h\n0"' in text


def test_json_record_roundtrips():
    doc = json_record(_toy_registry(), seed=9)
    assert doc["schema"] == "repro.metrics/1"
    assert doc["seed"] == 9
    json.loads(json.dumps(doc))  # fully serializable
    by_name = {(m["subsystem"], m["name"], tuple(sorted(
        m["labels"].items()))): m for m in doc["metrics"]}
    assert by_name[("dma", "maps", ())]["value"] == 7
    hist = by_name[("spade", "analyze_seconds", ())]["histogram"]
    assert hist["count"] == 2


def test_samples_are_sorted_subsystem_then_name():
    samples = _toy_registry().samples()
    order = [(s.subsystem, s.name) for s in samples]
    assert order == [("dma", "maps"),
                     ("iommu", "iotlb_lookups"),
                     ("iommu", "iotlb_lookups"),
                     ("mem", "free_pages"),
                     ("spade", "analyze_seconds")]
