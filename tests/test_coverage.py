"""repro.coverage: deterministic signatures, the persistent map,
saturation tracking, and the observability wiring around them."""

import json
import warnings

import pytest

from repro.campaign import (CampaignConfig, format_summary,
                            run_campaign)
from repro.campaign.results import load_records
from repro.campaign.runner import run_seed
from repro.campaign.shard import (format_seed_ranges, merge_shards,
                                  missing_seeds_message,
                                  run_sharded_campaign,
                                  shard_results_path)
from repro.coverage import (CoverageCollector, CoverageMap,
                            SaturationTracker, coverage_digest,
                            coverage_lane, coverage_map_path,
                            feature_group, format_saturation)
from repro.errors import CampaignError

SCALE = 0.08


def _config(tmp_path, **overrides) -> CampaignConfig:
    settings = dict(nr_seeds=3, seed_base=1, jobs=1, base_seed=2021,
                    mutations_per_seed=3, scale=SCALE,
                    output=str(tmp_path / "results.jsonl"))
    settings.update(overrides)
    return CampaignConfig(**settings)


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One shared jobs=1 campaign every determinism test compares to."""
    tmp = tmp_path_factory.mktemp("cov-baseline")
    config = _config(tmp)
    summary = run_campaign(config)
    assert summary.all_ok
    return config, summary


def _coverage_by_seed(path: str) -> dict[int, dict]:
    return {seed: record["coverage"]
            for seed, record in load_records(path).items()
            if record.get("status") == "ok"}


# -- the signature ----------------------------------------------------------

def test_run_seed_coverage_is_deterministic():
    first = run_seed(4, base_seed=2021, mutations_per_seed=2,
                     scale=SCALE)
    second = run_seed(4, base_seed=2021, mutations_per_seed=2,
                      scale=SCALE)
    assert first["coverage"] == second["coverage"]
    assert len(first["coverage"]["digest"]) == 64
    assert first["coverage"]["nr_features"] == \
        len(first["coverage"]["features"])


def test_signature_is_independent_of_ring_capacity():
    # the collector streams events before the drop-oldest ring evicts,
    # so --trace-events 0 and --trace-events 64 must agree
    untraced = run_seed(4, base_seed=2021, mutations_per_seed=2,
                        scale=SCALE, trace_events=0)
    traced = run_seed(4, base_seed=2021, mutations_per_seed=2,
                      scale=SCALE, trace_events=64)
    assert untraced["coverage"] == traced["coverage"]


def test_coverage_opt_out_drops_the_record_field():
    record = run_seed(4, base_seed=2021, mutations_per_seed=2,
                      scale=SCALE, coverage=False)
    assert record["status"] == "ok"
    assert "coverage" not in record


def test_digest_is_backend_aware_and_default_normalized():
    features = {"dma/map": 3, "iommu/stale_hit": 1}
    assert coverage_lane(None) == "intel-vtd"
    assert coverage_digest(features) == \
        coverage_digest(features, backend="intel-vtd")
    assert coverage_digest(features) != \
        coverage_digest(features, backend="arm-smmuv3")


def test_feature_group_prefix():
    assert feature_group("dma/map") == "dma"
    assert feature_group("site/stack@a.c:3") == "site"
    assert feature_group("bare") == "other"


def test_collector_derives_iotlb_window_and_site_features():
    from repro.trace.recorder import TraceRecorder
    recorder = TraceRecorder(capacity=4)
    recorder.bind_clock(type("Clock", (), {"now_us": 0.0})())
    collector = CoverageCollector()
    recorder.add_observer(collector.feed)
    clock = recorder._clock
    recorder.emit("iommu", "stale_hit", write=True, iova=0)
    recorder.emit("iommu", "stale_hit", write=False, iova=0)
    recorder.emit("iommu", "fq_defer", iova_pfn=1, nr_pending=1)
    clock.now_us = 10.0
    recorder.emit("iommu", "fq_drain", nr_pending=5, iotlb_dropped=2)
    recorder.emit("iommu", "inv_sync", iova_pfn=2)
    recorder.emit("dkasan", "stack", site="a.c:3")
    recorder.emit("dma", "map", iova=0)
    features = collector.features
    assert features["iotlb/stale-write"] == 1
    assert features["iotlb/stale-read"] == 1
    assert features["window/b4"] == 1          # 10us -> bucket 4
    assert features["iotlb/drain-drop:b2"] == 1
    assert features["iotlb/drain-batch:b3"] == 1
    assert features["window/sync"] == 1
    assert features["site/stack@a.c:3"] == 1
    assert features["dma/map"] == 1
    # ring capacity 4 wrapped twice over -- irrelevant to the stream
    assert recorder.nr_events <= 4


# -- campaign wiring --------------------------------------------------------

def test_campaign_attaches_coverage_and_saves_the_map(baseline):
    config, summary = baseline
    by_seed = _coverage_by_seed(config.output)
    assert set(by_seed) == {1, 2, 3}
    for coverage in by_seed.values():
        assert set(coverage) == {"digest", "nr_features", "features"}
    assert summary.coverage_seeds == 3
    assert summary.coverage_features == len(
        {name for cov in by_seed.values() for name in cov["features"]})
    assert f"coverage: {summary.coverage_features} unique features" \
        in format_summary(summary)
    saved = CoverageMap.load(coverage_map_path(config.output))
    assert saved.digest == CoverageMap.from_results(config.output).digest


def test_parallel_campaign_coverage_matches_inline(baseline, tmp_path):
    config, _summary = baseline
    parallel = _config(tmp_path, jobs=2)
    assert run_campaign(parallel).all_ok
    assert _coverage_by_seed(parallel.output) == \
        _coverage_by_seed(config.output)
    assert open(coverage_map_path(parallel.output)).read() == \
        open(coverage_map_path(config.output)).read()


def test_sharded_merge_map_is_byte_identical(baseline, tmp_path):
    config, _summary = baseline
    sharded = _config(tmp_path)
    run_sharded_campaign(sharded, str(tmp_path / "queue"),
                         shard_size=2)
    merge_shards(sharded, shard_size=2)
    assert _coverage_by_seed(sharded.output) == \
        _coverage_by_seed(config.output)
    assert open(coverage_map_path(sharded.output)).read() == \
        open(coverage_map_path(config.output)).read()


def test_recoverable_fault_plan_keeps_coverage_identical(baseline,
                                                         tmp_path):
    from repro.faults import FaultSpec, SiteRule
    config, _summary = baseline
    spec = FaultSpec([SiteRule("campaign.worker.crash", at_steps=(0,),
                               on_attempt=0)])
    faulted = _config(tmp_path, fault_spec=spec.to_json(), retry=1)
    assert run_campaign(faulted).all_ok
    assert _coverage_by_seed(faulted.output) == \
        _coverage_by_seed(config.output)
    assert open(coverage_map_path(faulted.output)).read() == \
        open(coverage_map_path(config.output)).read()


def test_campaign_publishes_coverage_metrics(tmp_path):
    from repro import metrics
    config = _config(tmp_path, nr_seeds=2)
    with metrics.session() as registry:
        run_campaign(config)
        sample_names = {(s.subsystem, s.name)
                        for s in registry.samples()}
    assert ("coverage", "features_total") in sample_names
    assert ("coverage", "novel_features") in sample_names
    assert ("coverage", "saturation_seeds") in sample_names


# -- the map ----------------------------------------------------------------

def _record(seed, features, status="ok", backend=None):
    coverage = {"digest": coverage_digest(features, backend=backend),
                "features": features}
    record = {"seed": seed, "status": status, "coverage": coverage}
    if backend:
        record["backend"] = backend
    return record


def test_map_observe_counts_only_map_wide_novelty():
    cover = CoverageMap()
    assert cover.observe_record(
        _record(1, {"dma/map": 2, "dma/unmap": 2})) == 2
    assert cover.observe_record(
        _record(2, {"dma/map": 9, "iommu/stale_hit": 1})) == 1
    assert cover.observe_record(_record(3, {"dma/map": 1})) == 0
    assert cover.nr_features == 3
    assert cover.nr_seeds == 3


def test_map_ignores_failed_and_coverage_free_records():
    cover = CoverageMap()
    assert cover.observe_record({"seed": 1, "status": "error"}) == 0
    assert cover.observe_record(
        _record(2, {"dma/map": 1}, status="timeout")) == 0
    assert cover.observe_record({"seed": 3, "status": "ok"}) == 0
    assert cover.nr_seeds == 0


def test_map_merge_is_commutative_and_idempotent():
    a = CoverageMap()
    a.observe_record(_record(1, {"dma/map": 1}))
    a.observe_record(_record(2, {"dma/unmap": 1},
                             backend="arm-smmuv3"))
    b = CoverageMap()
    b.observe_record(_record(3, {"iommu/stale_hit": 1}))
    ab = CoverageMap()
    ab.merge(a)
    assert ab.merge(b) == 1
    ba = CoverageMap()
    ba.merge(b)
    ba.merge(a)
    assert ab.canonical() == ba.canonical()
    assert ab.merge(b) == 0                     # idempotent
    assert ab.lanes == ["arm-smmuv3", "intel-vtd"]


def test_map_save_load_round_trip_and_schema_gate(tmp_path):
    cover = CoverageMap()
    cover.observe_record(_record(7, {"dma/map": 4, "window/b3": 1}))
    path = str(tmp_path / "map.coverage.json")
    cover.save(path)
    loaded = CoverageMap.load(path)
    assert loaded.canonical() == cover.canonical()
    assert loaded.digest == cover.digest
    with open(path, "w") as handle:
        json.dump({"schema": 99, "lanes": {}}, handle)
    with pytest.raises(CampaignError):
        CoverageMap.load(path)


def test_map_first_seen_is_order_free():
    cover = CoverageMap()
    cover.observe_record(_record(5, {"dma/map": 1}))
    cover.observe_record(_record(2, {"dma/map": 1}))
    stats = cover.feature_stats()
    assert stats["dma/map"] == {"count": 2, "nr_seeds": 2,
                                "first_seen": ["intel-vtd", 2]}


def test_map_seed_ranking_prefers_unique_features():
    cover = CoverageMap()
    cover.observe_record(_record(1, {"dma/map": 1}))
    cover.observe_record(_record(2, {"dma/map": 1,
                                     "iommu/stale_hit": 1}))
    top = cover.seed_ranking()[0]
    assert (top["seed"], top["unique_features"]) == (2, 1)


def test_coverage_map_path_rides_beside_the_results():
    assert coverage_map_path("campaign/results.jsonl") == \
        "campaign/results.coverage.json"


# -- saturation -------------------------------------------------------------

def test_saturation_tracker_rates_and_plateau():
    clock = [0.0]
    tracker = SaturationTracker(plateau_after=2,
                                clock=lambda: clock[0])
    clock[0] = 2.0
    tracker.feed(10)
    assert tracker.new_features_per_s == 5.0
    assert tracker.new_features_per_seed == 10.0
    assert not tracker.plateaued
    tracker.feed(0)
    tracker.feed(0)
    assert tracker.plateaued
    line = format_saturation(tracker)
    assert "coverage: 10 features" in line
    assert "PLATEAU (2 seeds without a new feature)" in line
    tracker.feed(1)
    assert not tracker.plateaued


def test_render_coverage_stats_block():
    from repro.report import render_coverage_stats
    cover = CoverageMap()
    cover.observe_record(_record(1, {"dma/map": 3, "site/stack@a:1": 1}))
    text = render_coverage_stats(cover)
    assert text.startswith("coverage_stats:")
    assert "Features:" in text and "lane intel-vtd" in text
    assert "Group_dma:" in text and "Group_site:" in text


# -- CLI --------------------------------------------------------------------

def test_cli_report_diff_merge_top(baseline, tmp_path, capsys):
    from repro.cli import main
    config, _summary = baseline
    map_path = coverage_map_path(config.output)

    assert main(["coverage", "report", map_path]) == 0
    out = capsys.readouterr().out
    assert "coverage_stats:" in out
    nr_subsystems = int(out.split("subsystems represented: ")[1]
                        .split(" ")[0])
    assert nr_subsystems >= 4

    # a results .jsonl is accepted wherever a map is (same content)
    assert main(["coverage", "report", config.output]) == 0
    assert "coverage_stats:" in capsys.readouterr().out

    assert main(["coverage", "diff", map_path, map_path]) == 0
    out = capsys.readouterr().out
    assert f"only in {map_path}: 0" in out

    half = CoverageMap.from_records(
        {seed: record for seed, record
         in load_records(config.output).items() if seed <= 1})
    rest = CoverageMap.from_records(
        {seed: record for seed, record
         in load_records(config.output).items() if seed > 1})
    half_path, rest_path = (str(tmp_path / "half.coverage.json"),
                            str(tmp_path / "rest.coverage.json"))
    half.save(half_path)
    rest.save(rest_path)
    merged_path = str(tmp_path / "merged.coverage.json")
    assert main(["coverage", "merge", half_path, rest_path,
                 "--output", merged_path]) == 0
    capsys.readouterr()
    assert open(merged_path).read() == open(map_path).read()

    assert main(["coverage", "top", map_path, "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "unique=" in out and len(out.strip().splitlines()) == 3


def test_cli_coverage_bad_input(tmp_path, capsys):
    from repro.cli import main
    missing = str(tmp_path / "nope.coverage.json")
    assert main(["coverage", "report", missing]) == 2
    assert "coverage report:" in capsys.readouterr().err


# -- satellite: merge names its missing seeds -------------------------------

def test_format_seed_ranges_compresses_runs():
    assert format_seed_ranges([3, 4, 5, 6, 7, 12, 40, 41]) == \
        "3-7, 12, 40-41"
    assert format_seed_ranges([9]) == "9"
    assert format_seed_ranges([]) == ""


def test_missing_seeds_message_names_the_ids():
    message = missing_seeds_message([4, 5, 6, 9])
    assert "missing 4 seed(s)" in message
    assert "4-6, 9" in message


def test_merge_reports_missing_seed_ids(tmp_path, capsys):
    config = _config(tmp_path, nr_seeds=4)
    # only seeds 1-2 ever ran: shard 1 (seeds 3-4) has no results file
    partial = _config(tmp_path, nr_seeds=2,
                      output=shard_results_path(config.output, 0))
    assert run_campaign(partial).all_ok
    seen = []
    merge_shards(config, shard_size=2, on_missing=seen.append)
    assert seen == [[3, 4]]
    # the default path prints the enriched message to stderr
    merge_shards(config, shard_size=2)
    err = capsys.readouterr().err
    assert "missing 2 seed(s): 3-4" in err


def test_cli_campaign_merge_surfaces_missing_seeds(tmp_path, capsys):
    from repro.cli import main
    output = str(tmp_path / "results.jsonl")
    partial = _config(tmp_path, nr_seeds=2,
                      output=shard_results_path(output, 0))
    assert run_campaign(partial).all_ok
    code = main(["campaign", "--merge", "--seeds", "4",
                 "--shard-size", "2", "--scale", str(SCALE),
                 "--mutations", "3", "--output", output,
                 "--cache-dir", "", "--heartbeat-dir", ""])
    captured = capsys.readouterr()
    assert "missing 2 seed(s): 3-4" in captured.err
    # merge still succeeds over what is there: the present records are
    # all ok, so the exit code stays 0 and the gap lives on stderr
    assert code == 0


# -- satellite: torn trailing trace line ------------------------------------

def test_load_jsonl_heals_a_torn_trailing_line(tmp_path):
    from repro.trace.export import load_jsonl
    path = str(tmp_path / "trace.jsonl")
    good = [{"seq": 0, "ts_us": 1.0, "cat": "dma", "name": "map",
             "ph": "i", "args": {}},
            {"seq": 1, "ts_us": 2.0, "cat": "dma", "name": "unmap",
             "ph": "i", "args": {}}]
    body = "".join(json.dumps(record) + "\n" for record in good)
    with open(path, "w") as handle:
        handle.write(body + '{"seq": 2, "ts_us": 3.0, "cat": "dm')
    with pytest.warns(UserWarning, match=f"byte {len(body)}"):
        events, summary = load_jsonl(path)
    assert [event.seq for event in events] == [0, 1]
    assert summary is None


def test_load_jsonl_still_raises_on_interior_corruption(tmp_path):
    from repro.trace.export import load_jsonl
    path = str(tmp_path / "trace.jsonl")
    with open(path, "w") as handle:
        handle.write('{"seq": 0, "ts_us": 1.0, "cat": "dma"\n')
        handle.write(json.dumps({"seq": 1, "ts_us": 2.0, "cat": "dma",
                                 "name": "unmap", "ph": "i",
                                 "args": {}}) + "\n")
    with pytest.raises(json.JSONDecodeError):
        load_jsonl(path)


def test_load_jsonl_intact_file_emits_no_warning(tmp_path):
    from repro.trace.export import load_jsonl
    path = str(tmp_path / "trace.jsonl")
    with open(path, "w") as handle:
        handle.write(json.dumps({"seq": 0, "ts_us": 1.0, "cat": "dma",
                                 "name": "map", "ph": "i",
                                 "args": {}}) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        events, _summary = load_jsonl(path)
    assert len(events) == 1


# -- satellite: analysis helpers never raise on empty/wrapped rings ---------

def test_analysis_helpers_tolerate_empty_recorder():
    from repro.trace.analysis import (derive_invalidation_windows,
                                      event_counts,
                                      stale_access_count)
    from repro.trace.recorder import TraceRecorder
    recorder = TraceRecorder(capacity=8)
    assert event_counts(recorder.events) == {}
    assert stale_access_count(recorder.events) == 0
    windows = derive_invalidation_windows(recorder.events)
    assert windows.nr_windows == 0 and windows.nr_unpaired == 0


def test_analysis_helpers_tolerate_wrapped_ring():
    from repro.trace.analysis import (derive_invalidation_windows,
                                      event_counts,
                                      stale_access_count)
    from repro.trace.recorder import TraceRecorder
    recorder = TraceRecorder(capacity=4)
    recorder.bind_clock(type("Clock", (), {"now_us": 0.0})())
    # wrap the drop-oldest ring: the fq_defer is evicted, leaving a
    # drain with no visible opener plus newer stale hits
    recorder.emit("iommu", "fq_defer", iova_pfn=1, nr_pending=1)
    for _ in range(4):
        recorder.emit("iommu", "stale_hit", write=False, iova=0)
    recorder.emit("iommu", "fq_drain", nr_pending=1, iotlb_dropped=0)
    assert recorder.dropped > 0
    events = recorder.events
    counts = event_counts(events)
    assert counts[("iommu", "stale_hit")] == 3
    assert counts[("iommu", "fq_drain")] == 1
    assert stale_access_count(events) == 3
    windows = derive_invalidation_windows(events)
    assert windows.nr_windows == 0 and windows.nr_unpaired == 0
