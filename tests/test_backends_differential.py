"""Cross-backend differential campaigns and per-backend BENCH history
lanes."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import (backend_results_path,
                            cross_backend_disagreements,
                            cross_results_path,
                            format_multi_backend_summary,
                            run_multi_backend_campaign)
from repro.campaign.results import (_VOLATILE_KEYS, findings_digest,
                                    load_records)
from repro.campaign.runner import CampaignConfig, run_seed
from repro.errors import CampaignError

SCALE = 0.06


# -- the pure diff ----------------------------------------------------------

def ok_record(**extra) -> dict:
    record = {"status": "ok", "disagreements": []}
    record.update(extra)
    return record


def test_cross_disagreements_window_kind():
    cross = cross_backend_disagreements({
        "intel-vtd": {1: ok_record()},  # no window_sites: all closed
        "arm-smmuv3": {1: ok_record(
            window_sites={"a.c:10": True, "b.c:20": False})},
    })
    assert cross == [{
        "kind": "backend-window", "seed": 1, "path": "a.c", "line": 10,
        "site": "a.c:10",
        "windows": {"arm-smmuv3": True, "intel-vtd": False}}]


def test_cross_disagreements_verdict_kind():
    cross = cross_backend_disagreements({
        "amd-vi": {3: ok_record(disagreements=[
            {"path": "x.c", "line": 7, "verdict": "spade-only"}])},
        "virtio-iommu": {3: ok_record(disagreements=[])},
    })
    assert len(cross) == 1
    assert cross[0]["kind"] == "backend-verdict"
    assert cross[0]["site"] == "x.c:7"
    assert cross[0]["verdicts"] == {"amd-vi": "spade-only",
                                    "virtio-iommu": None}


def test_cross_disagreements_skips_failed_seeds():
    cross = cross_backend_disagreements({
        "intel-vtd": {1: {"status": "error", "error": "boom"}},
        "arm-smmuv3": {1: ok_record(window_sites={"a.c:10": True})},
    })
    assert cross == []  # seed 1 incomplete on intel-vtd: nothing to diff


def test_cross_disagreements_agreement_is_silent():
    cross = cross_backend_disagreements({
        "arm-smmuv3": {1: ok_record(window_sites={"a.c:10": True})},
        "amd-vi": {1: ok_record(window_sites={"a.c:10": True})},
    })
    assert cross == []


def test_result_paths():
    assert backend_results_path("out/run.jsonl", "amd-vi") == \
        "out/run.amd-vi.jsonl"
    assert cross_results_path("out/run.jsonl") == "out/run.cross.jsonl"
    assert backend_results_path("run", "arm-smmuv3") == \
        "run.arm-smmuv3.jsonl"


# -- the end-to-end campaign ------------------------------------------------

def test_multi_backend_campaign_validates_inputs():
    config = CampaignConfig(nr_seeds=1, output="x.jsonl")
    with pytest.raises(CampaignError, match="at least two distinct"):
        run_multi_backend_campaign(config, ["intel-vtd", "intel-vtd"])
    with pytest.raises(CampaignError, match="--output stem"):
        run_multi_backend_campaign(
            CampaignConfig(nr_seeds=1, output=None),
            ["intel-vtd", "arm-smmuv3"])


def test_multi_backend_campaign_end_to_end(tmp_path):
    """The acceptance lever: intel-vtd vs arm-smmuv3 must disagree on
    windows, and the intel-vtd lane must equal a plain default run."""
    output = str(tmp_path / "run.jsonl")
    config = CampaignConfig(nr_seeds=2, seed_base=1, jobs=1,
                            mutations_per_seed=2, scale=SCALE,
                            output=output, trace_events=0)
    seen = []
    multi = run_multi_backend_campaign(
        config, ["intel-vtd", "arm-smmuv3"],
        progress=lambda name, record: seen.append((name, record["seed"])))

    assert multi.all_ok
    assert multi.backends == ["intel-vtd", "arm-smmuv3"]
    assert sorted(seen) == [("arm-smmuv3", 1), ("arm-smmuv3", 2),
                            ("intel-vtd", 1), ("intel-vtd", 2)]

    # >= 1 backend-dependent disagreement, persisted as sorted JSONL
    assert multi.nr_cross >= 1
    assert any(record["kind"] == "backend-window"
               for record in multi.cross)
    with open(multi.cross_output, encoding="utf-8") as handle:
        lines = [json.loads(line) for line in handle]
    assert lines == multi.cross
    for record in lines:
        if record["kind"] == "backend-window":
            assert set(record["windows"]) == {"intel-vtd", "arm-smmuv3"}

    # the intel-vtd lane is byte-identical to a plain default run
    plain = {seed: run_seed(seed, mutations_per_seed=2, scale=SCALE,
                            trace_events=0)
             for seed in (1, 2)}
    assert multi.digests["intel-vtd"] == findings_digest(plain)
    assert multi.digests["intel-vtd"] != multi.digests["arm-smmuv3"]

    # every per-backend record replays bit-for-bit with run_seed
    arm_records = load_records(multi.outputs["arm-smmuv3"])
    replayed = run_seed(1, mutations_per_seed=2, scale=SCALE,
                        trace_events=0, backend="arm-smmuv3")
    strip = lambda record: {key: value for key, value in record.items()
                            if key not in _VOLATILE_KEYS}
    assert strip(replayed) == strip(arm_records[1])

    summary_text = format_multi_backend_summary(multi)
    assert "backend-window" in summary_text
    assert os.path.basename(multi.cross_output) == "run.cross.jsonl"


# -- BENCH history lanes ----------------------------------------------------

def bench_report(**extra) -> dict:
    report = {
        "spade": {"scale": 1.0, "corpus_seed": 2021, "nr_files": 10},
        "campaign": {"scale": 0.1,
                     "runs": [{"jobs": 1, "nr_seeds": 4}]},
        "kernel": {"nr_events": 50_000, "rounds": 3},
        "ok": True, "timestamp": "t", "version": "v",
    }
    report.update(extra)
    return report


def test_history_signature_gains_backend_suffix():
    from repro.perfcache.history import config_signature, history_record

    default = bench_report()
    tagged = bench_report(backend="arm-smmuv3")
    assert "backend=" not in config_signature(default)
    assert config_signature(tagged).endswith(",backend=arm-smmuv3")
    assert config_signature(tagged) != config_signature(default)
    # same-backend runs still share one lane
    assert config_signature(tagged) == \
        config_signature(bench_report(backend="arm-smmuv3"))

    assert "backend" not in history_record(default)
    assert history_record(tagged)["backend"] == "arm-smmuv3"
