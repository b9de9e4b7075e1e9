"""Campaign runner: parallelism, persistence, resume, crash capture."""

import json
import os

import pytest

from repro.campaign import (CampaignConfig, format_summary,
                            run_campaign, summarize)
from repro.campaign.results import (append_record, completed_seeds,
                                    failure_record, load_records)
from repro.campaign.runner import run_seed

SCALE = 0.08


def _config(tmp_path, **overrides) -> CampaignConfig:
    settings = dict(nr_seeds=3, seed_base=1, jobs=1, base_seed=2021,
                    mutations_per_seed=3, scale=SCALE,
                    output=str(tmp_path / "results.jsonl"))
    settings.update(overrides)
    return CampaignConfig(**settings)


def test_run_seed_record_shape():
    record = run_seed(4, base_seed=2021, mutations_per_seed=2,
                      scale=SCALE)
    assert record["status"] == "ok"
    assert record["seed"] == 4
    assert record["nr_sites"] > 0
    assert len(record["mutations"]) == 2
    for detector in ("spade", "dkasan"):
        assert set(record[detector]) == {"tp", "fp", "fn", "per_type"}
    json.dumps(record)  # must be JSONL-serializable as-is


def test_run_seed_is_deterministic():
    first = run_seed(4, base_seed=2021, mutations_per_seed=2,
                     scale=SCALE)
    second = run_seed(4, base_seed=2021, mutations_per_seed=2,
                      scale=SCALE)
    first.pop("duration_s")
    second.pop("duration_s")
    assert first == second


def test_inline_campaign_writes_jsonl(tmp_path):
    config = _config(tmp_path)
    seen = []
    summary = run_campaign(config, progress=seen.append)
    assert summary.nr_seeds == summary.nr_ok == 3
    assert [record["seed"] for record in seen] == [1, 2, 3]
    lines = open(config.output).read().splitlines()
    assert len(lines) == 3
    assert {json.loads(line)["seed"] for line in lines} == {1, 2, 3}


def test_parallel_campaign_matches_inline(tmp_path):
    inline = run_campaign(_config(tmp_path / "a"))
    parallel = run_campaign(_config(tmp_path / "b", jobs=2))
    assert inline.nr_sites == parallel.nr_sites
    assert inline.spade.to_json() == parallel.spade.to_json()
    assert inline.dkasan.to_json() == parallel.dkasan.to_json()
    assert inline.disagreements == parallel.disagreements


def _log_base_analyses(monkeypatch, log) -> None:
    """Append the pid of every process that builds a full (non-delta)
    SPADE analysis to *log*; forked workers inherit the patch."""
    from repro.core.spade import Spade
    original = Spade.__init__

    def init(self, tree, **kwargs):
        if kwargs.get("base") is None:
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{os.getpid()}\n")
        original(self, tree, **kwargs)

    monkeypatch.setattr(Spade, "__init__", init)


def _digests(config: CampaignConfig) -> tuple[str, str]:
    from repro.campaign.results import findings_digest
    from repro.coverage import CoverageMap, coverage_map_path
    return (findings_digest(load_records(config.output)),
            CoverageMap.load(coverage_map_path(config.output)).digest)


def test_pool_workers_inherit_the_parents_base_analysis(tmp_path,
                                                        monkeypatch):
    log = tmp_path / "analyses"
    _log_base_analyses(monkeypatch, log)
    config = _config(tmp_path, jobs=2, nr_seeds=4)
    assert run_campaign(config).all_ok
    # the parent built the base analysis once; no worker built one
    assert log.read_text().split() == [str(os.getpid())]


def test_pool_without_fork_reproduces_inline_digests(tmp_path,
                                                     monkeypatch):
    import multiprocessing
    inline = _config(tmp_path / "a", nr_seeds=4)
    assert run_campaign(inline).all_ok
    log = tmp_path / "analyses"
    _log_base_analyses(monkeypatch, log)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn", "forkserver"])
    pooled = _config(tmp_path / "b", jobs=2, nr_seeds=4)
    assert run_campaign(pooled).all_ok
    assert _digests(pooled) == _digests(inline)
    # with no fork start method each worker built its own base
    assert set(log.read_text().split()) - {str(os.getpid())}


def test_resume_skips_completed_seeds(tmp_path):
    config = _config(tmp_path)
    run_campaign(config)
    resumed = []
    summary = run_campaign(_config(tmp_path, resume=True),
                           progress=resumed.append)
    assert resumed == []  # zero redundant seed work
    assert summary.nr_ok == 3
    assert len(open(config.output).read().splitlines()) == 3


def test_resume_retries_failed_seeds(tmp_path):
    config = _config(tmp_path)
    append_record(config.output,
                  failure_record(2, "timeout", "exceeded 1s"))
    resumed = []
    summary = run_campaign(_config(tmp_path, resume=True),
                           progress=resumed.append)
    assert sorted(record["seed"] for record in resumed) == [1, 2, 3]
    assert summary.nr_ok == 3 and summary.nr_failed == 0


def test_resume_extends_campaign(tmp_path):
    run_campaign(_config(tmp_path, nr_seeds=2))
    resumed = []
    summary = run_campaign(_config(tmp_path, nr_seeds=4, resume=True),
                           progress=resumed.append)
    assert sorted(record["seed"] for record in resumed) == [3, 4]
    assert summary.nr_ok == 4


def test_crashy_seed_is_captured_not_fatal(tmp_path, monkeypatch):
    import repro.campaign.runner as runner_module

    real = runner_module.run_seed

    def flaky(seed, **kwargs):
        if seed == 2:
            raise RuntimeError("boom")
        return real(seed, **kwargs)

    monkeypatch.setattr(runner_module, "run_seed", flaky)
    summary = run_campaign(_config(tmp_path))
    assert summary.nr_ok == 2
    assert summary.nr_failed == 1
    assert summary.failures[0][0] == 2
    assert "boom" in summary.failures[0][1]
    assert not summary.all_ok


def test_load_records_tolerates_torn_line(tmp_path):
    path = tmp_path / "results.jsonl"
    append_record(str(path), failure_record(1, "error", "x"))
    with open(path, "a") as handle:
        handle.write('{"seed": 2, "status": "o')  # torn mid-crash
    records = load_records(str(path))
    assert set(records) == {1}
    assert completed_seeds(records) == set()


def test_in_memory_campaign_without_output(tmp_path):
    summary = run_campaign(_config(tmp_path, nr_seeds=2, output=None))
    assert summary.nr_ok == 2
    assert not os.path.exists(str(tmp_path / "results.jsonl"))


def test_summary_formatting_round_trip(tmp_path):
    config = _config(tmp_path)
    run_campaign(config)
    summary = summarize(load_records(config.output))
    text = format_summary(summary)
    assert "SPADE (static, per exposure label)" in text
    assert "D-KASAN (dynamic, per corpus category)" in text
    assert "precision" in text and "recall" in text
    assert "campaign: 3 seeds (3 ok, 0 failed)" in text


def test_config_seed_list():
    config = CampaignConfig(nr_seeds=3, seed_base=10)
    assert config.seeds == [10, 11, 12]
