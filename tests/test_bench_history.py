"""Bench trajectory: BENCH_history.jsonl records and the regression gate."""

import json
import os

import pytest

from repro.cli import main
from repro.perfcache import history


def _report(*, cold_s=1.0, warm_disk_s=0.1, scale=0.5, ok=True) -> dict:
    return {
        "schema": 2,
        "version": "1.4.0",
        "timestamp": "2026-08-06T12:00:00Z",
        "spade": {"scale": scale, "corpus_seed": 2021, "nr_files": 10,
                  "nr_findings": 4, "uncached_s": cold_s * 0.9,
                  "cold_s": cold_s, "warm_disk_s": warm_disk_s,
                  "warm_memory_s": warm_disk_s / 10,
                  "speedup_disk": 9.0, "speedup_memory": 90.0,
                  "warm_disk_stats": {}, "mismatches": []},
        "campaign": {"scale": 0.08,
                     "runs": [{"jobs": 1, "nr_seeds": 2,
                               "elapsed_s": 0.5, "seeds_per_s": 4.0,
                               "nr_ok": 2}]},
        "checks": {"warm_faster_than_cold": True,
                   "cached_findings_identical": True},
        "ok": ok,
    }


def test_signature_separates_configurations():
    assert history.config_signature(_report(scale=0.5)) != \
        history.config_signature(_report(scale=1.0))
    assert history.config_signature(_report()) == \
        history.config_signature(_report(cold_s=99.0))


def test_tracked_metrics_flatten():
    tracked = history.tracked_metrics(_report(cold_s=2.0))
    assert tracked["spade_cold_s"] == 2.0
    assert tracked["campaign_seeds_per_s_jobs1"] == 4.0


def test_history_roundtrip_skips_torn_lines(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    record = history.history_record(_report())
    history.append_history(path, record)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("{torn json\n")
        handle.write(json.dumps({"schema": 99}) + "\n")
    history.append_history(path, record)
    assert len(history.load_history(path)) == 2
    assert history.load_history(path,
                                signature=record["signature"]) \
        == [record, record]
    assert history.load_history(path, signature="scale=other") == []
    assert history.load_history(str(tmp_path / "missing.jsonl")) == []


def test_committed_history_matches_a_default_sized_report():
    """``BENCH_history.jsonl`` keeps gating a default-sized bench run:
    its sealed records carry the signature such a run computes."""
    report = _scaling_report()
    report["spade"]["scale"] = 1.0
    report["campaign"]["scale"] = 0.1
    signature = history.config_signature(report)
    assert signature == ("scale=1.0,corpus_seed=2021,campaign_scale=0.1,"
                         "campaign_jobs=1x2x4")
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_history.jsonl")
    records = history.load_history(path, signature=signature)
    assert len(records) >= 11
    assert all(record["metrics"]["campaign_seeds_per_s_jobs1"] > 0
               for record in records)


def _gate(current_report, prior_reports, **kwargs):
    record = history.history_record(current_report)
    prior = [history.history_record(r) for r in prior_reports]
    return history.check_regressions(record, prior, **kwargs)


def test_injected_2x_slowdown_is_flagged():
    priors = [_report(cold_s=1.0)] * 3
    regressions = _gate(_report(cold_s=2.0), priors)
    names = {r.metric for r in regressions}
    assert "spade_cold_s" in names
    slow = next(r for r in regressions if r.metric == "spade_cold_s")
    assert slow.direction == "slower"
    assert slow.ratio == pytest.approx(2.0)
    assert "2.00x slower" in slow.describe()


def test_within_threshold_passes():
    priors = [_report(cold_s=1.0)] * 3
    assert _gate(_report(cold_s=1.2), priors) == []
    assert _gate(_report(cold_s=0.5), priors) == []   # faster is fine


def test_empty_history_gates_nothing():
    assert _gate(_report(cold_s=50.0), []) == []


def test_window_bounds_the_median():
    # 10 fast old runs pushed out of a window of 3 by slow recent runs
    priors = [_report(cold_s=0.1)] * 10 + [_report(cold_s=1.0)] * 3
    assert _gate(_report(cold_s=1.2), priors, window=3) == []
    regressions = _gate(_report(cold_s=1.2), priors, window=13)
    # uncached_s is derived from cold_s in the fixture, so it regresses
    # in lockstep
    assert {r.metric for r in regressions} == {"spade_cold_s",
                                               "spade_uncached_s"}


def test_campaign_rate_gated_at_jobs1_only():
    def report(jobs1, jobs4):
        rep = _report()
        rep["campaign"]["runs"] = [
            {"jobs": 1, "nr_seeds": 4, "seeds_per_s": jobs1},
            {"jobs": 4, "nr_seeds": 4, "seeds_per_s": jobs4}]
        return rep
    priors = [report(10.0, 20.0)] * 5
    jobs1_drop = _gate(report(7.0, 20.0), priors)
    assert [(r.metric, r.direction) for r in jobs1_drop] == \
        [("campaign_seeds_per_s_jobs1", "lower-rate")]
    # a jobs=4 drop is multiprocess jitter at these sizes: recorded only
    assert _gate(report(10.0, 14.0), priors) == []
    assert _gate(report(10.0, 2.0), priors) == []


def _scaling_report(jobs1=4.0, jobs2=6.0, jobs4=8.0) -> dict:
    report = _report()
    report["campaign"]["runs"] = [
        {"jobs": 1, "nr_seeds": 16, "elapsed_s": 4.0,
         "seeds_per_s": jobs1, "nr_ok": 16},
        {"jobs": 2, "nr_seeds": 16, "elapsed_s": 2.7,
         "seeds_per_s": jobs2, "nr_ok": 16,
         "parallel_ratio": round(jobs2 / jobs1, 4)},
        {"jobs": 4, "nr_seeds": 16, "elapsed_s": 2.0,
         "seeds_per_s": jobs4, "nr_ok": 16,
         "parallel_ratio": round(jobs4 / jobs1, 4)},
    ]
    return report


def test_parallel_ratio_recorded_per_lane():
    tracked = history.tracked_metrics(_scaling_report())
    assert tracked["campaign_parallel_ratio_jobs2"] == \
        pytest.approx(1.5)
    assert tracked["campaign_parallel_ratio_jobs4"] == \
        pytest.approx(2.0)
    # the headline ratio is the widest lane over jobs=1
    assert tracked["campaign_parallel_ratio"] == pytest.approx(2.0)


def test_parallel_ratio_gate_fails_below_minimum():
    record = history.history_record(_scaling_report(jobs4=5.0))
    message = history.parallel_ratio_gate(record, min_ratio=1.5)
    assert message is not None and "FAIL" in message
    assert "1.25" in message and "1.50" in message


def test_parallel_ratio_gate_passes_at_or_above_minimum():
    record = history.history_record(_scaling_report(jobs4=6.0))
    assert history.parallel_ratio_gate(record, min_ratio=1.5) is None


def test_parallel_ratio_gate_disabled_and_missing():
    slow = history.history_record(_scaling_report(jobs4=1.0))
    assert history.parallel_ratio_gate(slow, min_ratio=0) is None
    # a single-lane bench has no ratio: nothing to gate
    single = history.history_record(_report())
    assert history.parallel_ratio_gate(single, min_ratio=1.5) is None


def test_format_regressions_mentions_threshold():
    regressions = _gate(_report(cold_s=2.0), [_report(cold_s=1.0)] * 3)
    text = history.format_regressions(regressions, threshold=0.25)
    assert "25% gate" in text
    assert "spade_cold_s" in text
    assert history.format_regressions([]) == \
        "bench check: OK (no tracked metric regressed)"


# -- the bench CLI wiring ----------------------------------------------------------


@pytest.fixture()
def fake_bench(monkeypatch):
    """Make ``repro-dma bench`` instant and steerable."""
    from repro.perfcache import bench

    state = {"report": _report()}

    def run_benchmarks(**kwargs):
        state["kwargs"] = kwargs
        return json.loads(json.dumps(state["report"]))

    monkeypatch.setattr(bench, "run_benchmarks", run_benchmarks)
    return state


def _bench(tmp_path, *extra):
    return main(["bench", "--output", str(tmp_path / "BENCH_perf.json"),
                 "--history", str(tmp_path / "hist.jsonl"), *extra])


@pytest.mark.parametrize("width,lanes", [
    ("1", (1,)), ("2", (1, 2)), ("3", (1, 2, 3)), ("4", (1, 2, 4))])
def test_cli_bench_jobs_lanes(tmp_path, fake_bench, width, lanes):
    # ``--jobs 1`` is the single-lane bench parallel_ratio_gate names
    assert _bench(tmp_path, "--jobs", width) == 0
    assert fake_bench["kwargs"]["jobs"] == lanes


def test_cli_bench_record_grows_history(tmp_path, fake_bench, capsys):
    assert _bench(tmp_path) == 0
    assert _bench(tmp_path) == 0
    assert len(history.load_history(str(tmp_path / "hist.jsonl"))) == 2
    assert "recorded run" in capsys.readouterr().out


def test_cli_bench_no_record_leaves_history_alone(tmp_path, fake_bench):
    assert _bench(tmp_path, "--no-record") == 0
    assert history.load_history(str(tmp_path / "hist.jsonl")) == []


def test_cli_bench_check_fails_on_2x_slowdown(tmp_path, fake_bench,
                                              capsys):
    for _ in range(3):
        assert _bench(tmp_path) == 0
    fake_bench["report"] = _report(cold_s=2.0)
    assert _bench(tmp_path, "--check") == 1
    out = capsys.readouterr().out
    assert "regression(s)" in out
    assert "spade_cold_s" in out
    # the regressing run is still recorded (the trajectory must show it)
    assert len(history.load_history(str(tmp_path / "hist.jsonl"))) == 4


def test_cli_bench_check_passes_against_itself(tmp_path, fake_bench,
                                               capsys):
    for _ in range(3):
        assert _bench(tmp_path) == 0
    assert _bench(tmp_path, "--check") == 0
    assert "bench check: OK" in capsys.readouterr().out


def test_cli_bench_check_ignores_other_signatures(tmp_path, fake_bench):
    for _ in range(3):
        assert _bench(tmp_path) == 0
    # same slowdown, but at a different scale: not comparable, no gate
    fake_bench["report"] = _report(cold_s=2.0, scale=1.0)
    assert _bench(tmp_path, "--check") == 0


def test_cli_bench_check_hard_gates_parallel_ratio(tmp_path, fake_bench,
                                                   capsys):
    fake_bench["report"] = _scaling_report(jobs2=3.0, jobs4=3.6)
    assert _bench(tmp_path, "--check") == 1   # 0.9x < default 1.5
    out = capsys.readouterr().out
    assert "campaign parallel ratio 0.90" in out
    # the failing run still lands in the trajectory
    assert len(history.load_history(str(tmp_path / "hist.jsonl"))) == 1


def test_cli_bench_min_parallel_ratio_zero_disables_gate(
        tmp_path, fake_bench, capsys):
    fake_bench["report"] = _scaling_report(jobs2=3.0, jobs4=3.6)
    assert _bench(tmp_path, "--check",
                  "--min-parallel-ratio", "0") == 0
    out = capsys.readouterr().out
    assert "slower than" in out   # advisory warning still printed
