"""Smoke-size tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import rep    # noqa: E402
import run    # noqa: E402
import spans  # noqa: E402


def _attributes(targets):
    return {(id(target.owner), target.attr): vars(target.owner)[target.attr]
            for target in targets}


def _step(name: str, payload: dict) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "rep.py"), name,
         json.dumps(payload)],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_campaign(tmp_path_factory):
    """One traced three-seed campaign, run in this process."""
    from repro import perfcache

    targets = spans.campaign_targets()
    before = _attributes(targets)
    try:
        out = rep.campaign({"dir": str(tmp_path_factory.mktemp("camp")),
                            "seed_base": 7, "nr_seeds": 3, "jobs": 1,
                            "trace": True})
    finally:
        perfcache.reset_default()
    return out, before, targets


def test_traced_run_leaves_no_wrapper(traced_campaign):
    out, before, targets = traced_campaign
    assert out["statuses"] == ["ok"] * 3
    assert _attributes(targets) == before
    for target in targets:
        assert not hasattr(getattr(target.owner, target.attr),
                           "__wrapped__"), target.name


def test_self_times_tile_each_seed(traced_campaign):
    out, _before, _targets = traced_campaign
    assert len(out["seeds"]) == 3
    for table in out["seeds"]:
        assert sum(table["self_ms"].values()) == \
            pytest.approx(table["wall_ms"], rel=1e-9)
        assert table["self_ms"]["sim.kernel"] > 0
        assert table["counts"]["runner.append_record"] == 1
        assert "CoverageMap.save" not in table["counts"]
    # start-up and the coverage-map save lie outside every seed
    assert out["run"]["durability"] > 0
    assert sum(out["run"].values()) + sum(
        table["wall_ms"] for table in out["seeds"]) == \
        pytest.approx(out["run_ms"], rel=1e-9)


def test_self_time_is_span_minus_children():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    recorder.begin_seed("seed", "a")          # t=0
    outer = recorder.open("outer", "b")       # t=1
    inner = recorder.open("inner", "c")       # t=2
    recorder.close(inner)                     # t=3
    recorder.close(outer)                     # t=4
    recorder.end_seed()                       # t=5
    (table,) = spans.seed_tables(recorder.spans)
    assert table["wall_ms"] == 5000.0
    assert table["self_ms"] == {"a": 2000.0, "b": 2000.0, "c": 1000.0}


def test_exact_counts_repeat_across_processes(tmp_path):
    counts = []
    for attempt in range(2):
        out = _step("campaign", {"dir": str(tmp_path / f"c{attempt}"),
                                 "seed_base": 11, "nr_seeds": 3,
                                 "jobs": 1, "trace": True})
        tables = out["seeds"]
        counts.append([spans.layer_medians([table], [])
                       for table in tables])
        counts[-1].append(out["perfcache"]["stores"])
    assert counts[0] == counts[1]

    corpora = tmp_path / "corpora"
    _step("setup-spade", {"dir": str(corpora), "corpus_seeds": [5]})
    spade_counts = []
    for attempt in range(2):
        out = _step("spade", {"corpus": str(corpora / "corpus-0.json"),
                              "cache_dir": str(tmp_path / f"s{attempt}"),
                              "trace": True})
        spade_counts.append((out["seeds"][0]["counts"],
                             out["perfcache"]["stores"]))
    assert spade_counts[0] == spade_counts[1]
    assert spade_counts[0][0]["cindex.parse_file"] == 453


@pytest.mark.parametrize("seed", [0, 1, 9998, 9999, -7, 2**32 - 1])
def test_any_workload_seed_stays_clear_of_warm_up_seeds(seed):
    base = run.campaign_seed_base(seed)
    assert 0 < base and base + run.NR_SEEDS <= run.WARM_BASE
    assert run.campaign_seed_base(1) == 100_001   # the pinned reference


def test_benchmark_json_matches_run_py():
    with open(os.path.join(ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        spec = json.load(handle)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
