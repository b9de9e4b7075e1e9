"""Sharded work-queue mode: claims, steals, merge identity."""

import json
import os
import subprocess
import sys
import time

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.results import findings_digest, load_records
from repro.campaign.shard import (Shard, merge_shards, pending_shards,
                                  plan_shards, run_sharded_campaign,
                                  shard_config, shard_results_path,
                                  try_claim)

SCALE = 0.08


def _config(tmp_path, **overrides) -> CampaignConfig:
    settings = dict(nr_seeds=6, seed_base=1, jobs=1, base_seed=2021,
                    mutations_per_seed=3, scale=SCALE,
                    output=str(tmp_path / "results.jsonl"))
    settings.update(overrides)
    return CampaignConfig(**settings)


def test_plan_shards_covers_range_exactly_once():
    shards = plan_shards(CampaignConfig(nr_seeds=7, seed_base=3),
                         shard_size=3)
    assert [shard.index for shard in shards] == [0, 1, 2]
    seeds = [seed for shard in shards for seed in shard.seeds]
    assert seeds == list(range(3, 10))
    assert shards[-1].nr_seeds == 1   # short tail shard


def test_shard_results_path_derives_from_stem():
    assert shard_results_path("out/results.jsonl", 2) == \
        "out/results.shard-2.jsonl"
    assert shard_results_path("results", 0) == "results.shard-0.jsonl"


def test_claim_is_exclusive_and_done_blocks_reclaim(tmp_path):
    shard = Shard(0, 1, 3)
    first = try_claim(str(tmp_path), shard)
    assert first is not None and first["generation"] == 0
    # a second claimant loses while the claim is fresh
    assert try_claim(str(tmp_path), shard) is None


def test_stale_claim_is_stolen_with_bumped_generation(tmp_path):
    shard = Shard(0, 1, 3)
    claim = try_claim(str(tmp_path), shard)
    # age the claim past the threshold: the owner is presumed dead
    claim_path = tmp_path / "claim-0.json"
    body = json.loads(claim_path.read_text())
    body["claimed_at"] = time.time() - 1000.0
    claim_path.write_text(json.dumps(body))
    stolen = try_claim(str(tmp_path), shard, stale_after_s=60.0)
    assert stolen is not None
    assert stolen["generation"] == claim["generation"] + 1


def test_claim_being_written_is_not_stolen(tmp_path):
    # the O_EXCL winner has created its claim but not written the body
    # yet; a racing runner must not read that as a torn, stale claim
    shard = Shard(0, 1, 3)
    (tmp_path / "claim-0.json").write_text("")
    assert try_claim(str(tmp_path), shard, stale_after_s=60.0) is None
    # a torn claim whose file has aged past the threshold is stolen
    old = time.time() - 1000.0
    os.utime(tmp_path / "claim-0.json", (old, old))
    stolen = try_claim(str(tmp_path), shard, stale_after_s=60.0)
    assert stolen is not None and stolen["generation"] == 1


def test_done_shard_is_never_stolen(tmp_path):
    shard = Shard(0, 1, 3)
    try_claim(str(tmp_path), shard)
    (tmp_path / "done-0.json").write_text("{}")
    assert try_claim(str(tmp_path), shard, stale_after_s=0.0) is None


def test_sharded_run_merges_identical_to_inline(tmp_path):
    inline = _config(tmp_path / "inline")
    run_campaign(inline)

    sharded = _config(tmp_path / "sharded")
    shard_dir = str(tmp_path / "queue")
    nr_run = run_sharded_campaign(sharded, shard_dir, shard_size=2)
    assert nr_run == 3
    assert pending_shards(sharded, shard_dir, shard_size=2) == []
    summary = merge_shards(sharded, shard_size=2)
    assert summary.nr_ok == 6
    assert findings_digest(load_records(inline.output)) == \
        findings_digest(load_records(sharded.output))


def test_two_concurrent_runners_claim_disjoint_ranges(tmp_path):
    """Two independent processes drain one queue cooperatively."""
    output = str(tmp_path / "results.jsonl")
    shard_dir = str(tmp_path / "queue")
    script = (
        "import sys\n"
        "from repro.campaign import CampaignConfig\n"
        "from repro.campaign.shard import run_sharded_campaign\n"
        f"config = CampaignConfig(nr_seeds=6, scale={SCALE},\n"
        f"    mutations_per_seed=3, output={output!r})\n"
        f"nr = run_sharded_campaign(config, {shard_dir!r},\n"
        "    shard_size=2)\n"
        "print('SHARDS', nr)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    procs = [subprocess.Popen([sys.executable, "-c", script],
                              stdout=subprocess.PIPE, env=env,
                              text=True) for _ in range(2)]
    counts = []
    for proc in procs:
        out, _ = proc.communicate(timeout=300)
        assert proc.returncode == 0, out
        counts.append(int(out.split("SHARDS")[-1].strip()))
    # every shard ran exactly once, split across the two runners
    assert sum(counts) == 3

    config = _config(tmp_path)
    assert pending_shards(config, shard_dir, shard_size=2) == []
    merged = merge_shards(config, shard_size=2)
    assert merged.nr_ok == 6

    inline = _config(tmp_path / "inline")
    run_campaign(inline)
    assert findings_digest(load_records(inline.output)) == \
        findings_digest(load_records(config.output))


def test_killed_runner_range_is_reclaimable(tmp_path):
    """A claim with no progress and no done marker goes stale and a
    later runner re-claims and completes the seeds."""
    config = _config(tmp_path)
    shard_dir = str(tmp_path / "queue")
    os.makedirs(shard_dir)
    shards = plan_shards(config, shard_size=2)
    # simulate a runner that claimed shard 0 then was SIGKILLed
    dead = try_claim(shard_dir, shards[0])
    assert dead is not None
    body = json.loads((tmp_path / "queue" / "claim-0.json").read_text())
    body["claimed_at"] = time.time() - 1000.0
    (tmp_path / "queue" / "claim-0.json").write_text(json.dumps(body))

    nr_run = run_sharded_campaign(config, shard_dir, shard_size=2,
                                  stale_after_s=60.0)
    assert nr_run == 3   # stolen shard 0 plus shards 1 and 2
    summary = merge_shards(config, shard_size=2)
    assert summary.nr_ok == 6


def test_stolen_shard_resumes_partial_results(tmp_path):
    """A dead owner's landed records are kept, not re-run."""
    config = _config(tmp_path)
    shards = plan_shards(config, shard_size=3)
    sub = shard_config(config, shards[0])
    assert sub.resume and sub.seeds == [1, 2, 3]
    # the dead owner completed seed 1 before dying
    run_campaign(CampaignConfig(nr_seeds=1, seed_base=1, scale=SCALE,
                                mutations_per_seed=3,
                                output=sub.output))
    before = load_records(sub.output)
    progressed = []
    run_campaign(sub, progress=progressed.append)
    assert sorted(r["seed"] for r in progressed) == [2, 3]
    after = load_records(sub.output)
    assert after[1] == before[1]


def test_merge_prefers_completed_records(tmp_path):
    config = _config(tmp_path, nr_seeds=2)
    path = shard_results_path(config.output, 0)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        handle.write(json.dumps({"seed": 1, "status": "crash",
                                 "error": "dead owner"}) + "\n")
    run_campaign(shard_config(config, plan_shards(config,
                                                  shard_size=2)[0]))
    merge_shards(config, shard_size=2)
    merged = load_records(config.output)
    assert merged[1]["status"] == "ok"
    assert merged[2]["status"] == "ok"


def test_merge_warns_on_missing_seeds(tmp_path, capsys):
    config = _config(tmp_path)
    # only shard 1 (seeds 3-4) ever ran
    run_campaign(shard_config(config, plan_shards(config,
                                                  shard_size=2)[1]))
    summary = merge_shards(config, shard_size=2)
    assert summary.nr_seeds == 2
    assert "missing 4 seed(s)" in capsys.readouterr().err
