"""Base-corpus snapshots (written now only by the benchmark), the
shared read-only base, and warm-worker parallel dispatch."""

import os

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign import snapshot as snapshot_store
from repro.campaign.mutate import CorpusMutator
from repro.campaign.results import findings_digest, load_records

SCALE = 0.08


def _config(tmp_path, **overrides) -> CampaignConfig:
    settings = dict(nr_seeds=6, seed_base=1, jobs=1, base_seed=2021,
                    mutations_per_seed=3, scale=SCALE,
                    output=str(tmp_path / "results.jsonl"))
    settings.update(overrides)
    return CampaignConfig(**settings)


# -- the snapshot store ------------------------------------------------------


def test_materialize_is_idempotent(tmp_path):
    mutator = CorpusMutator(2021, scale=SCALE)
    first = snapshot_store.materialize(mutator, str(tmp_path))
    stamp = os.stat(os.path.join(first, "index.json")).st_mtime_ns
    second = snapshot_store.materialize(mutator, str(tmp_path))
    assert first == second
    assert os.stat(os.path.join(first,
                                "index.json")).st_mtime_ns == stamp


def test_snapshot_is_content_addressed(tmp_path):
    small = snapshot_store.snapshot_dir(
        str(tmp_path), CorpusMutator(2021, scale=SCALE))
    other_seed = snapshot_store.snapshot_dir(
        str(tmp_path), CorpusMutator(7, scale=SCALE))
    assert small != other_seed


def test_derive_never_mutates_the_shared_base(tmp_path):
    mutator = CorpusMutator(2021, scale=SCALE)
    base_tree, _ = mutator.base_view()
    before = dict(base_tree.files)
    mutator.derive(3, 6)
    after, _ = mutator.base_view()
    assert after.files == before
    assert after is base_tree   # still the same zero-copy object


# -- parallel dispatch keeps findings byte-identical ------------------------


def test_batched_parallel_digest_matches_inline(tmp_path):
    inline = run_campaign(_config(tmp_path / "a"))
    parallel = run_campaign(_config(tmp_path / "b", jobs=2))
    assert inline.nr_ok == parallel.nr_ok == 6
    assert findings_digest(load_records(
        str(tmp_path / "a" / "results.jsonl"))) == \
        findings_digest(load_records(
            str(tmp_path / "b" / "results.jsonl")))
