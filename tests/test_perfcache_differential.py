"""The differential correctness gate: cached == uncached, always.

The cache is only allowed to make analysis faster, never different.
These tests run SPADE cold (caching disabled), then warm (disk tier
populated and re-read), over the base corpus and five mutated campaign
corpora, and require byte-identical encoded findings plus identical
rendered Table 2 text -- the same comparison ``repro-dma cache
verify`` performs in CI.
"""

import json
import os

import pytest

from repro import perfcache
from repro.campaign.mutate import CorpusMutator
from repro.core.spade.analyzer import Spade
from repro.core.spade.findings import Table2Stats
from repro.core.spade.report import format_table2
from repro.perfcache import PerfCache
from repro.perfcache.codec import encode_findings

SCALE = 0.08


@pytest.fixture(autouse=True)
def _fresh_default_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    perfcache.reset_default()
    yield
    perfcache.reset_default()


def analysis_outputs(tree, cache):
    findings = Spade(tree, cache=cache).analyze()
    return (json.dumps(encode_findings(findings)),
            format_table2(Table2Stats.from_findings(findings)))


@pytest.mark.parametrize("campaign_seed", [1, 2, 3, 4, 5])
def test_warm_equals_cold_across_mutated_corpora(campaign_seed,
                                                 tmp_path):
    """Property: for any mutated corpus, cold == disk-cold == warm."""
    mutator = CorpusMutator(2021, scale=SCALE)
    tree = mutator.derive(campaign_seed, 4).tree

    cold = analysis_outputs(tree, PerfCache(enabled=False))
    directory = str(tmp_path / "cache")
    populate = analysis_outputs(tree, PerfCache(directory))
    warm = analysis_outputs(tree, PerfCache(directory))

    assert populate == cold
    assert warm == cold


def test_base_corpus_warm_equals_cold(tmp_path):
    tree, _manifest = CorpusMutator(2021, scale=SCALE).base()
    cold = analysis_outputs(tree, PerfCache(enabled=False))
    directory = str(tmp_path / "cache")
    assert analysis_outputs(tree, PerfCache(directory)) == cold
    assert analysis_outputs(tree, PerfCache(directory)) == cold


def test_corrupted_entries_never_change_results(tmp_path):
    """Truncate every on-disk entry; analysis must silently recompute
    and still match the uncached run."""
    tree, _manifest = CorpusMutator(2021, scale=SCALE).base()
    cold = analysis_outputs(tree, PerfCache(enabled=False))

    directory = str(tmp_path / "cache")
    analysis_outputs(tree, PerfCache(directory))
    corrupted = 0
    for namespace in ("parse", "findings"):
        for dirpath, _dirs, names in os.walk(
                os.path.join(directory, namespace)):
            for name in names:
                with open(os.path.join(dirpath, name), "w") as handle:
                    handle.write("{not json")
                corrupted += 1
    assert corrupted > 0

    recovered = PerfCache(directory)
    assert analysis_outputs(tree, recovered) == cold
    assert recovered.stats.corrupt == corrupted
    assert recovered.stats.disk_hits == 0


def test_campaign_derivation_unaffected_by_corpus_cache(tmp_path):
    """derive() through the shared cache equals an uncached derive."""
    baseline = CorpusMutator(2021, scale=SCALE)
    perfcache.configure(enabled=False)
    cold = baseline.derive(3, 4)

    perfcache.configure(str(tmp_path / "cache"))
    populate = CorpusMutator(2021, scale=SCALE).derive(3, 4)
    perfcache.configure(str(tmp_path / "cache"))
    warm = CorpusMutator(2021, scale=SCALE).derive(3, 4)

    for derived in (populate, warm):
        assert derived.tree.files == cold.tree.files
        assert derived.manifest.sites == cold.manifest.sites
        assert derived.mutations == cold.mutations


# -- the shared tier differential behind `cache verify` and `bench` ----------

TINY_SCALE = 0.05


def _drop_last_finding(monkeypatch):
    """Make every disk-tier decode lose one finding."""
    from repro.core.spade import analyzer

    decode = analyzer.decode_findings
    monkeypatch.setattr(analyzer, "decode_findings",
                        lambda payload: decode(payload)[:-1])


def test_spade_tiers_time_and_diff_every_cached_tier():
    from repro.perfcache.bench import CACHED_TIERS, spade_tiers

    spade = spade_tiers(scale=TINY_SCALE)
    assert spade["mismatches"] == []
    assert spade["nr_findings"] > 0
    for tier in ("uncached", *CACHED_TIERS):
        assert spade[f"{tier}_s"] > 0
    assert spade["warm_disk_stats"]["disk_hits"] > 0


def test_spade_tiers_name_each_tier_that_differs(monkeypatch):
    from repro.perfcache.bench import spade_tiers

    _drop_last_finding(monkeypatch)
    mismatches = spade_tiers(scale=TINY_SCALE)["mismatches"]
    # cold computes and stores; the disk decode feeds warm_disk, whose
    # decoded findings the in-process tier then serves to warm_memory
    assert "warm_disk findings" in mismatches
    assert "warm_memory findings" in mismatches
    assert not [m for m in mismatches if m.startswith("cold")]


def test_cache_verify_passes_and_persists_stats(tmp_path, capsys):
    from repro.cli import main

    directory = str(tmp_path / "cache")
    assert main(["cache", "verify", "--scale", str(TINY_SCALE),
                 "--cache-dir", directory]) == 0
    assert "cache verify: OK" in capsys.readouterr().out
    assert PerfCache(directory).aggregate_persisted_stats().disk_hits > 0


def test_cache_verify_fails_naming_the_tier(monkeypatch, capsys):
    from repro.cli import main

    _drop_last_finding(monkeypatch)
    assert main(["cache", "verify", "--scale", str(TINY_SCALE)]) == 1
    out = capsys.readouterr().out
    assert "cache verify: FAIL -- warm_disk findings" in out
    assert "FAIL -- cold" not in out
    assert "cache verify: OK" not in out
