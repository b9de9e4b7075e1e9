"""The tracked perf-benchmark driver behind ``repro-dma bench``.

Two benchmark families, one machine-readable report
(``BENCH_perf.json``):

* **spade** -- :func:`spade_tiers`: one SPADE pass over the unmutated
  Linux-5.0-shaped corpus per tier -- uncached, cold (empty cache,
  disk writes included), warm from the disk tier alone (a fresh
  process's view) and warm from the in-process tier. Every cached
  tier's findings must encode to byte-identical JSON, and render the
  identical Table 2, as the uncached ones, or the cache is wrong, not
  fast. ``repro-dma cache verify`` runs the same function and prints
  its verdict.
* **campaign** -- differential-campaign throughput scaling: one lane
  per ``jobs`` value (``{1, 2, N}`` from the CLI) over a shared
  on-disk cache, each parallel lane recording its ``parallel_ratio``
  (seeds/s over the jobs=1 lane). The top lane's ratio is the
  ``campaign_parallel_ratio`` that ``bench --check`` hard-gates.

Timing uses ``time.perf_counter``; each tier and lane runs once, and
``bench --check`` judges a run against the rolling median of earlier
comparable runs (:mod:`repro.perfcache.history`).
"""

from __future__ import annotations

import json
import tempfile
import time

from repro import perfcache

#: bump when the report layout changes
BENCH_SCHEMA = 2

DEFAULT_OUTPUT = "BENCH_perf.json"

#: SPADE's cached tiers, in the order :func:`spade_tiers` runs them
CACHED_TIERS = ("cold", "warm_disk", "warm_memory")


# -- SPADE's cache tiers -----------------------------------------------------

def _run_tiers(tree, cache_dir: str) -> tuple[dict, dict, dict]:
    """Seconds and findings per tier, plus the warm-disk cache stats."""
    from repro.core.spade.analyzer import Spade

    seconds, findings = {}, {}

    def run(tier: str) -> None:
        start = time.perf_counter()
        findings[tier] = Spade(tree).analyze()
        seconds[tier] = time.perf_counter() - start

    perfcache.configure(enabled=False)
    run("uncached")
    # cold: empty cache, disk writes on the critical path
    perfcache.configure(cache_dir)
    run("cold")
    # warm from disk only: a fresh PerfCache (= fresh process) over
    # the same directory, empty in-process tier
    perfcache.configure(cache_dir)
    run("warm_disk")
    disk_stats = perfcache.default_cache().stats.to_json()
    # warm from the in-process tier (same cache object again)
    run("warm_memory")
    return seconds, findings, disk_stats


def spade_tiers(*, scale: float = 1.0, corpus_seed: int = 2021,
                cache_dir: str | None = None) -> dict:
    """Time SPADE's uncached and cached tiers; diff each cached tier.

    ``mismatches`` names every cached tier whose findings or Table 2
    differ from the uncached run's, as ``"<tier> findings"`` or
    ``"<tier> Table 2"``; empty means the cache is exact. Without
    *cache_dir* the cached tiers run in a throwaway directory. With
    one, they use it as found (so its "cold" tier is only as cold as
    the directory), and the run's hit/miss totals are persisted there
    for ``cache stats``.
    """
    from repro.core.spade.findings import Table2Stats
    from repro.core.spade.report import format_table2
    from repro.corpus.generate import CorpusGenerator
    from repro.corpus.linux50 import scaled_composition
    from repro.perfcache.codec import encode_findings

    tree, _manifest = CorpusGenerator(
        seed=corpus_seed,
        composition=scaled_composition(scale)).generate()
    try:
        if cache_dir is None:
            with tempfile.TemporaryDirectory(
                    prefix="repro-spade-tiers-") as scratch:
                seconds, findings, disk_stats = _run_tiers(tree, scratch)
        else:
            seconds, findings, disk_stats = _run_tiers(tree, cache_dir)
            perfcache.default_cache().persist_stats()
    finally:
        perfcache.reset_default()

    def rendered(tier: str) -> tuple[str, str]:
        return (json.dumps(encode_findings(findings[tier])),
                format_table2(Table2Stats.from_findings(findings[tier])))

    expected_findings, expected_table = rendered("uncached")
    mismatches = []
    for tier in CACHED_TIERS:
        tier_findings, tier_table = rendered(tier)
        if tier_findings != expected_findings:
            mismatches.append(f"{tier} findings")
        if tier_table != expected_table:
            mismatches.append(f"{tier} Table 2")

    def speedup(tier: str) -> float:
        return round(seconds["cold"] / seconds[tier], 2) \
            if seconds[tier] else float("inf")

    return {
        "scale": scale,
        "corpus_seed": corpus_seed,
        "nr_files": len(tree.files),
        "nr_findings": len(findings["uncached"]),
        "uncached_s": round(seconds["uncached"], 6),
        "cold_s": round(seconds["cold"], 6),
        "warm_disk_s": round(seconds["warm_disk"], 6),
        "warm_memory_s": round(seconds["warm_memory"], 6),
        "speedup_disk": speedup("warm_disk"),
        "speedup_memory": speedup("warm_memory"),
        "warm_disk_stats": disk_stats,
        "mismatches": mismatches,
    }


# -- campaign throughput -----------------------------------------------------

def bench_campaign(*, nr_seeds: int = 16, scale: float = 0.1,
                   jobs: tuple[int, ...] = (1, 2, 4),
                   backend: str | None = None) -> dict:
    """Seeds-per-second of the differential campaign, one lane per
    ``jobs`` value; every parallel lane records its ratio over jobs=1."""
    from repro.campaign.runner import CampaignConfig, run_campaign

    runs = []
    for nr_jobs in jobs:
        with tempfile.TemporaryDirectory(
                prefix="repro-bench-campaign-") as cache_dir:
            config = CampaignConfig(
                nr_seeds=nr_seeds, jobs=nr_jobs, scale=scale,
                output=None, trace_events=0, cache_dir=cache_dir,
                backend=backend)
            start = time.perf_counter()
            summary = run_campaign(config)
            elapsed = time.perf_counter() - start
        runs.append({
            "jobs": nr_jobs,
            "nr_seeds": nr_seeds,
            "elapsed_s": round(elapsed, 3),
            "seeds_per_s": round(nr_seeds / elapsed, 3) if elapsed
            else float("inf"),
            "nr_ok": summary.nr_ok,
            # coverage lane: recorded in history (so ``bench --check``
            # output shows drift) but never cross-gated
            "coverage_features": summary.coverage_features,
            "coverage_features_per_seed":
                summary.coverage_features_per_seed,
        })
    perfcache.reset_default()
    serial = next((run["seeds_per_s"] for run in runs
                   if run["jobs"] == 1), None)
    if serial:
        for run in runs:
            if run["jobs"] != 1:
                run["parallel_ratio"] = round(
                    run["seeds_per_s"] / serial, 4)
    return {"scale": scale, "runs": runs}


# -- the report --------------------------------------------------------------

def run_benchmarks(*, scale: float = 1.0, corpus_seed: int = 2021,
                   campaign_seeds: int = 16,
                   campaign_scale: float = 0.1,
                   jobs: tuple[int, ...] = (1, 2, 4),
                   backend: str | None = None) -> dict:
    """Run every family; returns the ``BENCH_perf.json`` payload.

    *backend* selects the IOMMU model for the campaign family (SPADE
    is static and unaffected). The report carries a ``backend`` key
    only for non-default models, so per-backend runs sign into their
    own history lane and never gate against default runs.
    """
    from repro import __version__
    from repro.backends import backend_label

    label = backend_label(backend)
    spade = spade_tiers(scale=scale, corpus_seed=corpus_seed)
    campaign = bench_campaign(nr_seeds=campaign_seeds,
                              scale=campaign_scale, jobs=jobs,
                              backend=label)
    checks = {
        "warm_faster_than_cold":
            spade["warm_disk_s"] < spade["cold_s"],
        "cached_findings_identical": not spade["mismatches"],
    }
    report = {
        "schema": BENCH_SCHEMA,
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "spade": spade,
        "campaign": campaign,
        "checks": checks,
        "ok": all(checks.values()),
    }
    if label is not None:
        report["backend"] = label
    return report


def write_report(report: dict, path: str = DEFAULT_OUTPUT) -> None:
    from repro import durability
    durability.atomic_write_json(path, report, indent=2,
                                 sort_keys=True, trailing_newline=True)


def format_report(report: dict) -> str:
    """Human-readable digest of one report."""
    spade = report["spade"]
    lines = [
        f"SPADE scale={spade['scale']} "
        f"({spade['nr_files']} files, {spade['nr_findings']} findings)",
        f"  uncached    {spade['uncached_s']*1000:10.1f} ms",
        f"  cold+write  {spade['cold_s']*1000:10.1f} ms",
        f"  warm (disk) {spade['warm_disk_s']*1000:10.1f} ms  "
        f"({spade['speedup_disk']}x)",
        f"  warm (mem)  {spade['warm_memory_s']*1000:10.1f} ms  "
        f"({spade['speedup_memory']}x)",
        "  cached tiers that differ from uncached: "
        f"{', '.join(spade['mismatches']) or 'none'}",
        "campaign throughput "
        f"(scale={report['campaign']['scale']})",
    ]
    for run in report["campaign"]["runs"]:
        ratio = ""
        if "parallel_ratio" in run:
            ratio = f", {run['parallel_ratio']:.2f}x vs jobs=1"
        lines.append(f"  jobs={run['jobs']}  {run['elapsed_s']:8.2f} s"
                     f"  ({run['seeds_per_s']} seeds/s,"
                     f" {run['nr_ok']} ok{ratio})")
    lines.append(f"checks: {report['checks']}")
    return "\n".join(lines)
