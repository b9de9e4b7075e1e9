"""One step of a benchmark run, in a fresh process.

``python3 perfbench/rep.py STEP JSON`` runs one step against the
``repro`` sources of the checkout and prints one JSON object as its
last line. Added to it are the fastest host-speed probe before and
after the step (``probe_s``) and the probes' total time
(``probe_total_s``). :mod:`run` starts every step as its own
process, so each timed step begins from the same state: SPADE's
process-global interning memos would otherwise carry warm state from
one step into the next (five in-process repeats of one warm campaign
drifted from 6.9 to 10.7 seeds/s).

Steps:

``setup-campaign``
    warm a cache directory the way a long campaign leaves it: the base
    corpus generated and analyzed, a disjoint range of warm-up seeds
    run, the base-corpus snapshot materialized.
``campaign``
    run one campaign over a fresh copy of a warmed cache directory, or
    with caching off, and report its wall time, digests and (traced)
    per-seed stage tables.
``setup-spade``
    generate full-size corpora into JSON files.
``spade-reference``
    analyze each corpus with caching off; report the findings digest.
``spade``
    analyze one corpus against an empty on-disk cache.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import resource
import sys
import time

import spans

#: the differential campaign's base corpus (the CLI default) and scale
BASE_SEED = 2021
CAMPAIGN_SCALE = 0.1


def _reap_children() -> None:
    """Wait for pool workers a campaign shut down without waiting."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)


def _peak_rss_mb() -> float:
    """Largest resident set of this step's process or of any worker it
    started and waited for."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def _campaign_config(directory: str, seed_base: int, nr_seeds: int,
                     jobs: int, *, output: bool = True, cache: bool = True):
    """``repro-dma campaign`` defaults, rooted in *directory*. Without
    *cache* no cache directory is configured, so the campaign keeps the
    process-wide cache it finds."""
    from repro.campaign.runner import CampaignConfig
    return CampaignConfig(
        nr_seeds=nr_seeds, seed_base=seed_base, jobs=jobs,
        base_seed=BASE_SEED, scale=CAMPAIGN_SCALE,
        output=os.path.join(directory, "campaign", "results.jsonl")
        if output else None,
        cache_dir=os.path.join(directory, "cache") if cache else None,
        heartbeat_dir=os.path.join(directory, "heartbeats"))


def setup_campaign(args: dict) -> dict:
    from repro import perfcache
    from repro.campaign import snapshot
    from repro.campaign.mutate import CorpusMutator
    from repro.campaign.runner import run_campaign
    from repro.core.spade import Spade

    directory = args["dir"]
    config = _campaign_config(directory, args["warm_base"],
                              args["nr_warm"], 1, output=False)
    perfcache.configure(config.cache_dir)
    tree, _manifest = CorpusMutator(BASE_SEED,
                                    scale=CAMPAIGN_SCALE).base_view()
    Spade(tree).analyze()
    summary = run_campaign(config)
    if not summary.all_ok:
        raise RuntimeError(f"warm-up campaign failed: {summary.failures}")
    recorder = spans.Recorder()
    targets = [spans.Target(snapshot, "materialize", "campaign.snapshot")]
    with spans.installed(recorder, targets if args["trace"] else []):
        snapshot.materialize(CorpusMutator(BASE_SEED, scale=CAMPAIGN_SCALE),
                             os.path.join(config.cache_dir, "snapshots"))
    return {"snapshot_ms": sum((span[spans.END] - span[spans.START]) * 1e3
                               for span in recorder.spans)}


def campaign(args: dict) -> dict:
    from repro import perfcache
    from repro.campaign.mutate import CorpusMutator
    from repro.campaign.results import findings_digest, load_records
    from repro.campaign.runner import run_campaign
    from repro.coverage import CoverageMap, coverage_map_path

    cache = args.get("cache", True)
    if not cache:
        # what REPRO_CACHE=off does: every cached() call computes
        perfcache.configure(enabled=False)
    config = _campaign_config(args["dir"], args["seed_base"],
                              args["nr_seeds"], args["jobs"], cache=cache)
    os.makedirs(os.path.dirname(config.output), exist_ok=True)
    recorder = spans.Recorder()
    targets = spans.campaign_targets() if args["trace"] else []
    with spans.installed(recorder, targets):
        started = time.perf_counter()
        run_span = recorder.open("runner.run_campaign", "campaign.runner")
        run_campaign(config)
        recorder.end_seed()
        recorder.close(run_span)
        wall = time.perf_counter() - started
    _reap_children()
    stats = perfcache.default_cache().stats
    cache_stats = {"hits": stats.hits, "lookups": stats.lookups,
                   "misses": stats.misses, "stores": stats.stores}
    records = load_records(config.output)
    durations = [records[seed].get("duration_s", 0.0)
                 for seed in sorted(records)]
    result = {
        "wall_s": wall,
        "jobs": config.jobs,
        "statuses": sorted(record["status"] for record in records.values()),
        "seed_durations": durations,
        "seed_s": sum(durations),
        "peak_rss_mb": _peak_rss_mb(),
        "findings_digest": findings_digest(records),
        "coverage_digest": CoverageMap.load(
            coverage_map_path(config.output)).digest,
        "nr_files": len(CorpusMutator(
            BASE_SEED, scale=CAMPAIGN_SCALE).base_view()[0].files),
        "perfcache": cache_stats,
    }
    if args["trace"]:
        result["seeds"] = spans.seed_tables(recorder.spans)
        result["run"] = spans.run_table(recorder.spans)
        result["run_ms"] = (recorder.spans[run_span][spans.END]
                            - recorder.spans[run_span][spans.START]) * 1e3
    return result


def _load_tree(path: str):
    from repro.corpus.generate import SourceTree
    with open(path, encoding="utf-8") as handle:
        return SourceTree(json.load(handle))


def _findings_digest(findings) -> str:
    from repro.perfcache.codec import encode_findings
    text = json.dumps(encode_findings(findings), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup_spade(args: dict) -> dict:
    from repro.corpus.generate import CorpusGenerator

    os.makedirs(args["dir"], exist_ok=True)
    for index, seed in enumerate(args["corpus_seeds"]):
        tree, _manifest = CorpusGenerator(seed=seed).generate()
        with open(os.path.join(args["dir"], f"corpus-{index}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump(tree.files, handle)
    return {}


def spade_reference(args: dict) -> dict:
    from repro import perfcache
    from repro.core.spade import Spade

    digests = []
    for path in args["corpora"]:
        tree = _load_tree(path)
        uncached = perfcache.PerfCache(enabled=False)
        digests.append(_findings_digest(Spade(tree, cache=uncached)
                                        .analyze()))
    return {"digests": digests}


def spade(args: dict) -> dict:
    from repro import perfcache
    from repro.core.spade import Spade

    tree = _load_tree(args["corpus"])
    cache = perfcache.configure(args["cache_dir"])
    recorder = spans.Recorder()
    targets = spans.spade_targets() if args["trace"] else []
    with spans.installed(recorder, targets):
        started = time.perf_counter()
        recorder.begin_seed("corpus", "core.spade")
        findings = Spade(tree).analyze()
        recorder.end_seed()
        wall = time.perf_counter() - started
    result = {
        "wall_s": wall,
        "nr_files": len(tree.files),
        "findings_digest": _findings_digest(findings),
        "peak_rss_mb": _peak_rss_mb(),
        "perfcache": {"hits": cache.stats.hits,
                      "lookups": cache.stats.lookups,
                      "misses": cache.stats.misses,
                      "stores": cache.stats.stores},
    }
    if args["trace"]:
        result["seeds"] = spans.seed_tables(recorder.spans)
    return result


STEPS = {"setup-campaign": setup_campaign, "campaign": campaign,
         "setup-spade": setup_spade, "spade-reference": spade_reference,
         "spade": spade}

#: host-speed probe: runs of a fixed piece of work before and after
#: every step
NR_PROBES = 60


def _probe_piece() -> int:
    """~1.5 ms of dict, string and list work that calls nothing in repro,
    so no change to the program can change its speed."""
    counts: dict[str, int] = {}
    pairs = []
    for index in range(4000):
        key = f"k{index % 509}"
        counts[key] = counts.get(key, 0) + (index * 7) % 13
        if index % 3 == 0:
            pairs.append((key, index))
    pairs.sort(key=lambda pair: pair[0])
    return len(pairs) + len(counts)


def _probe() -> list[float]:
    times = []
    for _ in range(NR_PROBES):
        started = time.perf_counter()
        _probe_piece()
        times.append(time.perf_counter() - started)
    return times


if __name__ == "__main__":
    step, payload = sys.argv[1], json.loads(sys.argv[2])
    before = _probe()
    result = STEPS[step](payload)
    after = _probe()
    result.update(probe_s=[min(before), min(after)],
                  probe_total_s=sum(before + after))
    print(json.dumps(result))
