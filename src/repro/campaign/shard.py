"""Sharded work-queue mode: scale a campaign past one process tree.

``repro-dma campaign --shard-dir DIR`` turns the seed range into a
directory-based work queue that any number of **independent runner
processes** (or machines sharing a filesystem) can drain
cooperatively. The queue needs no daemon and no locks beyond POSIX
atomic file creation:

* the seed range is cut into fixed-size shards (``--shard-size``);
  shard *K* covers a deterministic seed interval, so every runner
  computes the same queue from the same config;
* a runner claims shard *K* by creating ``claim-K.json`` with
  ``O_CREAT | O_EXCL`` -- exactly one creator wins; the claim file
  records owner (host/pid), interval, and a monotonic generation;
* the owner refreshes its claim's timestamp as it progresses
  (atomic replace) and drops a ``done-K.json`` marker on completion;
* a claim that has gone silent for ``--stale-claim`` seconds without
  a done marker is presumed dead (killed runner) and may be **stolen**:
  the thief atomically replaces the claim with generation+1 and re-runs
  the shard. Stolen work may duplicate records, never corrupt them --
  per-seed results are deterministic and the merge step dedupes.

Each shard writes its own ``<stem>.shard-K.jsonl`` via the normal
runner (so ``--resume``, ``--retry``, stall lines, fault plans, and
backends all compose per shard), and :func:`merge_shards` combines
them into the campaign's single results file with dedupe and the
torn-tail healing :func:`~repro.campaign.results.load_records` already
provides. The merged findings digest is byte-identical to a single
jobs=1 run of the same campaign.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import time
from dataclasses import dataclass, replace
from typing import Callable

from repro import durability
from repro.campaign.results import (CampaignSummary, load_records,
                                    summarize)
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.coverage import CoverageMap, coverage_map_path
from repro.errors import CampaignError

#: default seeds per shard -- small enough that a late-joining runner
#: still finds work, large enough that claim traffic is negligible
DEFAULT_SHARD_SIZE = 25

#: a claim untouched for this long (and not done) is presumed dead
DEFAULT_STALE_CLAIM_S = 300.0


@dataclass(frozen=True)
class Shard:
    """One claimable slice of the campaign's seed range."""

    index: int
    seed_base: int
    nr_seeds: int

    @property
    def seeds(self) -> list[int]:
        return list(range(self.seed_base, self.seed_base + self.nr_seeds))


def plan_shards(config: CampaignConfig,
                shard_size: int = DEFAULT_SHARD_SIZE) -> list[Shard]:
    """Cut the campaign's seed range into the deterministic shard queue."""
    if shard_size <= 0:
        raise CampaignError(f"shard size must be positive, "
                            f"got {shard_size}")
    shards = []
    for index, start in enumerate(range(0, config.nr_seeds, shard_size)):
        shards.append(Shard(index, config.seed_base + start,
                            min(shard_size, config.nr_seeds - start)))
    return shards


def shard_results_path(output: str, index: int) -> str:
    stem, ext = os.path.splitext(output)
    return f"{stem}.shard-{index}{ext or '.jsonl'}"


def _claim_path(shard_dir: str, index: int) -> str:
    return os.path.join(shard_dir, f"claim-{index}.json")


def _done_path(shard_dir: str, index: int) -> str:
    return os.path.join(shard_dir, f"done-{index}.json")


def _owner() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _claim_body(shard: Shard, generation: int) -> dict:
    return {"shard": shard.index, "seed_base": shard.seed_base,
            "nr_seeds": shard.nr_seeds, "owner": _owner(),
            "generation": generation, "claimed_at": time.time()}


def _write_atomic(path: str, body: dict) -> None:
    durability.atomic_write_json(path, body, sort_keys=True)


def try_claim(shard_dir: str, shard: Shard, *,
              stale_after_s: float = DEFAULT_STALE_CLAIM_S) -> dict | None:
    """Claim *shard*; returns the claim body on success, None if it is
    owned (and fresh) or already done.

    The fresh-claim path is ``O_CREAT | O_EXCL`` -- one winner, always.
    The steal path (stale claim, no done marker) is an atomic replace
    carrying generation+1; two simultaneous thieves still end with one
    file and deterministic records, so the worst case is duplicated
    work, which the merge step dedupes.
    """
    if os.path.exists(_done_path(shard_dir, shard.index)):
        return None
    path = _claim_path(shard_dir, shard.index)
    body = _claim_body(shard, generation=0)
    try:
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        try:
            with open(path, encoding="utf-8") as handle:
                current = json.load(handle)
            age = time.time() - float(current.get("claimed_at", 0.0))
            generation = int(current.get("generation", 0))
        except (OSError, ValueError):
            # an unreadable claim is either torn by a dead writer or
            # just created by a live winner that has not written its
            # body yet: age it by the file's mtime, not as stale
            try:
                age = time.time() - os.stat(path).st_mtime
            except OSError:
                age = float("inf")
            generation = 0
        if age <= stale_after_s:
            return None
        body = _claim_body(shard, generation=generation + 1)
        _write_atomic(path, body)
        return body
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(body, handle, sort_keys=True)
    return body


def refresh_claim(shard_dir: str, shard: Shard, claim: dict) -> None:
    """Touch the claim so other runners keep treating it as live."""
    claim = dict(claim)
    claim["claimed_at"] = time.time()
    _write_atomic(_claim_path(shard_dir, shard.index), claim)


def mark_done(shard_dir: str, shard: Shard, claim: dict,
              results_path: str) -> None:
    body = dict(claim)
    body["done_at"] = time.time()
    body["results"] = results_path
    _write_atomic(_done_path(shard_dir, shard.index), body)


def shard_config(config: CampaignConfig, shard: Shard) -> CampaignConfig:
    """The runner config for one shard: its seed interval, its own
    results file, and resume always on (a stolen shard continues from
    whatever the dead owner already landed)."""
    if not config.output:
        raise CampaignError("sharded mode needs --output")
    return replace(config, seed_base=shard.seed_base,
                   nr_seeds=shard.nr_seeds,
                   output=shard_results_path(config.output, shard.index),
                   resume=True)


def run_sharded_campaign(config: CampaignConfig, shard_dir: str, *,
                         shard_size: int = DEFAULT_SHARD_SIZE,
                         stale_after_s: float = DEFAULT_STALE_CLAIM_S,
                         progress: Callable[[dict], None] | None = None,
                         log=lambda _msg: None) -> int:
    """Drain the shard queue: claim, run, mark done, repeat.

    Returns the number of shards this runner completed. Other runners
    pointed at the same *shard_dir* drain the rest; when every shard
    has a done marker, :func:`merge_shards` builds the merged results.
    """
    os.makedirs(shard_dir, exist_ok=True)
    nr_run = 0
    for shard in plan_shards(config, shard_size):
        claim = try_claim(shard_dir, shard, stale_after_s=stale_after_s)
        if claim is None:
            continue
        log(f"shard {shard.index}: claimed seeds "
            f"[{shard.seed_base}, {shard.seed_base + shard.nr_seeds - 1}]"
            f" (generation {claim['generation']})")
        sub = shard_config(config, shard)

        def _progress(record: dict, _shard=shard, _claim=claim) -> None:
            refresh_claim(shard_dir, _shard, _claim)
            if progress is not None:
                progress(record)

        run_campaign(sub, progress=_progress)
        mark_done(shard_dir, shard, claim, sub.output)
        nr_run += 1
    return nr_run


def pending_shards(config: CampaignConfig, shard_dir: str, *,
                   shard_size: int = DEFAULT_SHARD_SIZE) -> list[Shard]:
    """Shards with no done marker yet (claimed-but-unfinished counts)."""
    return [shard for shard in plan_shards(config, shard_size)
            if not os.path.exists(_done_path(shard_dir, shard.index))]


def format_seed_ranges(seeds: list[int]) -> str:
    """Compress a sorted seed list into ``"3-7, 12, 40-41"`` form, so
    a missing-seed warning can *name* every gap without printing a
    thousand-element list."""
    ranges: list[str] = []
    run_start = run_end = None
    for seed in sorted(seeds):
        if run_start is None:
            run_start = run_end = seed
        elif seed == run_end + 1:
            run_end = seed
        else:
            ranges.append(str(run_start) if run_start == run_end
                          else f"{run_start}-{run_end}")
            run_start = run_end = seed
    if run_start is not None:
        ranges.append(str(run_start) if run_start == run_end
                      else f"{run_start}-{run_end}")
    return ", ".join(ranges)


def missing_seeds_message(missing: list[int]) -> str:
    """The enriched merge warning: names every missing seed id."""
    return (f"campaign: warning: merge is missing {len(missing)} "
            f"seed(s): {format_seed_ranges(missing)}; "
            f"run more shard workers or re-run --merge later")


def stale_claim_message(index: int, owner: str, age_s: float) -> str:
    return (f"campaign: warning: collected stale claim-{index}.json "
            f"(owner {owner}, silent {age_s:.0f}s, no done marker); "
            f"a SIGKILLed runner left it behind -- the shard is "
            f"claimable again")


def collect_stale_claims(shard_dir: str, config: CampaignConfig, *,
                         shard_size: int = DEFAULT_SHARD_SIZE,
                         stale_after_s: float = DEFAULT_STALE_CLAIM_S,
                         on_collect: Callable[[str], None] | None = None
                         ) -> list[int]:
    """GC ``claim-K.json`` files whose owner died without a done marker.

    The steal path (:func:`try_claim`) already tolerates these, but a
    ``--merge`` run used to leave them behind forever -- confusing any
    later runner pointed at the queue into skipping finished-looking
    work. Each collected claim is reported through *on_collect(msg)*
    (default: stderr) with a warning naming the dead owner. Returns
    the collected shard indices.
    """
    collected: list[int] = []
    now = time.time()
    for shard in plan_shards(config, shard_size):
        path = _claim_path(shard_dir, shard.index)
        if os.path.exists(_done_path(shard_dir, shard.index)) \
                or not os.path.exists(path):
            continue
        try:
            with open(path, encoding="utf-8") as handle:
                claim = json.load(handle)
            age = now - float(claim.get("claimed_at", 0.0))
            owner = str(claim.get("owner", "unknown"))
        except (OSError, ValueError):
            # torn claim: its writer died mid-replace; always stale
            age, owner = float("inf"), "unknown"
        if age <= stale_after_s:
            continue
        try:
            os.unlink(path)
        except OSError:
            continue
        collected.append(shard.index)
        message = stale_claim_message(shard.index, owner,
                                      min(age, now))
        if on_collect is not None:
            on_collect(message)
        else:
            print(message, file=sys.stderr)
        # recovery observability: same counters/trace the rest of the
        # durability layer uses
        from repro import metrics, trace
        metrics.count("durability", "recoveries", kind="stale_claim")
        if "durability" in trace.active_categories:
            trace.emit("durability", "stale_claim_collected",
                       shard=shard.index, owner=owner)
    return collected


def merge_shards(config: CampaignConfig, *,
                 shard_size: int = DEFAULT_SHARD_SIZE,
                 on_bad_line=None,
                 on_missing: Callable[[list[int]], None] | None = None,
                 shard_dir: str | None = None,
                 stale_after_s: float = DEFAULT_STALE_CLAIM_S
                 ) -> CampaignSummary:
    """Combine every shard's JSONL into the campaign's results file.

    Dedupe prefers completed records over failures (a stolen shard can
    leave both a dead owner's failure and the thief's success), torn
    tails are healed by :func:`load_records`, and the merged file is
    written sorted by seed -- byte-identical ordering to a jobs=1 run,
    so the findings digests match. The campaign's CoverageMap is
    rebuilt from the merged records and saved beside the output,
    byte-identical to the map an unsharded run writes.

    *on_missing(missing_seed_ids)* is called when seeds are absent
    from every shard (the sorted full id list); the default prints
    :func:`missing_seeds_message` to stderr.

    With *shard_dir*, stale claims a SIGKILLed runner abandoned are
    garbage-collected first (see :func:`collect_stale_claims`), along
    with any ``.durability-*.tmp`` residue in the queue directory.
    """
    if not config.output:
        raise CampaignError("merge needs --output")
    if shard_dir:
        collect_stale_claims(shard_dir, config, shard_size=shard_size,
                             stale_after_s=stale_after_s)
        durability.collect_stale_tmp(shard_dir)
    merged: dict[int, dict] = {}
    for shard in plan_shards(config, shard_size):
        path = shard_results_path(config.output, shard.index)
        for seed, record in load_records(
                path, on_bad_line=on_bad_line).items():
            if seed not in shard.seeds:
                continue   # foreign/corrupt row: never cross shards
            current = merged.get(seed)
            if current is None or (current.get("status") != "ok"
                                   and record.get("status") == "ok"):
                merged[seed] = record
    missing = [seed for seed in config.seeds if seed not in merged]
    if missing:
        if on_missing is not None:
            on_missing(missing)
        else:
            print(missing_seeds_message(missing), file=sys.stderr)
    durability.atomic_write_text(
        config.output,
        "".join(durability.record_line(merged[seed])
                for seed in sorted(merged)))
    in_range = {seed: record for seed, record in merged.items()
                if seed in config.seeds}
    CoverageMap.from_records(in_range).save(
        coverage_map_path(config.output))
    return summarize(in_range)
