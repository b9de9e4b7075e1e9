"""The campaign runner.

At jobs=1 seeds run inline, in this process. At jobs=N they fan out
over long-lived **warm workers**: a ``ProcessPoolExecutor`` whose
initializer runs once per process (configure the shared cache, adopt
the parent's base-corpus snapshot, compile nothing per task), and each
task carries one seed. The base corpus itself is materialized exactly
once into a content-addressed mmap-friendly snapshot (see
:mod:`repro.campaign.snapshot`) that every worker opens read-only;
:meth:`~repro.campaign.mutate.CorpusMutator.base_view` then serves
every seed from the same in-memory tree with zero corpus copies.

Every seed runs under a ``SIGALRM`` wall-clock timeout
(``timeout_s``) at every job count, and every failure -- timeout,
exception, even a worker-pool collapse -- becomes a result record, so
one pathological seed never kills the campaign. Results stream to
JSONL the moment they arrive (see :mod:`repro.campaign.results`),
which is what makes ``--resume`` lossless.

Liveness (jobs=N): the parent polls the pool with a timeout instead
of blocking on each future, notes when it first sees each future
running, and writes one stderr line for any seed that has run longer
than half its ``timeout_s`` -- so a wedged seed shows before its
timeout fires, from facts the parent already holds.

Self-healing: ``retry`` grants every failing seed a bounded number of
immediate re-runs; a hung seed is one such failure, so ``timeout_s``
plus ``retry`` is the hang recovery. ``fault_spec`` arms a per-seed
:class:`~repro.faults.FaultPlan` (stream = seed, attempt = retry
number) inside :func:`_guarded_run_seed`, which is how the chaos
harness injects worker crashes and hangs deterministically.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
import traceback
from collections import Counter, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro import durability, faults, metrics, perfcache
from repro.campaign import snapshot as snapshot_store
from repro.coverage import CoverageMap, coverage_map_path
from repro.campaign.mutate import CorpusMutator
from repro.campaign.oracle import run_differential
from repro.campaign.results import (CampaignSummary, append_record,
                                    completed_seeds, failure_record,
                                    load_records, result_record,
                                    summarize)

#: in-flight task factor: the parent keeps at most ``jobs * 2`` seed
#: futures queued, enough to hide result-processing latency
INFLIGHT_FACTOR = 2

#: how often the parent wakes to look for stalled seeds while
#: futures run
POLL_S = 2.0


@dataclass
class CampaignConfig:
    """Everything one ``repro-dma campaign`` invocation needs."""

    nr_seeds: int = 20
    seed_base: int = 1
    jobs: int = 1
    base_seed: int = 2021
    mutations_per_seed: int = 6
    timeout_s: float = 120.0
    scale: float = 1.0
    phys_mb: int = 256
    output: str | None = "campaign/results.jsonl"
    resume: bool = False
    #: flight-recorder events attached to disagreeing seeds (0 = off)
    trace_events: int = 64
    #: shared on-disk analysis cache warmed by every worker; ``None``
    #: keeps caching in-process only (see :mod:`repro.perfcache`)
    cache_dir: str | None = None
    #: read by nothing (liveness comes from the pool's own futures):
    #: ``perfbench/rep.py`` still passes it, and the benchmark's files
    #: change only in a change of their own, which deletes this field
    #: together with the snapshot
    heartbeat_dir: str | None = None
    #: re-run a failing seed (error/timeout/crash/fault) up to N times
    retry: int = 0
    #: JSON form of a :class:`repro.faults.FaultSpec`; each seed run
    #: compiles it with stream=seed, attempt=retry-number
    fault_spec: dict | None = None
    #: IOMMU backend model for the dynamic replay; ``None`` (or
    #: ``"intel-vtd"``) is the pre-backend default path
    backend: str | None = None

    @property
    def seeds(self) -> list[int]:
        return list(range(self.seed_base, self.seed_base + self.nr_seeds))


class _SeedTimeout(Exception):
    pass


def _alarm_handler(_signum, _frame):
    raise _SeedTimeout()


@contextlib.contextmanager
def _seed_alarm(timeout_s: float):
    """Raise :class:`_SeedTimeout` in the body after *timeout_s*.

    Armed only on a main thread (the only place ``SIGALRM`` can be
    handled): a worker process's task and an inline jobs=1 run alike.
    """
    if not (timeout_s and hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread()):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _alarm_handler)
    signal.alarm(max(1, int(timeout_s)))
    try:
        yield
    finally:
        try:
            signal.alarm(0)
        finally:
            # reached even when the alarm fires just before alarm(0)
            signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)


def run_seed(seed: int, *, base_seed: int = 2021,
             mutations_per_seed: int = 6, scale: float = 1.0,
             phys_mb: int = 256, trace_events: int = 64,
             backend: str | None = None,
             mutator: CorpusMutator | None = None,
             coverage: bool = True) -> dict:
    """Derive, analyze, replay, and score one campaign seed.

    *mutator*, when given, is a warm :class:`CorpusMutator` whose base
    corpus is already materialized (the worker-process fast path); it
    must match *base_seed*/*scale*. Without one, a fresh mutator is
    built. SPADE analyzes the seed's tree as a delta of the mutator's
    :meth:`~CorpusMutator.base_spade`, or in full with caching off.
    """
    start = time.monotonic()
    if mutator is None:
        mutator = CorpusMutator(base_seed, scale=scale)
    base = mutator.base_spade()
    mutated = mutator.derive(seed, mutations_per_seed)
    result = run_differential(mutated.tree, mutated.manifest, seed=seed,
                              phys_mb=phys_mb,
                              trace_events=trace_events,
                              backend=backend, coverage=coverage,
                              base=base)
    return result_record(result, mutated.mutations,
                         duration_s=time.monotonic() - start)


def _guarded_run_seed(seed: int, config: "CampaignConfig", *,
                      attempt: int = 0,
                      mutator: CorpusMutator | None = None) -> dict:
    """run_seed with crash capture, optional fault plan, and a hard
    timeout."""
    start = time.monotonic()
    plan = None
    if config.fault_spec:
        plan = faults.FaultSpec.from_json(config.fault_spec).compile(
            stream=seed, attempt=attempt)
    try:
        # the alarm is the inner context, so it is disarmed before the
        # fault session restores the previous plan
        with faults.session(plan), _seed_alarm(config.timeout_s):
            if "campaign.worker.crash" in faults.active_sites \
                    and faults.fires("campaign.worker.crash"):
                raise faults.InjectedWorkerCrash("campaign.worker.crash")
            if "campaign.worker.hang" in faults.active_sites:
                hang = faults.fires("campaign.worker.hang")
                if hang is not None:
                    time.sleep(hang.arg or 30.0)
            record = run_seed(seed, base_seed=config.base_seed,
                              mutations_per_seed=config.mutations_per_seed,
                              scale=config.scale, phys_mb=config.phys_mb,
                              trace_events=config.trace_events,
                              backend=config.backend,
                              mutator=mutator)
    except _SeedTimeout:
        record = failure_record(seed, "timeout",
                                f"exceeded {config.timeout_s}s",
                                duration_s=time.monotonic() - start)
    except faults.InjectedFault as exc:
        # an injected fault escaped every recovery path: name the site
        record = failure_record(seed, "fault",
                                f"injected fault at {exc.site}",
                                duration_s=time.monotonic() - start)
    except Exception:
        record = failure_record(seed, "error", traceback.format_exc(),
                                duration_s=time.monotonic() - start)
    if attempt:
        record["attempt"] = attempt
    return record


def _configure_cache(config: "CampaignConfig") -> bool:
    """Point the process-wide cache at ``config.cache_dir``.

    ``REPRO_CACHE=off`` turns the cache off here too, as it does for
    every other subcommand, and leaves the directory untouched.
    Returns whether the disk tier is on.
    """
    if not config.cache_dir:
        return False
    enabled = perfcache.enabled_from_env()
    perfcache.configure(config.cache_dir if enabled else None,
                        enabled=enabled)
    return enabled


#: set once per worker process by :func:`_init_worker`; each submitted
#: task then pickles only its seed instead of re-shipping the whole
#: config (or the corpus) with every future
_WORKER_CONFIG: CampaignConfig | None = None
_WORKER_MUTATOR: CorpusMutator | None = None


def _init_worker(config: "CampaignConfig",
                 snapshot_path: str | None = None) -> None:
    """One-time per-process warm-up: this is what makes workers warm.

    Configures the shared disk cache, builds the process's one
    :class:`CorpusMutator`, materializes its base corpus -- from the
    parent's read-only snapshot when one exists, else from the
    cache/regenerate path -- and analyzes it, the base of every
    seed's delta SPADE run (on a cold disk tier this is what writes
    the base parse trees; the parent of a pool run analyzes nothing).
    Every seed the worker later runs reuses all of it; no per-task
    setup remains.
    """
    global _WORKER_CONFIG, _WORKER_MUTATOR
    # a crashtest kill must land in the *coordinating* process, never
    # nondeterministically in whichever worker wrote first
    durability.disarm_crash_points()
    _WORKER_CONFIG = config
    _configure_cache(config)
    _WORKER_MUTATOR = CorpusMutator(config.base_seed,
                                    scale=config.scale)
    adopted = False
    if snapshot_path:
        adopted = snapshot_store.adopt(_WORKER_MUTATOR, snapshot_path)
    if not adopted:
        # no (or torn) snapshot: warm from the cache/regenerate path
        # once, here, instead of lazily inside the first seed
        _WORKER_MUTATOR.base_view()
    _WORKER_MUTATOR.base_spade()
    if config.cache_dir:
        # seeds make no cache lookups, so the worker's stats are final
        # here (lock-free: each process only ever overwrites its own
        # file, and a no-op when REPRO_CACHE=off left no disk tier)
        perfcache.default_cache().persist_stats()


def _worker_seed(seed: int, attempt: int) -> dict:
    """Run one seed in a warm worker."""
    config = _WORKER_CONFIG
    assert config is not None, "worker initializer did not run"
    return _guarded_run_seed(seed, config, attempt=attempt,
                             mutator=_WORKER_MUTATOR)


def _note_stalls(inflight: dict, started: dict, timeout_s: float) -> None:
    """Write one stderr line for each in-flight seed that has run
    longer than half its timeout.

    "Running" is the pool's view: a future turns running when the pool
    queues it for a worker, so a seed waiting behind busy workers
    counts from then, and a poll may see it up to ``POLL_S`` late.
    """
    now = time.monotonic()
    for future, seed in inflight.items():
        if future not in started and future.running():
            started[future] = now
        since = started.get(future)
        if since is not None and timeout_s \
                and now - since > timeout_s / 2:
            print(f"campaign: seed {seed} has run {now - since:.0f}s, "
                  f"over half its {timeout_s:g}s timeout",
                  file=sys.stderr)
            started[future] = None


def run_campaign(config: CampaignConfig, *,
                 progress: Callable[[dict], None] | None = None
                 ) -> CampaignSummary:
    """Run (or resume) a campaign; returns the aggregate summary."""
    if config.output:
        # a previous run killed mid-write leaves .durability-*.tmp
        # residue beside the artifacts; collect anything stale enough
        # that no live writer can own it
        durability.collect_stale_tmp(os.path.dirname(config.output)
                                     or ".")
    existing: dict[int, dict] = {}
    if config.resume and config.output:
        bad_lines: list[int] = []
        existing = load_records(
            config.output,
            on_bad_line=lambda lineno, _line: bad_lines.append(lineno))
        if bad_lines:
            shown = ", ".join(map(str, bad_lines[:8]))
            print(f"campaign: warning: {config.output}: skipped "
                  f"{len(bad_lines)} truncated/corrupt record line(s) "
                  f"({shown}); the affected seeds will be re-run",
                  file=sys.stderr)
    done = completed_seeds(existing)
    pending = [seed for seed in config.seeds if seed not in done]
    records = {seed: record for seed, record in existing.items()
               if seed in config.seeds}

    #: the campaign-wide CoverageMap, accumulated as results land and
    #: persisted beside the results file; resumed records are folded
    #: in up front so the map always covers every completed seed
    cover = CoverageMap()
    nr_novelty_free = 0   # consecutive completed seeds with 0 novelty
    for seed in sorted(records):
        cover.observe_record(records[seed])

    def finish() -> CampaignSummary:
        if config.output:
            cover.save(coverage_map_path(config.output))
        return summarize(records)

    #: seeds still to run; a failed seed with retry budget left goes
    #: back on the end. ``tries`` counts the re-runs each seed has had,
    #: which is also the attempt number its next run carries (and so
    #: drives fault-plan derivation)
    work = deque(pending)
    tries: Counter = Counter()

    def record_result(record: dict) -> None:
        seed = record["seed"]
        status = record["status"]
        if status != "ok" and tries[seed] < config.retry:
            tries[seed] += 1
            record["will_retry"] = True
            work.append(seed)
            if config.output:
                # the failed attempt stays in the JSONL audit trail;
                # the eventual completed record supersedes it
                append_record(config.output, record)
            metrics.count("campaign", "retries", status=status)
            if progress is not None:
                progress(record)
            return
        records[seed] = record
        if config.output:
            append_record(config.output, record)
        metrics.count("campaign", "seeds", status=record["status"])
        if record.get("disagreements"):
            metrics.count("campaign", "disagreements",
                          len(record["disagreements"]))
        if record.get("coverage"):
            nonlocal nr_novelty_free
            novel = cover.observe_record(record)
            nr_novelty_free = 0 if novel else nr_novelty_free + 1
            metrics.set_gauge("coverage", "features_total",
                              cover.nr_features)
            metrics.observe("coverage", "novel_features", novel)
            metrics.set_gauge("coverage", "saturation_seeds",
                              nr_novelty_free)
        if progress is not None:
            progress(record)

    disk_cache = _configure_cache(config)
    mutator = CorpusMutator(config.base_seed, scale=config.scale)

    if config.jobs <= 1:
        # one warm mutator for the whole inline run: the base corpus
        # is materialized and analyzed once, before the first seed
        # (which also puts its parse trees in the disk tier), and every
        # seed derives from the same view
        if pending:
            mutator.base_spade()
        while work:
            seed = work.popleft()
            record_result(_guarded_run_seed(seed, config,
                                            attempt=tries[seed],
                                            mutator=mutator))
        if disk_cache:
            perfcache.default_cache().persist_stats()
        return finish()

    # -- parallel mode: snapshot once, then warm one-seed tasks -------------

    snapshot_path = None
    scratch_snapshot_root = None
    if pending:
        if disk_cache:
            snapshot_root = os.path.join(config.cache_dir,
                                         perfcache.SNAPSHOTS_DIR)
        else:
            scratch_snapshot_root = tempfile.mkdtemp(
                prefix="repro-campaign-snap-")
            snapshot_root = scratch_snapshot_root
        try:
            snapshot_path = snapshot_store.materialize(mutator,
                                                       snapshot_root)
        except OSError:
            # a snapshot is an optimization, never a requirement:
            # workers fall back to the cache/regenerate path
            snapshot_path = None

    try:
        while work:
            executor = ProcessPoolExecutor(
                max_workers=config.jobs, initializer=_init_worker,
                initargs=(config, snapshot_path))
            broken = False
            inflight: dict = {}   # future -> seed
            #: when each future was first seen running; a future drops
            #: out once its stall line is written, so it warns once
            started: dict = {}
            try:
                while inflight or (work and not broken):
                    while work and not broken \
                            and len(inflight) < config.jobs \
                            * INFLIGHT_FACTOR:
                        seed = work.popleft()
                        future = executor.submit(_worker_seed, seed,
                                                 tries[seed])
                        inflight[future] = seed
                    finished, _pending = wait(
                        inflight, timeout=POLL_S,
                        return_when=FIRST_COMPLETED)
                    for future in finished:
                        seed = inflight.pop(future)
                        started.pop(future, None)
                        try:
                            record = future.result()
                        except BrokenProcessPool:
                            # a worker died (e.g. OOM-killed) and took
                            # the pool with it: rebuild after the drain
                            broken = True
                            record = failure_record(
                                seed, "crash",
                                "worker process pool collapsed")
                        except Exception:
                            record = failure_record(
                                seed, "error", traceback.format_exc())
                        record_result(record)
                    _note_stalls(inflight, started, config.timeout_s)
            finally:
                # Join the pool: left to the interpreter's exit hook,
                # its manager thread closes the wakeup pipe the hook
                # writes to (an EBADF traceback at exit). Every seed is
                # done by now, or the pool broke, so the join is short.
                executor.shutdown(wait=True, cancel_futures=True)
    finally:
        if scratch_snapshot_root:
            shutil.rmtree(scratch_snapshot_root, ignore_errors=True)
    return finish()
