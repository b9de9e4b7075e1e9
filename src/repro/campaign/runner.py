"""The parallel campaign runner.

Built for raw throughput: seeds fan out over long-lived **warm
workers** (a ``ProcessPoolExecutor`` whose initializer runs once per
process: configure the shared cache, adopt the parent's base-corpus
snapshot, compile nothing per task) and travel in **batches** -- the
parent sizes each task to carry at least
:attr:`CampaignConfig.batch_target_s` of work (adaptive, from an EWMA
of observed per-seed duration), so submit/pickle/result IPC is paid
per batch instead of per seed. The base corpus itself is materialized
exactly once into a content-addressed mmap-friendly snapshot (see
:mod:`repro.campaign.snapshot`) that every worker opens read-only;
:meth:`~repro.campaign.mutate.CorpusMutator.base_view` then serves
every seed from the same in-memory tree with zero corpus copies.

Each worker enforces its own per-seed wall-clock timeout via
``SIGALRM`` and converts every failure -- timeout, exception, even a
worker-pool collapse -- into a result record, so one pathological
seed never kills the campaign. Results stream to JSONL the moment
they arrive (see :mod:`repro.campaign.results`), which is what makes
``--resume`` lossless.

Health telemetry: when ``heartbeat_dir`` is set, every worker rewrites
one ``worker-<pid>.json`` beat per **seed** -- not per task -- so a
long healthy batch never reads as silence (see
:mod:`repro.metrics.heartbeat`); the parent polls the pool with a
timeout instead of blocking on each future, scanning the heartbeat
directory between polls, so a wedged seed surfaces as a STALLED
worker on the progress line instead of a silent hang.

Self-healing: ``retry`` grants every failing seed a bounded number of
re-runs (with deterministic jittered backoff when ``backoff_s`` is
set), and ``retry_stalled`` upgrades the STALLED flag into recovery --
the parent SIGKILLs the silent worker, lets the pool collapse and
rebuild, records the victim seed as ``stalled``, and requeues it;
innocent seeds that were in flight in the same pool (including the
victim batch's other seeds) are requeued without charging their retry
budget. ``fault_spec`` arms a per-seed
:class:`~repro.faults.FaultPlan` (stream = seed, attempt = retry
number) inside :func:`_guarded_run_seed`, which is how the chaos
harness injects worker crashes and cache I/O errors deterministically;
the batch-lifecycle site ``campaign.batch.crash`` additionally fires
once per batch (stream = the batch's first seed) and takes the whole
batch down, exercising the parent's batch-failure requeue path.
"""

from __future__ import annotations

import math
import os
import random
import shutil
import signal
import sys
import tempfile
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
from repro.metrics.heartbeat import (DEFAULT_STALL_AFTER_S, Heartbeat,
                                     HeartbeatMonitor, WorkerHealth)

#: in-flight task factor: the parent keeps at most ``jobs * 2`` batch
#: futures queued, enough to hide result-processing latency without
#: hoarding seeds in oversized batches
INFLIGHT_FACTOR = 2

#: how often the parent wakes to scan heartbeats while futures run
HEARTBEAT_POLL_S = 2.0

#: retry backoff sleeps are capped here no matter the configuration
MAX_BACKOFF_S = 5.0

#: default adaptive-batching target: at least this much work per task
DEFAULT_BATCH_TARGET_S = 0.05

#: adaptive batches never exceed this many seeds
DEFAULT_MAX_BATCH = 64

#: EWMA smoothing for the observed per-seed duration
_EWMA_ALPHA = 0.3


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
    #: worker heartbeat files land here; ``None`` disables telemetry
    heartbeat_dir: str | None = None
    #: a worker silent for longer than this is flagged as stalled
    stall_after_s: float = DEFAULT_STALL_AFTER_S
    #: re-run a failing seed (error/timeout/crash/fault) up to N times
    retry: int = 0
    #: SIGKILL + requeue a STALLED worker's seed up to N times
    retry_stalled: int = 0
    #: base for the deterministic jittered sleep before a retry
    backoff_s: float = 0.0
    #: JSON form of a :class:`repro.faults.FaultSpec`; each seed run
    #: compiles it with stream=seed, attempt=retry-number
    fault_spec: dict | None = None
    #: IOMMU backend model for the dynamic replay; ``None`` (or
    #: ``"intel-vtd"``) is the pre-backend default path
    backend: str | None = None
    #: root for the shared base-corpus snapshot workers map read-only;
    #: ``None`` derives one from ``cache_dir`` (or a temp dir)
    snapshot_dir: str | None = None
    #: adaptive batching: target at least this much work per task
    batch_target_s: float = DEFAULT_BATCH_TARGET_S
    #: adaptive batching: hard per-batch seed cap
    max_batch: int = DEFAULT_MAX_BATCH
    #: attach a deterministic per-seed coverage signature to every
    #: result and accumulate the campaign CoverageMap (see
    #: :mod:`repro.coverage`)
    coverage: bool = True

    @property
    def seeds(self) -> list[int]:
        return list(range(self.seed_base, self.seed_base + self.nr_seeds))


class _SeedTimeout(Exception):
    pass


def _alarm_handler(_signum, _frame):
    raise _SeedTimeout()


def run_seed(seed: int, *, base_seed: int = 2021,
             mutations_per_seed: int = 6, scale: float = 1.0,
             phys_mb: int = 256, trace_events: int = 64,
             backend: str | None = None,
             mutator: CorpusMutator | None = None,
             coverage: bool = True) -> dict:
    """Derive, analyze, replay, and score one campaign seed.

    *mutator*, when given, is a warm :class:`CorpusMutator` whose base
    corpus is already materialized (the worker-process fast path); it
    must match *base_seed*/*scale*.
    """
    start = time.monotonic()
    if mutator is None:
        mutator = CorpusMutator(base_seed, scale=scale)
    mutated = mutator.derive(seed, mutations_per_seed)
    result = run_differential(mutated.tree, mutated.manifest, seed=seed,
                              phys_mb=phys_mb,
                              trace_events=trace_events,
                              backend=backend, coverage=coverage)
    return result_record(result, mutated.mutations,
                         duration_s=time.monotonic() - start)


def _guarded_run_seed(seed: int, config: "CampaignConfig", *,
                      use_alarm: bool, attempt: int = 0,
                      mutator: CorpusMutator | None = None) -> dict:
    """run_seed with crash capture, optional fault plan, and (in
    workers) a hard timeout."""
    start = time.monotonic()
    plan = None
    if config.fault_spec:
        plan = faults.FaultSpec.from_json(config.fault_spec).compile(
            stream=seed, attempt=attempt)
    previous = None
    if use_alarm and hasattr(signal, "SIGALRM") and config.timeout_s:
        previous = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.alarm(max(1, int(config.timeout_s)))
    try:
        with faults.session(plan):
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
                              mutator=mutator,
                              coverage=config.coverage)
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
    finally:
        if previous is not None:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    if attempt:
        record["attempt"] = attempt
    return record


#: set once per worker process by :func:`_init_worker`; each submitted
#: task then pickles only its seed batch instead of re-shipping the
#: whole config (or the corpus) with every future
_WORKER_CONFIG: CampaignConfig | None = None
_WORKER_HEARTBEAT: Heartbeat | None = None
_WORKER_MUTATOR: CorpusMutator | None = None
_WORKER_SEEDS_DONE = 0
_WORKER_BATCHES_DONE = 0


def _init_worker(config: "CampaignConfig",
                 snapshot_path: str | None = None) -> None:
    """One-time per-process warm-up: this is what makes workers warm.

    Configures the shared disk cache, builds the process's one
    :class:`CorpusMutator`, and materializes its base corpus -- from
    the parent's read-only snapshot when one exists, else from the
    cache/regenerate path. Every batch the worker later pulls reuses
    all of it; no per-task setup remains.
    """
    global _WORKER_CONFIG, _WORKER_HEARTBEAT, _WORKER_MUTATOR
    global _WORKER_SEEDS_DONE, _WORKER_BATCHES_DONE
    # a crashtest kill must land in the *coordinating* process, never
    # nondeterministically in whichever worker wrote first
    durability.disarm_crash_points()
    _WORKER_CONFIG = config
    _WORKER_SEEDS_DONE = 0
    _WORKER_BATCHES_DONE = 0
    if config.cache_dir:
        perfcache.configure(config.cache_dir)
    if config.heartbeat_dir:
        _WORKER_HEARTBEAT = Heartbeat(config.heartbeat_dir,
                                      str(os.getpid()))
        _WORKER_HEARTBEAT.beat(stage="warmup", seeds_done=0)
    else:
        _WORKER_HEARTBEAT = None
    _WORKER_MUTATOR = CorpusMutator(config.base_seed,
                                    scale=config.scale)
    adopted = False
    if snapshot_path:
        adopted = snapshot_store.adopt(_WORKER_MUTATOR, snapshot_path)
    if not adopted:
        # no (or torn) snapshot: warm from the cache/regenerate path
        # once, here, instead of lazily inside the first seed
        _WORKER_MUTATOR.base_view()
    if _WORKER_HEARTBEAT is not None:
        _WORKER_HEARTBEAT.beat(stage="idle", seeds_done=0)


def _worker_batch(seeds: list[int], attempts: list[int]) -> list[dict]:
    """Run one seed batch in a warm worker; returns one record per
    seed. Heartbeats update per seed *within* the batch, so stall
    detection keeps seed granularity no matter the batch size."""
    global _WORKER_SEEDS_DONE, _WORKER_BATCHES_DONE
    config = _WORKER_CONFIG
    assert config is not None, "worker initializer did not run"
    beat = _WORKER_HEARTBEAT
    if config.fault_spec:
        # batch-lifecycle fault site: one poke per batch, stream keyed
        # by the batch's first seed. A firing takes the whole batch
        # down (the parent requeues every seed in it).
        batch_plan = faults.FaultSpec.from_json(
            config.fault_spec).compile(stream=seeds[0],
                                       attempt=attempts[0])
        with faults.session(batch_plan):
            if "campaign.batch.crash" in faults.active_sites \
                    and faults.fires("campaign.batch.crash"):
                raise faults.InjectedWorkerCrash("campaign.batch.crash")
    records = []
    for position, (seed, attempt) in enumerate(zip(seeds, attempts)):
        if beat is not None:
            beat.beat(stage="running", seed=seed,
                      seeds_done=_WORKER_SEEDS_DONE,
                      batch_index=_WORKER_BATCHES_DONE,
                      batch_position=position, batch_size=len(seeds))
        records.append(_guarded_run_seed(seed, config, use_alarm=True,
                                         attempt=attempt,
                                         mutator=_WORKER_MUTATOR))
        _WORKER_SEEDS_DONE += 1
    _WORKER_BATCHES_DONE += 1
    if beat is not None:
        beat.beat(stage="idle", seed=seeds[-1],
                  seeds_done=_WORKER_SEEDS_DONE)
    if config.cache_dir:
        # lock-free (each process only ever overwrites its own file),
        # and amortized: once per batch, not per seed
        perfcache.default_cache().persist_stats()
    return records


def _batch_size(avg_seed_s: float | None, nr_pending: int, jobs: int, *,
                target_s: float, max_batch: int) -> int:
    """Adaptive batch sizing: ≥ *target_s* of work per task, but never
    so large that workers idle while one hoards the tail of the queue."""
    if avg_seed_s and avg_seed_s > 0:
        by_time = math.ceil(target_s / avg_seed_s)
    else:
        by_time = 1   # no measurement yet: smallest batch, fastest probe
    fair_share = math.ceil(nr_pending / max(1, jobs * INFLIGHT_FACTOR))
    return max(1, min(by_time, fair_share, max_batch))


def run_campaign(config: CampaignConfig, *,
                 progress: Callable[[dict], None] | None = None,
                 heartbeat: Callable[[list[WorkerHealth]], None]
                 | None = None) -> CampaignSummary:
    """Run (or resume) a campaign; returns the aggregate summary.

    *heartbeat*, if given, is called with the latest
    :class:`~repro.metrics.heartbeat.WorkerHealth` list every poll
    interval (requires ``config.heartbeat_dir``).
    """
    if config.output:
        # a previous run killed mid-write leaves .durability-*.tmp
        # residue beside the artifacts; collect anything stale enough
        # that no live writer can own it
        durability.collect_stale_tmp(os.path.dirname(config.output)
                                     or ".")
    if config.heartbeat_dir and os.path.isdir(config.heartbeat_dir):
        durability.collect_stale_tmp(config.heartbeat_dir)
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
    cover = CoverageMap() if config.coverage else None
    nr_novelty_free = 0   # consecutive completed seeds with 0 novelty
    if cover is not None:
        for seed in sorted(records):
            cover.observe_record(records[seed])

    def finish() -> CampaignSummary:
        if cover is not None and config.output:
            cover.save(coverage_map_path(config.output))
        return summarize(records)

    #: retry bookkeeping: budget spent per seed, and the attempt
    #: number the seed's next run carries (drives fault-plan derivation)
    error_retries: Counter = Counter()
    stall_retries: Counter = Counter()
    tries: Counter = Counter()
    requeued: list[int] = []
    backoff_rng = random.Random((config.base_seed << 16)
                                ^ config.seed_base)

    def record_result(record: dict) -> None:
        seed = record["seed"]
        status = record["status"]
        retryable = status == "stalled" \
            and stall_retries[seed] < config.retry_stalled
        retryable = retryable or (status not in ("ok", "stalled")
                                  and error_retries[seed] < config.retry)
        if retryable:
            if status == "stalled":
                stall_retries[seed] += 1
            else:
                error_retries[seed] += 1
            tries[seed] += 1
            record["will_retry"] = True
            requeued.append(seed)
            if config.output:
                # the failed attempt stays in the JSONL audit trail;
                # the eventual completed record supersedes it
                append_record(config.output, record)
            metrics.count("campaign", "retries", status=status)
            if progress is not None:
                progress(record)
            if config.backoff_s > 0:
                jitter = 0.5 + backoff_rng.random()
                time.sleep(min(config.backoff_s * jitter,
                               MAX_BACKOFF_S))
            return
        records[seed] = record
        if config.output:
            append_record(config.output, record)
        metrics.count("campaign", "seeds", status=record["status"])
        if record.get("disagreements"):
            metrics.count("campaign", "disagreements",
                          len(record["disagreements"]))
        if cover is not None and record.get("coverage"):
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

    monitor = None
    if config.heartbeat_dir:
        monitor = HeartbeatMonitor(config.heartbeat_dir,
                                   stall_after_s=config.stall_after_s)
        monitor.clear()

    if config.cache_dir:
        perfcache.configure(config.cache_dir)

    if config.jobs <= 1:
        beat = Heartbeat(config.heartbeat_dir, "main") \
            if config.heartbeat_dir else None
        # one warm mutator for the whole inline run: the base corpus
        # is materialized once, every seed derives from the same view
        mutator = CorpusMutator(config.base_seed, scale=config.scale)
        queue = deque(pending)
        nr_done = 0
        while queue:
            seed = queue.popleft()
            if beat is not None:
                beat.beat(stage="running", seed=seed,
                          seeds_done=nr_done)
            record_result(_guarded_run_seed(seed, config,
                                            use_alarm=False,
                                            attempt=tries[seed],
                                            mutator=mutator))
            if requeued:
                queue.extend(requeued)
                requeued.clear()
            nr_done += 1
            if beat is not None:
                beat.beat(stage="idle", seed=seed, seeds_done=nr_done)
            if heartbeat is not None and monitor is not None:
                heartbeat(monitor.scan())
        if config.cache_dir:
            perfcache.default_cache().persist_stats()
        return finish()

    # -- parallel mode: snapshot once, then warm batched workers -------------

    snapshot_path = None
    scratch_snapshot_root = None
    if pending:
        snapshot_root = config.snapshot_dir
        if not snapshot_root and config.cache_dir:
            snapshot_root = os.path.join(config.cache_dir, "snapshots")
        if not snapshot_root:
            scratch_snapshot_root = tempfile.mkdtemp(
                prefix="repro-campaign-snap-")
            snapshot_root = scratch_snapshot_root
        try:
            snapshot_path = snapshot_store.materialize(
                CorpusMutator(config.base_seed, scale=config.scale),
                snapshot_root)
        except OSError:
            # a snapshot is an optimization, never a requirement:
            # workers fall back to the cache/regenerate path
            snapshot_path = None

    killed_pids: set[int] = set()

    def poll_and_recover(inflight_seeds: set[int],
                         stall_victims: dict[int, int]) -> None:
        """Heartbeat scan; with ``retry_stalled`` armed, SIGKILL any
        worker whose running seed has gone silent past the threshold."""
        if monitor is None:
            return
        healths = monitor.scan()
        if heartbeat is not None:
            heartbeat(healths)
        if config.retry_stalled <= 0:
            return
        for health in healths:
            if not health.stalled or not health.pid \
                    or health.pid == os.getpid() \
                    or health.pid in killed_pids \
                    or health.seed not in inflight_seeds:
                continue
            killed_pids.add(health.pid)
            stall_victims[health.pid] = health.seed
            try:
                os.kill(health.pid, signal.SIGKILL)
            except OSError:
                continue
            # retire the dead worker's beat so it is not re-flagged
            try:
                os.unlink(os.path.join(
                    config.heartbeat_dir,
                    f"worker-{health.worker_id}.json"))
            except OSError:
                pass

    avg_seed_s: float | None = None
    work = deque(pending)
    try:
        while work:
            executor = ProcessPoolExecutor(
                max_workers=config.jobs, initializer=_init_worker,
                initargs=(config, snapshot_path))
            broken = False
            stall_victims: dict[int, int] = {}   # killed pid -> seed
            inflight: dict = {}                  # future -> [seeds]
            try:
                while work or inflight:
                    while work and not broken \
                            and len(inflight) < config.jobs \
                            * INFLIGHT_FACTOR:
                        size = _batch_size(
                            avg_seed_s, len(work), config.jobs,
                            target_s=config.batch_target_s,
                            max_batch=config.max_batch)
                        batch = [work.popleft()
                                 for _ in range(min(size, len(work)))]
                        future = executor.submit(
                            _worker_batch, batch,
                            [tries[seed] for seed in batch])
                        inflight[future] = batch
                        metrics.count("campaign", "batches")
                    if not inflight:
                        break
                    finished, _pending = wait(
                        inflight, timeout=HEARTBEAT_POLL_S,
                        return_when=FIRST_COMPLETED)
                    stalled_seeds = set(stall_victims.values())
                    for future in finished:
                        batch = inflight.pop(future)
                        try:
                            batch_records = future.result()
                        except BrokenProcessPool:
                            # the pool died: either we shot a stalled
                            # worker, or a worker was e.g. OOM-killed
                            broken = True
                            for seed in batch:
                                if seed in stalled_seeds:
                                    record_result(failure_record(
                                        seed, "stalled",
                                        f"worker killed after "
                                        f"exceeding the "
                                        f"{config.stall_after_s:.0f}s "
                                        f"heartbeat stall threshold"))
                                elif stall_victims:
                                    # innocent bystander of the stall
                                    # kill: requeue without charging
                                    # its retry budget
                                    requeued.append(seed)
                                else:
                                    record_result(failure_record(
                                        seed, "crash",
                                        "worker process pool "
                                        "collapsed"))
                            continue
                        except faults.InjectedFault as exc:
                            # batch-lifecycle fault: every seed in the
                            # batch failed together; retry re-runs them
                            for seed in batch:
                                record_result(failure_record(
                                    seed, "fault",
                                    f"injected fault at {exc.site}"))
                            continue
                        except Exception:
                            for seed in batch:
                                record_result(failure_record(
                                    seed, "error",
                                    traceback.format_exc()))
                            continue
                        for record in batch_records:
                            duration = record.get("duration_s") or 0.0
                            if duration > 0:
                                avg_seed_s = duration \
                                    if avg_seed_s is None else \
                                    (1 - _EWMA_ALPHA) * avg_seed_s \
                                    + _EWMA_ALPHA * duration
                            record_result(record)
                    if requeued:
                        work.extend(requeued)
                        requeued.clear()
                    inflight_seeds = {seed for batch in inflight.values()
                                      for seed in batch}
                    poll_and_recover(inflight_seeds, stall_victims)
                    if broken and not inflight:
                        break
            finally:
                # Join the pool: left to the interpreter's exit hook,
                # its manager thread closes the wakeup pipe the hook
                # writes to (an EBADF traceback at exit). Every batch is
                # done by now, or the pool broke, so the join is short.
                executor.shutdown(wait=True, cancel_futures=True)
            if requeued:
                work.extend(requeued)
                requeued.clear()
    finally:
        if scratch_snapshot_root:
            shutil.rmtree(scratch_snapshot_root, ignore_errors=True)
    return finish()
