"""Bench trajectory tracking: ``BENCH_history.jsonl`` + regression gate.

``repro-dma bench`` used to overwrite ``BENCH_perf.json`` and forget
the previous run, so the "perf trajectory" the roadmap promises was
one point long.  This module turns every bench run into an appended
JSONL record and turns ``bench --check`` into a gate: a tracked metric
more than 25% worse than the *rolling median* of comparable prior runs
fails the run (exit 1 at the CLI).

Comparability matters: a smoke-sized CI bench must never be judged
against a full-scale dev-machine history.  Every record therefore
carries a *config signature* (SPADE scale, corpus seed, campaign
scale and lanes), and the gate only compares records whose signature
matches the current run's.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import durability

HISTORY_SCHEMA = 1

DEFAULT_HISTORY = "BENCH_history.jsonl"

#: fail when a metric is more than this fraction worse than the median
DEFAULT_THRESHOLD = 0.25

#: rolling window: the median is taken over the last N comparable runs
DEFAULT_WINDOW = 10

#: tracked wall-clock timings (seconds; lower is better)
LOWER_IS_BETTER = ("spade_uncached_s", "spade_cold_s",
                   "spade_warm_disk_s", "spade_warm_memory_s")

#: tracked rates (per second; higher is better)
HIGHER_IS_BETTER = ("campaign_seeds_per_s_jobs1",)

#: ``bench --check`` fails when the jobs=N/jobs=1 campaign throughput
#: ratio drops below this (0 disables the gate)
DEFAULT_MIN_PARALLEL_RATIO = 1.5


def config_signature(report: dict) -> str:
    """Fingerprint of the knobs a bench run's numbers depend on.

    Non-default-backend runs append a ``backend=`` component, so
    ``bench --check`` only ever gates a run against prior runs of the
    *same* IOMMU model (per-backend timing profiles differ by design).
    Default runs keep the pre-backend signature byte-identical, so
    existing BENCH_history.jsonl trajectories keep matching.
    """
    spade = report.get("spade", {})
    campaign = report.get("campaign", {})
    jobs = "x".join(str(run.get("jobs")) for run in
                    campaign.get("runs", ()))
    signature = (f"scale={spade.get('scale')}"
                 f",corpus_seed={spade.get('corpus_seed')}"
                 f",campaign_scale={campaign.get('scale')}"
                 f",campaign_jobs={jobs}")
    backend = report.get("backend")
    if backend:
        signature += f",backend={backend}"
    return signature


def tracked_metrics(report: dict) -> dict[str, float]:
    """Flatten one bench report to the gated metric set.

    The jobs=1 campaign seeds-per-second lane is gated like any other
    rate: one process runs the seeds back to back. The jobs=N lanes
    ride along for trend plots but are *not* gated: multiprocess
    scheduling jitter at 4-seed batches would make a 25% threshold
    flap. Their ratio to jobs=1 has its own floor instead (see
    :func:`parallel_ratio_gate`).
    """
    spade = report.get("spade", {})
    metrics = {
        "spade_uncached_s": spade.get("uncached_s"),
        "spade_cold_s": spade.get("cold_s"),
        "spade_warm_disk_s": spade.get("warm_disk_s"),
        "spade_warm_memory_s": spade.get("warm_memory_s"),
    }
    rate_by_jobs: dict[int, float] = {}
    for run in report.get("campaign", {}).get("runs", ()):
        metrics[f"campaign_seeds_per_s_jobs{run.get('jobs')}"] = \
            run.get("seeds_per_s")
        if run.get("jobs") == 1:
            # coverage observability lane: recorded for trend plots
            # and regression triage, deliberately absent from the
            # LOWER/HIGHER_IS_BETTER gate lists (coverage depends on
            # the corpus, not on code speed -- cross-gating would
            # make unrelated corpus changes fail perf CI)
            metrics["campaign_coverage_features"] = \
                run.get("coverage_features")
            metrics["campaign_coverage_features_per_seed"] = \
                run.get("coverage_features_per_seed")
        if isinstance(run.get("jobs"), int) \
                and isinstance(run.get("seeds_per_s"), (int, float)):
            rate_by_jobs[run["jobs"]] = float(run["seeds_per_s"])
    # the parallel-scaling signal, one ratio per parallel lane plus
    # the headline ``campaign_parallel_ratio`` (top lane over jobs=1).
    # < 1.0 means adding workers made the campaign *slower*; the
    # headline ratio is hard-gated by ``bench --check`` (see
    # :func:`parallel_ratio_gate`).
    if len(rate_by_jobs) >= 2 and rate_by_jobs.get(1):
        for nr_jobs, rate in rate_by_jobs.items():
            if nr_jobs != 1:
                metrics[f"campaign_parallel_ratio_jobs{nr_jobs}"] = \
                    round(rate / rate_by_jobs[1], 4)
        top_jobs = max(rate_by_jobs)
        if top_jobs != 1:
            metrics["campaign_parallel_ratio"] = round(
                rate_by_jobs[top_jobs] / rate_by_jobs[1], 4)
    return {name: float(value) for name, value in metrics.items()
            if isinstance(value, (int, float))}


def parallel_scaling_warning(record: dict) -> str | None:
    """A warning line when jobs=N ran slower than jobs=1, else None."""
    ratio = record.get("metrics", {}).get("campaign_parallel_ratio")
    if not isinstance(ratio, (int, float)) or ratio >= 1.0:
        return None
    jobs = [name.split("jobs")[-1] for name in record.get("metrics", {})
            if name.startswith("campaign_seeds_per_s_jobs")
            and not name.endswith("jobs1")]
    label = f"jobs={jobs[0]}" if len(jobs) == 1 else "parallel"
    return (f"bench check: warning: {label} campaign is slower than "
            f"jobs=1 (ratio {ratio:.2f}); parallel scaling regression")


def parallel_ratio_gate(record: dict, *,
                        min_ratio: float = DEFAULT_MIN_PARALLEL_RATIO
                        ) -> str | None:
    """The hard parallel-scaling gate behind ``bench --check``.

    Returns the failure line when the record's headline
    ``campaign_parallel_ratio`` is below *min_ratio*, else None.
    ``min_ratio <= 0`` disables the gate; a record with no ratio
    (single-lane bench, e.g. ``--jobs 1``) passes -- there is nothing
    to gate. This is how the jobs=N-slower-than-jobs=1 regression the
    warm-worker runner fixed can never silently return.
    """
    if min_ratio <= 0:
        return None
    ratio = record.get("metrics", {}).get("campaign_parallel_ratio")
    if not isinstance(ratio, (int, float)) or ratio >= min_ratio:
        return None
    return (f"bench check: FAIL: campaign parallel ratio {ratio:.2f} "
            f"below the required {min_ratio:.2f} (jobs=N seeds/s over "
            f"jobs=1); pass --min-parallel-ratio 0 only on known "
            f"single-core machines")


def history_record(report: dict) -> dict:
    """One appendable JSONL record derived from a bench report."""
    record = {
        "schema": HISTORY_SCHEMA,
        "timestamp": report.get("timestamp"),
        "version": report.get("version"),
        "signature": config_signature(report),
        "ok": report.get("ok"),
        "metrics": tracked_metrics(report),
    }
    if report.get("backend"):
        record["backend"] = report["backend"]
    return record


def append_history(path: str, record: dict) -> None:
    """Journaled append: newline-guarded and checksummed, so a bench
    run killed mid-append can never corrupt the *next* run's record,
    and ``bench --check`` can tell a torn tail from a bit flip."""
    durability.append_jsonl(path, record)


def load_history(path: str, *, signature: str | None = None) -> list[dict]:
    """Records from *path*, oldest first.

    A torn **trailing** line (the writer was killed mid-append) is
    healed with one :class:`UserWarning` naming its byte offset --
    the same tolerance ``trace.export.load_jsonl`` applies -- instead
    of failing the ``bench --check`` gate; other corrupt lines are
    skipped. With *signature*, only records from comparable
    configurations are returned.
    """
    records = []
    try:
        rows = durability.replay_jsonl(path, warn=True)
    except OSError:
        return []
    for _lineno, record in rows:
        if record.get("schema") != HISTORY_SCHEMA:
            continue
        if signature is not None \
                and record.get("signature") != signature:
            continue
        records.append(record)
    return records


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Regression:
    """One tracked metric that breached the threshold."""

    metric: str
    value: float
    median: float
    ratio: float          # value/median (times) or median/value (rates)
    direction: str        # "slower" or "lower-rate"

    def describe(self) -> str:
        return (f"{self.metric}: {self.value:g} vs rolling median "
                f"{self.median:g} ({self.ratio:.2f}x {self.direction})")


def check_regressions(record: dict, history: list[dict], *,
                      threshold: float = DEFAULT_THRESHOLD,
                      window: int = DEFAULT_WINDOW) -> list[Regression]:
    """Tracked metrics of *record* vs the rolling median of *history*.

    *history* must already be signature-filtered (see
    :func:`load_history`); an empty history gates nothing.
    """
    regressions = []
    recent = history[-window:]
    current = record.get("metrics", {})
    for name in (*LOWER_IS_BETTER, *HIGHER_IS_BETTER):
        value = current.get(name)
        if value is None:
            continue
        priors = [r["metrics"][name] for r in recent
                  if isinstance(r.get("metrics", {}).get(name),
                                (int, float))]
        if not priors:
            continue
        median = _median([float(p) for p in priors])
        if median <= 0:
            continue
        if name in LOWER_IS_BETTER:
            if value > median * (1 + threshold):
                regressions.append(Regression(
                    metric=name, value=value, median=median,
                    ratio=value / median, direction="slower"))
        else:
            if value < median * (1 - threshold):
                regressions.append(Regression(
                    metric=name, value=value, median=median,
                    ratio=median / value, direction="lower-rate"))
    return regressions


def format_regressions(regressions: list[Regression], *,
                       threshold: float = DEFAULT_THRESHOLD) -> str:
    if not regressions:
        return "bench check: OK (no tracked metric regressed)"
    lines = [f"bench check: {len(regressions)} regression(s) "
             f"past the {int(threshold * 100)}% gate"]
    lines += [f"  {r.describe()}" for r in regressions]
    return "\n".join(lines)
