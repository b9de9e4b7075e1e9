"""The repo benchmark: one command per named workload.

    python3 perfbench/run.py --workload campaign-warm --seed 1 \\
        --seconds 30 --trace 0

Run from the root of a checkout. Every step runs in a fresh process
(see :mod:`rep`) inside ``.perfbench-work/`` under the checkout, which
is removed afterwards. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. A failed correctness check makes the command exit 1.
See ``perfbench/README.md`` for the workloads and what each metric is
predicted to do.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")

WORKLOADS = ("campaign-warm", "campaign-uncached", "campaign-parallel",
             "spade-cold")
DEFAULT_SEED = 1

#: timed campaign seeds per process, and warm-up seeds run in set-up.
#: The warm-up seeds are the same for every workload seed, so set-up
#: does the same work in every run and setup_s varies only with the host.
NR_SEEDS = 40
NR_WARM = 16
WARM_BASE = 1_000_000_000
#: set-ups per untraced run (setup_s is their median); traced runs set
#: up once
NR_SETUPS = 5
#: a step still running after this is killed and the run fails
STEP_TIMEOUT_S = 170
#: fastest host-speed probe (``rep._probe_piece``) on the 2-vCPU VM
#: the benchmark was tuned on
PROBE_REF_S = 1.4e-3

#: layers, in stage-table order
LAYERS = ["campaign.runner", "campaign.snapshot", "campaign.mutate",
          "campaign.oracle", "core.spade", "core.spade.cparse",
          "core.spade.ctokens", "perfcache", "sim.kernel", "sim.workload",
          "core.dkasan", "coverage", "durability"]

END_TO_END = {"seeds_per_s": "1/s", "setup_s": "s"}

PER_LAYER = {
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "campaign.runner.seed_ms_p50": "ms",
    "campaign.runner.seed_ms_p95": "ms",
    "campaign.runner.worker_busy_frac": "ratio",
    "core.spade.cparse.calls": "count",
    "perfcache.hit_ratio": "ratio",
    "perfcache.misses": "count",
    "perfcache.stores": "count",
    "sim.workload.sites": "count",
    "core.dkasan.calls": "count",
    "coverage.events": "count",
    "durability.appends": "count",
    "bench.span_overhead_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


class Run:
    """State of one benchmark invocation: its steps, timers, checks."""

    def __init__(self, args: argparse.Namespace, work: str) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.probes: list[float] = []
        self._nr_dirs = 0
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"), TMPDIR=work)
        with open(os.path.join(HERE, "reference.json"),
                  encoding="utf-8") as handle:
            self.reference = json.load(handle)

    def fresh_dir(self, prefix: str) -> str:
        self._nr_dirs += 1
        return os.path.join(self.work, f"{prefix}-{self._nr_dirs}")

    def step(self, name: str, payload: dict) -> tuple[dict, float]:
        """Run one rep.py step in a fresh process; (result, wall s)."""
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "rep.py"), name,
             json.dumps(payload)],
            cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"step {name} timed out")
        wall = time.perf_counter() - started
        if proc.returncode != 0:
            raise BenchError(f"step {name} exited {proc.returncode}:\n"
                             f"{err[-3000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        self.probes.extend(result["probe_s"])
        return result, wall - result["probe_total_s"]

    def host_factor(self) -> float:
        """How much slower than the host the benchmark was tuned on the
        host ran at its fastest during this run: the fastest host-speed
        probe of any step over :data:`PROBE_REF_S`."""
        return min(self.probes) / PROBE_REF_S

    def check(self, what: str, nr_items: int, nr_bad: int,
              ok: bool = True) -> None:
        """Count *nr_items* attempted; all fail when *ok* is false."""
        self.attempted += nr_items
        bad = nr_items if not ok else nr_bad
        self.failed += bad
        if bad:
            self.notes.append(f"FAILED check: {what} ({bad}/{nr_items})")

    def nr_setups(self) -> int:
        return 1 if self.trace else NR_SETUPS

    def until_elapsed(self, kinds: list):
        """Cycle through *kinds* until --seconds have passed (each entry
        at least once); yields (kind, step result)."""
        started = time.monotonic()
        position = 0
        while position < len(kinds) \
                or time.monotonic() - started < self.seconds:
            kind = kinds[position % len(kinds)]
            position += 1
            yield kind, kind()


def at_tuning_speed(out: dict, seconds: float) -> float:
    """*seconds* measured in step *out*, scaled to the speed of the
    host the benchmark was tuned on by the mean of the probes run just
    before and just after the step."""
    return seconds * PROBE_REF_S / statistics.fmean(out["probe_s"])


# -- campaign-warm / campaign-parallel --------------------------------------

def campaign_seed_base(seed: int) -> int:
    """First timed campaign seed for workload seed *seed*: any integer
    maps below :data:`WARM_BASE`, 100000 apart, so the timed seeds never
    reach the warm-up seeds (seeds 0 … 9998 map to ``seed*100000+1``)."""
    return seed % (WARM_BASE // 100_000 - 1) * 100_000 + 1


def parallel_jobs() -> int:
    return max(1, min(len(os.sched_getaffinity(0)), 4))


def fastest_pieces(pieces: list[list[float]]) -> float:
    """Sum over pieces of each piece's fastest duration, where
    ``pieces[k][i]`` is how long process *k* took for piece *i* of the
    same work done from the same state. The host's speed swings by up
    to 2x within seconds; the fastest of several runs of each short
    piece of identical work filters that out, where a median over whole
    processes does not."""
    if len({len(row) for row in pieces}) != 1:
        raise BenchError("processes of one run cut the same work into "
                         "different numbers of pieces")
    return sum(min(column) for column in zip(*pieces))


def best_seconds(reps: list[dict]) -> float:
    """Wall time of one campaign with the host at its fastest: seeds
    (~90 ms each) and the remainder (start-up and the work between
    seeds) as pieces. Pool runs cannot be cut by seed: their fastest
    whole process."""
    if reps[0]["jobs"] > 1:
        return min(out["wall_s"] for out in reps)
    return fastest_pieces([[*out["seed_durations"],
                            out["wall_s"] - out["seed_s"]]
                           for out in reps])


def run_campaign_workload(run: Run, jobs: int, cache: bool = True) -> dict:
    # uncached seeds take twice as long: half as many keep a process at
    # ~5 s, so each seed gets as many samples as on campaign-warm
    nr_seeds = NR_SEEDS if cache else NR_SEEDS // 2
    seed_base = campaign_seed_base(run.seed)
    setup_times = []
    snapshot_ms = 0.0
    for index in range(run.nr_setups()):
        directory = run.fresh_dir("setup")
        out, wall = run.step("setup-campaign", {
            "dir": directory, "warm_base": WARM_BASE,
            "nr_warm": NR_WARM, "trace": run.trace and index == 0})
        setup_times.append(at_tuning_speed(out, wall))
        snapshot_ms += out["snapshot_ms"]
        if index == 0:
            warmed = os.path.join(directory, "cache")

    expected = {}
    pinned = run.reference["campaign"]
    if run.seed == pinned["seed"]:
        expected = dict(pinned[str(nr_seeds)])

    def campaign(nr_jobs: int, trace: bool) -> dict:
        directory = run.fresh_dir("rep")
        if cache:
            shutil.copytree(warmed, os.path.join(directory, "cache"))
        out, _wall = run.step("campaign", {
            "dir": directory, "seed_base": seed_base,
            "nr_seeds": nr_seeds, "jobs": nr_jobs, "trace": trace,
            "cache": cache})
        shutil.rmtree(directory)
        digests = {key: out[key]
                   for key in ("findings_digest", "coverage_digest")}
        if not expected:
            expected.update(digests)
        run.check(f"jobs={nr_jobs} trace={int(trace)} digests", nr_seeds,
                  sum(status != "ok" for status in out["statuses"]),
                  ok=digests == expected
                  and len(out["statuses"]) == nr_seeds)
        return out

    plain = lambda: campaign(jobs, False)           # noqa: E731
    traced = lambda: campaign(1, True)              # noqa: E731
    # the jobs=1 answer a parallel run must reproduce exactly
    baseline = [campaign(1, False)] if jobs > 1 else []
    if not run.trace:
        reps = [out for _kind, out in run.until_elapsed([plain])]
        run.notes.append("seeds/s per whole process: " + " ".join(
            f"{nr_seeds / out['wall_s']:.3f}" for out in reps))
        run.notes.append(f"findings_digest {reps[0]['findings_digest']}"
                         f"\ncoverage_digest {reps[0]['coverage_digest']}")
        rate = nr_seeds / best_seconds(reps)
        factor = run.host_factor()
        run.notes.append(f"seeds/s as measured {rate:.6g}, host_factor "
                         f"{factor:.4f}")
        note_peak_rss(run, reps)
        return {"seeds_per_s": rate * factor,
                "setup_s": statistics.median(setup_times)}

    done = list(run.until_elapsed([traced, plain]))
    traced_reps = [out for kind, out in done if kind is traced]
    plain_reps = [out for kind, out in done if kind is plain]
    serial_reps = baseline or plain_reps
    tables = [table for out in traced_reps for table in out["seeds"]]
    run_tables = [out["run"] for out in traced_reps]
    check_exact_counts(traced_reps)
    walls = [table["wall_ms"] for table in tables]
    stats = traced_reps[0]["perfcache"]
    metrics = {
        **spans.layer_medians(tables, LAYERS, run_tables, nr_seeds),
        "campaign.snapshot.self_ms": snapshot_ms,
        "campaign.runner.seed_ms_p50": statistics.median(walls),
        "campaign.runner.seed_ms_p95":
            statistics.quantiles(walls, n=20)[18],
        "campaign.runner.worker_busy_frac": statistics.median(
            out["seed_s"] / (out["jobs"] * out["wall_s"])
            for out in plain_reps),
        "perfcache.hit_ratio": hit_ratio(stats),
        "perfcache.misses": stats["misses"] / nr_seeds,
        "perfcache.stores": stats["stores"] / nr_seeds,
        "bench.span_overhead_frac":
            best_seconds(serial_reps) / best_seconds(traced_reps) - 1,
    }
    run.notes.append(spans.stage_table(tables, LAYERS, run_tables))
    return metrics


def hit_ratio(stats: dict) -> float:
    """Cache hits over lookups; 0 when caching is off (no lookups)."""
    return stats["hits"] / stats["lookups"] if stats["lookups"] else 0.0


def note_peak_rss(run: Run, reps: list[dict]) -> None:
    """Print the largest resident set of any timed step. It repeats to
    0.1 MiB for the same inputs but grows with what a campaign's seeds
    leave behind, so it differs by up to a third between workload
    seeds: compare it seed by seed, it is not a gated metric."""
    run.notes.append(f"peak_rss_mb: "
                     f"{max(out['peak_rss_mb'] for out in reps):.6g} MiB")


def check_exact_counts(traced_reps: list[dict]) -> None:
    """The exact counts must not depend on timing: every traced
    process of the run reports the same per-seed counts."""
    counts = [[table["counts"] for table in out["seeds"]]
              for out in traced_reps]
    if any(other != counts[0] for other in counts[1:]):
        raise BenchError("exact span counts differ between traced "
                         "processes of one run")


# -- spade-cold -------------------------------------------------------------

def run_spade_workload(run: Run) -> dict:
    setup_times = []
    for index in range(run.nr_setups()):
        directory = run.fresh_dir("corpus")
        out, wall = run.step("setup-spade", {
            "dir": directory, "corpus_seeds": [run.seed * 100]})
        setup_times.append(at_tuning_speed(out, wall))
        if index == 0:
            corpus = os.path.join(directory, "corpus-0.json")
    # the answer every cached, cold analysis must encode byte-identically
    reference, _wall = run.step("spade-reference", {"corpora": [corpus]})
    (digest,) = reference["digests"]
    run.notes.append(f"findings digest {digest}")
    pinned = run.reference["spade-cold"]
    run.check("uncached findings vs pinned reference", 1, 0,
              ok=run.seed != pinned["seed"] or digest == pinned["digest"])

    def analyze(trace: bool) -> dict:
        cache_dir = run.fresh_dir("cache")
        out, _wall = run.step("spade", {
            "corpus": corpus, "cache_dir": cache_dir, "trace": trace})
        shutil.rmtree(cache_dir)
        run.check(f"trace={int(trace)} findings", 1, 0,
                  ok=out["findings_digest"] == digest)
        return out

    plain = lambda: analyze(False)      # noqa: E731
    traced = lambda: analyze(True)      # noqa: E731
    if not run.trace:
        reps = [out for _kind, out in run.until_elapsed([plain])]
        run.notes.append("files/s per process, as measured: " + " ".join(
            f"{out['nr_files'] / out['wall_s']:.1f}" for out in reps))
        # one analysis (~1 s) is the piece of identical work
        rate = 1 / min(out["wall_s"] for out in reps)
        factor = run.host_factor()
        run.notes.append(f"corpora/s as measured {rate:.6g}, host_factor "
                         f"{factor:.4f}")
        run.notes.append(f"files_per_s: "
                         f"{reps[0]['nr_files'] * rate * factor:.6g} 1/s")
        note_peak_rss(run, reps)
        return {"seeds_per_s": rate * factor,
                "setup_s": statistics.median(setup_times)}

    done = list(run.until_elapsed([traced, plain]))
    traced_reps = [out for kind, out in done if kind is traced]
    plain_reps = [out for kind, out in done if kind is plain]
    check_exact_counts(traced_reps)
    tables = [table for out in traced_reps for table in out["seeds"]]
    stats = traced_reps[0]["perfcache"]
    walls = [table["wall_ms"] for table in tables]
    metrics = {
        **spans.layer_medians(tables, LAYERS),
        "campaign.runner.seed_ms_p50": 0.0,
        "campaign.runner.seed_ms_p95": 0.0,
        "campaign.runner.worker_busy_frac": 0.0,
        "perfcache.hit_ratio": hit_ratio(stats),
        "perfcache.misses": stats["misses"],
        "perfcache.stores": stats["stores"],
        "bench.span_overhead_frac":
            min(out["wall_s"] for out in plain_reps)
            / min(out["wall_s"] for out in traced_reps) - 1,
    }
    run.notes.append(f"corpus analysis p50 {statistics.median(walls):.1f}"
                     f" ms over {len(walls)} traced analyses")
    run.notes.append(spans.stage_table(tables, LAYERS))
    return metrics


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one named workload of the repo benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no repro sources under {ROOT}/src; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    work = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(work)
    try:
        run = Run(args, work)
        if args.workload == "spade-cold":
            values = run_spade_workload(run)
        else:
            values = run_campaign_workload(
                run, parallel_jobs() if args.workload == "campaign-parallel"
                else 1, cache=args.workload != "campaign-uncached")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass   # another run still uses it
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
               for name, unit in units.items()}
    for note in run.notes:
        print(note)
    for name, metric in metrics.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    error_rate = run.failed / max(1, run.attempted)
    print(f"error_rate: {error_rate:.6g} ({run.failed} of {run.attempted}"
          f" attempted)")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
