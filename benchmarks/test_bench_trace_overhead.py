"""Perf: a campaign seed's flight recorder stays within budget (E17).

Every campaign seed replays its manifest under a 64-event flight
recorder whose dma/iommu/dkasan tracepoints also stream into the
coverage collector (:func:`repro.campaign.oracle.run_differential`).
This benchmark holds that fan-out to a budget: a warm seed with the
default recorder and coverage may cost at most ``OVERHEAD_BUDGET``
times the CPU time of the same seed run with ``coverage=False,
trace_events=0``, which installs no recorder at all. It records no
paper comparison.
"""

import time

from repro import trace
from repro.campaign.mutate import CorpusMutator
from repro.campaign.runner import run_seed

SCALE = 0.1
SEEDS = range(100, 110)
REPEATS = 7
# 30 runs on a 2-vCPU x86-64 VM under CPython 3.11 read 1.39-1.48 (the
# recorder before events became tuples: 1.50-1.69); the budget sits more
# than that whole spread above the worst run, for other hosts and
# interpreters
OVERHEAD_BUDGET = 1.60


def _seed_cpu_s(seed: int, mutator: CorpusMutator, **kwargs) -> float:
    started = time.process_time()
    run_seed(seed, scale=SCALE, mutator=mutator, **kwargs)
    return time.process_time() - started


def test_trace_overhead_within_budget():
    assert trace.active() is None
    mutator = CorpusMutator(2021, scale=SCALE)
    for seed in SEEDS:  # warm the base corpus and the analysis cache
        run_seed(seed, scale=SCALE, mutator=mutator)

    # interleave traced/untraced runs of each seed so machine-load
    # drift hits both sides equally; best-of-N per seed and side damps
    # the remaining noise
    best_on = dict.fromkeys(SEEDS, float("inf"))
    best_off = dict.fromkeys(SEEDS, float("inf"))
    for _ in range(REPEATS):
        for seed in SEEDS:
            best_on[seed] = min(best_on[seed], _seed_cpu_s(seed, mutator))
            best_off[seed] = min(best_off[seed], _seed_cpu_s(
                seed, mutator, coverage=False, trace_events=0))
    assert trace.active() is None

    on_ms = sum(best_on.values()) / len(SEEDS) * 1e3
    off_ms = sum(best_off.values()) / len(SEEDS) * 1e3
    ratio = on_ms / off_ms
    print(f"\ntrace overhead: ring+coverage {on_ms:.2f} ms/seed, "
          f"no recorder {off_ms:.2f} ms/seed (ratio {ratio:.3f})")
    assert ratio <= OVERHEAD_BUDGET, (
        f"the replay's flight recorder and coverage stream cost "
        f"{ratio:.2f}x an untraced seed (> {OVERHEAD_BUDGET}x budget)")
