"""The ``repro-dma chaos`` harness: run the stack under a fault plan.

Two phases, mirroring the :meth:`~repro.faults.spec.FaultSpec.split`
partition of the plan:

* **Phase A (kernel faults)** -- each of the named workloads
  (:data:`~repro.sim.workload.NAMED_WORKLOADS`: compile-ping, storage,
  ringflood) boots a clean kernel through
  :func:`~repro.sim.workload.run_named_workload` and runs with the
  plan's kernel-layer rules armed on its own fault stream. A workload
  passes when every injected fault is absorbed by a recovery path, and
  its recovered count is its plan's firings; an
  :class:`~repro.faults.InjectedFault` that escapes is an
  *unrecovered* fault and names its site in the report.

* **Phase B (tooling faults)** -- the differential invariant: the
  campaign runs twice at the same seed, once fault-free and once with
  the plan's tooling-layer rules armed (plus retry budget). A
  recoverable plan must leave the campaign findings byte-identical --
  worker crashes retry -- so the two results files must produce the
  same :func:`~repro.campaign.results.findings_digest`.

Exit-code policy (the CLI maps the report onto it): unrecovered fault
or digest mismatch -> nonzero, every fault absorbed -> zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from types import SimpleNamespace

from repro import faults, trace
from repro.faults.spec import FaultSpec
from repro.sim.workload import NAMED_WORKLOADS, run_named_workload


@dataclass
class WorkloadOutcome:
    """One phase-A workload (or the phase-B campaign) under faults."""

    name: str
    ok: bool
    detail: str = ""
    #: injected faults a recovery path absorbed during this run
    recovered: int = 0
    #: site of the injected fault that escaped (None when recovered)
    unrecovered_site: str | None = None


@dataclass
class ChaosReport:
    plan_seed: int = 0
    armed_sites: tuple = ()
    outcomes: list = field(default_factory=list)
    campaign: WorkloadOutcome | None = None
    baseline_digest: str | None = None
    faulted_digest: str | None = None
    #: per-site fire counts accumulated across both phases
    fired: dict = field(default_factory=dict)
    #: fault-category trace events captured during phase A
    nr_fault_events: int = 0

    @property
    def nr_sites_fired(self) -> int:
        return len(self.fired)

    @property
    def digests_match(self) -> bool:
        return self.baseline_digest == self.faulted_digest

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes) \
            and (self.campaign is None or self.campaign.ok)


def _phase_a_outcome(name: str, options, plan, *,
                     backend: str | None) -> WorkloadOutcome:
    """Run workload *name* with *plan* armed; the faults it recovered
    are the plan's firings."""
    from repro.errors import AttackFailed

    # ringflood's replica profiling runs fault-free, so the profile
    # describes the real layout
    prepared = NAMED_WORKLOADS[name].prepare(options)
    try:
        _kernel, detail = run_named_workload(name, options, prepared,
                                             backend=backend, plan=plan)
    except AttackFailed as exc:
        # chaos weather thwarting the attacker (dropped descriptors
        # starve the flood) is degradation, not a fault that escaped
        detail = f"attack aborted by injected faults ({exc})"
    except faults.InjectedFault as exc:
        return WorkloadOutcome(name, False,
                               detail=f"unrecovered injected fault: {exc}",
                               unrecovered_site=exc.site)
    except Exception as exc:
        return WorkloadOutcome(
            name, False, detail=f"workload crashed under faults: {exc!r}")
    return WorkloadOutcome(name, True, detail=detail,
                           recovered=len(plan.firings) if plan else 0)


def _campaign_phase(tooling_spec: FaultSpec, scratch: str, *,
                    campaign_seeds: int, campaign_scale: float,
                    jobs: int, retry: int,
                    backend: str | None = None
                    ) -> tuple[WorkloadOutcome, str, str]:
    """Run the campaign fault-free then faulted; compare digests."""
    from repro import perfcache
    from repro.campaign.results import findings_digest, load_records
    from repro.campaign.runner import CampaignConfig, run_campaign

    def config(label: str, fault_spec: dict | None) -> CampaignConfig:
        # both runs share one cache directory, which the fault-free
        # run warms; the plan is armed per seed
        return CampaignConfig(
            nr_seeds=campaign_seeds, seed_base=1, jobs=jobs,
            mutations_per_seed=3, scale=campaign_scale,
            output=os.path.join(scratch, f"{label}.jsonl"),
            trace_events=16,
            cache_dir=os.path.join(scratch, "cache"),
            fault_spec=fault_spec, backend=backend,
            retry=retry)

    spec_doc = tooling_spec.to_json() if tooling_spec.rules else None
    try:
        baseline = run_campaign(config("baseline", None))
        faulted = run_campaign(config("faulted", spec_doc))
    finally:
        # don't leak the scratch disk cache into the process default
        perfcache.reset_default()

    baseline_digest = findings_digest(
        load_records(os.path.join(scratch, "baseline.jsonl")))
    faulted_digest = findings_digest(
        load_records(os.path.join(scratch, "faulted.jsonl")))

    recovered = sum(1 for record in load_records(
        os.path.join(scratch, "faulted.jsonl")).values()
        if record.get("status") == "ok" and record.get("attempt"))
    if not faulted.all_ok:
        # name the first injected site that exhausted its retries
        site = next((error.split("injected fault at ")[-1]
                     for _seed, error in faulted.failures
                     if "injected fault at" in error), None)
        detail = "; ".join(f"seed {seed}: {error}"
                           for seed, error in faulted.failures[:4])
        return (WorkloadOutcome("campaign", False, detail=detail,
                                recovered=recovered,
                                unrecovered_site=site),
                baseline_digest, faulted_digest)
    if not baseline.all_ok:
        return (WorkloadOutcome("campaign", False,
                                detail="fault-free baseline campaign "
                                       "failed (not a fault issue)"),
                baseline_digest, faulted_digest)
    if baseline_digest != faulted_digest:
        return (WorkloadOutcome(
            "campaign", False, recovered=recovered,
            detail=f"findings digest mismatch: fault-free "
                   f"{baseline_digest[:16]} != faulted "
                   f"{faulted_digest[:16]}"),
            baseline_digest, faulted_digest)
    return (WorkloadOutcome(
        "campaign", True, recovered=recovered,
        detail=f"{baseline.nr_ok} seeds, findings byte-identical to "
               f"fault-free run ({baseline_digest[:16]})"),
        baseline_digest, faulted_digest)


def run_chaos(spec: FaultSpec, scratch: str, *, seed: int = 5,
              rounds: int = 40, commands: int = 48,
              profile_boots: int = 8, campaign_seeds: int = 2,
              campaign_scale: float = 0.08, jobs: int = 1,
              retry: int = 2,
              backend: str | None = None) -> ChaosReport:
    """Run both chaos phases under *spec*; never raises for injected
    faults (they become report entries), only for genuine bugs."""
    kernel_spec, tooling_spec = spec.split()
    report = ChaosReport(plan_seed=spec.seed,
                         armed_sites=tuple(sorted(spec.sites)))
    faults.reset_fired_counts()

    options = SimpleNamespace(seed=seed, rounds=rounds, commands=commands,
                              profile_boots=profile_boots)
    with trace.session(categories=("fault",)) as recorder:
        for name, workload in NAMED_WORKLOADS.items():
            plan = kernel_spec.compile(stream=workload.stream) \
                if kernel_spec.rules else None
            report.outcomes.append(
                _phase_a_outcome(name, options, plan, backend=backend))
        report.nr_fault_events = recorder.nr_emitted

    report.campaign, report.baseline_digest, report.faulted_digest = \
        _campaign_phase(tooling_spec, scratch,
                        campaign_seeds=campaign_seeds,
                        campaign_scale=campaign_scale, jobs=jobs,
                        retry=retry, backend=backend)
    report.fired = faults.fired_counts()
    return report


def format_chaos_report(report: ChaosReport) -> str:
    lines = [f"chaos: plan seed {report.plan_seed}, "
             f"{len(report.armed_sites)} armed site(s)"]
    for outcome in report.outcomes:
        status = "ok" if outcome.ok else "UNRECOVERED"
        lines.append(f"workload {outcome.name}: {status} "
                     f"({outcome.recovered} fault(s) recovered; "
                     f"{outcome.detail})")
    if report.campaign is not None:
        status = "ok" if report.campaign.ok else "FAIL"
        lines.append(f"campaign differential: {status} "
                     f"({report.campaign.recovered} seed retr"
                     f"{'y' if report.campaign.recovered == 1 else 'ies'}"
                     f" healed; {report.campaign.detail})")
    lines.append(f"fault trace events captured: "
                 f"{report.nr_fault_events}")
    if report.fired:
        lines.append(f"fault sites fired ({report.nr_sites_fired}):")
        for site in sorted(report.fired):
            lines.append(f"  {site} x{report.fired[site]}")
    else:
        lines.append("no fault sites fired")
    for outcome in (*report.outcomes,
                    *( [report.campaign] if report.campaign else () )):
        if outcome.unrecovered_site:
            lines.append(f"UNRECOVERED FAULT at "
                         f"{outcome.unrecovered_site} "
                         f"({outcome.name})")
    lines.append(f"chaos verdict: "
                 f"{'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
