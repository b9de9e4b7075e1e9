"""The ``repro-dma crashtest`` harness: kill at every write, recover.

PR 5's chaos engine proved findings survive *recoverable* faults; this
harness proves they survive **power loss**. The plan:

1. **Census** -- run a small campaign subprocess to completion with
   ``REPRO_CRASH_CENSUS`` armed, so it reports how many times each
   ``durability.*`` crash point is poked. That run also yields the
   ground truth: the uninterrupted findings digest and coverage-map
   digest.
2. **Kill matrix** -- for every reachable crash point (site x step,
   sampled per ``max_per_site``), run a fresh campaign with
   ``REPRO_CRASH=<site>@<N>`` and confirm the process actually died
   there (exit status 137). Then re-run the identical command with
   ``--resume`` and assert the recovery invariants:

   * the resume exits 0;
   * every artifact loads (results JSONL, coverage map);
   * no seed is lost or double-counted (each seed has exactly one
     completed record);
   * findings digest and coverage digest are **byte-identical** to
     the uninterrupted run;
   * after stale-tmp GC, no ``.durability-*.tmp`` residue remains.

3. **Torn-write matrix** -- copy the uninterrupted run's artifacts,
   truncate each at sampled byte offsets (the
   :func:`~repro.durability.truncate_file` simulator), resume, and
   assert the same invariants. This covers corruption the atomic
   writes make "impossible" -- which is exactly why it must be tested.

Everything runs in subprocesses: ``os._exit`` kills are real, resume
starts from a cold process, and the coordinating test process is never
at risk.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field

from repro import durability
from repro.campaign.results import (completed_seeds, findings_digest,
                                    load_records)
from repro.coverage import CoverageMap, coverage_map_path
from repro.errors import CampaignError

@dataclass
class CrashtestConfig:
    """One crashtest invocation's knobs (kept tiny by default: the
    harness runs O(sites x steps) full campaign subprocesses)."""

    seeds: int = 2
    scale: float = 0.08
    jobs: int = 1
    mutations: int = 3
    trace_events: int = 16
    backend: str | None = None
    #: crash steps exercised per site (first/last/evenly spread)
    max_per_site: int = 2
    #: restrict to these sites (None = every reachable site)
    sites: tuple | None = None
    #: hard cap on kill points across all sites (chaos smoke mode)
    max_points: int | None = None
    #: byte offsets truncated per artifact in the torn-write matrix
    torn_offsets: int = 4
    timeout_s: float = 600.0


@dataclass
class PointOutcome:
    """One (site, step) kill-and-resume cycle."""

    site: str
    step: int
    killed: bool = False
    resumed_ok: bool = False
    findings_match: bool = False
    coverage_match: bool = False
    seeds_intact: bool = False
    clean_tmp: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.killed and self.resumed_ok and self.findings_match
                and self.coverage_match and self.seeds_intact
                and self.clean_tmp)


@dataclass
class TornOutcome:
    """One artifact truncated at one byte offset, then recovered."""

    artifact: str
    offset: int
    size: int
    resumed_ok: bool = False
    findings_match: bool = False
    coverage_match: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.resumed_ok and self.findings_match
                and self.coverage_match)


@dataclass
class CrashtestReport:
    config: CrashtestConfig = field(default_factory=CrashtestConfig)
    baseline_findings_digest: str = ""
    baseline_coverage_digest: str = ""
    census: dict = field(default_factory=dict)
    points: list = field(default_factory=list)
    torn: list = field(default_factory=list)
    error: str | None = None

    @property
    def nr_points_ok(self) -> int:
        return sum(1 for point in self.points if point.ok)

    @property
    def nr_torn_ok(self) -> int:
        return sum(1 for torn in self.torn if torn.ok)

    @property
    def ok(self) -> bool:
        return (self.error is None and bool(self.points)
                and all(point.ok for point in self.points)
                and all(torn.ok for torn in self.torn))


def _campaign_argv(config: CrashtestConfig, rundir: str, *,
                   resume: bool = False) -> list[str]:
    argv = [sys.executable, "-m", "repro.cli", "campaign",
            "--seeds", str(config.seeds),
            "--scale", str(config.scale),
            "--jobs", str(config.jobs),
            "--mutations", str(config.mutations),
            "--trace-events", str(config.trace_events),
            "--output", os.path.join(rundir, "results.jsonl"),
            "--cache-dir", os.path.join(rundir, "cache")]
    if config.backend:
        argv += ["--backend", config.backend]
    if resume:
        argv.append("--resume")
    return argv


def _run(argv: list[str], *, env: dict,
         timeout_s: float) -> subprocess.CompletedProcess:
    """Run *argv* in its own process group, output to a temp file.

    A campaign coordinator killed at a crash point leaves its pool
    workers orphaned but still holding the inherited stdout fd, so a
    pipe would never reach EOF and ``subprocess.run`` would hang.
    Waiting on the direct child only, then SIGKILLing its whole process
    group, both unblocks the harness and reaps those orphans before the
    resume run touches the same run directory.
    """
    timed_out = False
    with tempfile.TemporaryFile() as captured:
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=captured,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            returncode = proc.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            timed_out = True
            returncode = None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
            proc.wait()
        if returncode is None:
            returncode = proc.returncode
        captured.seek(0)
        stdout = captured.read().decode("utf-8", errors="replace")
    if timed_out:
        stdout += f"\n[crashtest: killed after {timeout_s:g}s timeout]\n"
    return subprocess.CompletedProcess(argv, returncode, stdout=stdout)


def _base_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_CRASH", None)
    env.pop("REPRO_CRASH_CENSUS", None)
    return env


def _digests(rundir: str) -> tuple[str, str, str | None]:
    """(findings digest, coverage digest, error-or-None) of a run dir."""
    results = os.path.join(rundir, "results.jsonl")
    bad: list[int] = []
    records = load_records(results,
                           on_bad_line=lambda lineno, _l: bad.append(lineno))
    try:
        cover = CoverageMap.load(coverage_map_path(results))
    except (OSError, CampaignError) as exc:
        return findings_digest(records), "", f"coverage map: {exc}"
    return findings_digest(records), cover.digest, None


def _seed_integrity(rundir: str, nr_seeds: int) -> str | None:
    """None when every seed has exactly one completed record."""
    results = os.path.join(rundir, "results.jsonl")
    ok_lines: dict[int, int] = {}
    for _lineno, record in durability.replay_jsonl(results):
        if record.get("status") == "ok" and "seed" in record:
            ok_lines[record["seed"]] = ok_lines.get(record["seed"], 0) + 1
    expected = set(range(1, nr_seeds + 1))
    done = completed_seeds(load_records(results))
    if done != expected:
        lost = sorted(expected - done)
        extra = sorted(done - expected)
        return f"seeds lost={lost} unexpected={extra}"
    doubled = {seed: count for seed, count in ok_lines.items()
               if count > 1}
    if doubled:
        return f"seeds double-counted: {doubled}"
    return None


def _collect_residue(rundir: str) -> tuple[int, list[str]]:
    """Force-GC every durability tmp under *rundir*; returns the count
    collected and any that survived (there must be none)."""
    collected = 0
    for directory, _dirs, _files in os.walk(rundir):
        collected += len(durability.collect_stale_tmp(directory,
                                                      max_age_s=0.0))
    leftover = glob.glob(os.path.join(
        rundir, "**", f"{durability.TMP_PREFIX}*{durability.TMP_SUFFIX}"),
        recursive=True)
    return collected, leftover


def _pick_steps(count: int, max_per_site: int) -> list[int]:
    """First, last, and evenly spread steps -- at most *max_per_site*."""
    if count <= max_per_site:
        return list(range(1, count + 1))
    if max_per_site == 1:
        return [1]
    picks = {round(1 + index * (count - 1) / (max_per_site - 1))
             for index in range(max_per_site)}
    return sorted(picks)


def _run_point(config: CrashtestConfig, scratch: str, site: str,
               step: int, baseline: tuple[str, str]) -> PointOutcome:
    outcome = PointOutcome(site=site, step=step)
    rundir = os.path.join(scratch,
                          f"point-{site.replace('.', '-')}-{step}")
    os.makedirs(rundir, exist_ok=True)
    env = _base_env()
    env["REPRO_CRASH"] = f"{site}@{step}"
    killed = _run(_campaign_argv(config, rundir), env=env,
                  timeout_s=config.timeout_s)
    outcome.killed = killed.returncode == durability.CRASH_EXIT_STATUS
    if not outcome.killed:
        outcome.detail = (f"expected exit "
                          f"{durability.CRASH_EXIT_STATUS} at "
                          f"{site}@{step}, got {killed.returncode}")
        return outcome
    resumed = _run(_campaign_argv(config, rundir, resume=True),
                   env=_base_env(), timeout_s=config.timeout_s)
    outcome.resumed_ok = resumed.returncode == 0
    if not outcome.resumed_ok:
        outcome.detail = (f"resume exited {resumed.returncode}: "
                          f"{resumed.stdout[-400:]}")
        return outcome
    findings, coverage, error = _digests(rundir)
    outcome.findings_match = findings == baseline[0]
    outcome.coverage_match = coverage == baseline[1]
    integrity = _seed_integrity(rundir, config.seeds)
    outcome.seeds_intact = integrity is None
    _collected, leftover = _collect_residue(rundir)
    outcome.clean_tmp = not leftover
    details = []
    if error:
        details.append(error)
    if not outcome.findings_match:
        details.append(f"findings {findings[:16]} != "
                       f"baseline {baseline[0][:16]}")
    if not outcome.coverage_match:
        details.append(f"coverage {coverage[:16]} != "
                       f"baseline {baseline[1][:16]}")
    if integrity:
        details.append(integrity)
    if leftover:
        details.append(f"tmp residue survived GC: {leftover}")
    outcome.detail = "; ".join(details)
    return outcome


def _torn_offsets(size: int, nr: int) -> list[int]:
    """Sampled truncation offsets: spread over the file, biased to the
    tail (where an interrupted append tears), never the full size."""
    if size <= 1 or nr <= 0:
        return []
    candidates = {size - 1, size // 2, 1}
    index = 2
    while len(candidates) < nr and index <= nr:
        candidates.add(max(1, size - index * 7))
        index += 1
    return sorted(offset for offset in candidates
                  if 0 < offset < size)[:nr]


def _run_torn(config: CrashtestConfig, scratch: str, baseline_dir: str,
              artifact: str, offset: int,
              baseline: tuple[str, str]) -> TornOutcome:
    source = os.path.join(baseline_dir, artifact)
    size = os.path.getsize(source)
    outcome = TornOutcome(artifact=artifact, offset=offset, size=size)
    rundir = os.path.join(
        scratch, f"torn-{artifact.replace('/', '-')}-{offset}")
    shutil.copytree(baseline_dir, rundir)
    durability.truncate_file(os.path.join(rundir, artifact), offset)
    resumed = _run(_campaign_argv(config, rundir, resume=True),
                   env=_base_env(), timeout_s=config.timeout_s)
    outcome.resumed_ok = resumed.returncode == 0
    if not outcome.resumed_ok:
        outcome.detail = (f"resume exited {resumed.returncode}: "
                          f"{resumed.stdout[-400:]}")
        return outcome
    findings, coverage, error = _digests(rundir)
    outcome.findings_match = findings == baseline[0]
    outcome.coverage_match = coverage == baseline[1]
    details = []
    if error:
        details.append(error)
    if not outcome.findings_match:
        details.append(f"findings {findings[:16]} != "
                       f"baseline {baseline[0][:16]}")
    if not outcome.coverage_match:
        details.append(f"coverage {coverage[:16]} != "
                       f"baseline {baseline[1][:16]}")
    outcome.detail = "; ".join(details)
    return outcome


def run_crashtest(config: CrashtestConfig, scratch: str | None = None,
                  *, log=lambda _msg: None) -> CrashtestReport:
    """Run the full kill-at-every-write matrix; see the module doc."""
    report = CrashtestReport(config=config)
    owns_scratch = scratch is None
    if owns_scratch:
        scratch = tempfile.mkdtemp(prefix="repro-crashtest-")
    try:
        baseline_dir = os.path.join(scratch, "baseline")
        os.makedirs(baseline_dir, exist_ok=True)
        census_path = os.path.join(scratch, "census.json")
        env = _base_env()
        env["REPRO_CRASH_CENSUS"] = census_path
        log("crashtest: uninterrupted baseline campaign "
            "(census armed)...")
        baseline_run = _run(_campaign_argv(config, baseline_dir),
                            env=env, timeout_s=config.timeout_s)
        if baseline_run.returncode != 0:
            report.error = (f"baseline campaign exited "
                            f"{baseline_run.returncode}: "
                            f"{baseline_run.stdout[-400:]}")
            return report
        try:
            with open(census_path, encoding="utf-8") as handle:
                census = json.load(handle)
        except (OSError, ValueError) as exc:
            report.error = f"census unreadable: {exc}"
            return report
        report.census = {site: count for site, count
                         in sorted(census.items())
                         if site in durability.CRASH_SITES}
        if not report.census:
            report.error = "census empty: no durability crash point " \
                           "was poked -- writers are not routed"
            return report
        findings, coverage, error = _digests(baseline_dir)
        if error:
            report.error = f"baseline artifacts: {error}"
            return report
        report.baseline_findings_digest = findings
        report.baseline_coverage_digest = coverage
        baseline = (findings, coverage)

        sites = config.sites or tuple(report.census)
        nr_points = 0
        for site in sites:
            count = report.census.get(site, 0)
            for step in _pick_steps(count, config.max_per_site):
                if config.max_points is not None \
                        and nr_points >= config.max_points:
                    break
                nr_points += 1
                log(f"crashtest: kill at {site}@{step} "
                    f"(of {count}) + resume...")
                report.points.append(
                    _run_point(config, scratch, site, step, baseline))

        artifacts = ["results.jsonl",
                     os.path.basename(coverage_map_path(
                         os.path.join(baseline_dir, "results.jsonl")))]
        for artifact in artifacts:
            source = os.path.join(baseline_dir, artifact)
            if not os.path.exists(source):
                continue
            size = os.path.getsize(source)
            for offset in _torn_offsets(size, config.torn_offsets):
                log(f"crashtest: truncate {artifact} at byte "
                    f"{offset}/{size} + resume...")
                report.torn.append(
                    _run_torn(config, scratch, baseline_dir, artifact,
                              offset, baseline))
        return report
    finally:
        if owns_scratch:
            shutil.rmtree(scratch, ignore_errors=True)


def format_crashtest_report(report: CrashtestReport) -> str:
    lines = [f"crashtest: {report.config.seeds} seed(s) at scale "
             f"{report.config.scale}, jobs={report.config.jobs}"]
    if report.error:
        lines.append(f"crashtest: ERROR: {report.error}")
        lines.append("crashtest verdict: FAIL")
        return "\n".join(lines)
    lines.append(f"baseline findings digest: "
                 f"{report.baseline_findings_digest[:16]}")
    lines.append(f"baseline coverage digest: "
                 f"{report.baseline_coverage_digest[:16]}")
    lines.append(f"crash points reachable "
                 f"({len(report.census)} site(s)):")
    for site, count in report.census.items():
        lines.append(f"  {site} poked x{count}")
    lines.append(f"kill+resume matrix: {report.nr_points_ok}"
                 f"/{len(report.points)} point(s) recovered "
                 f"byte-identically")
    for point in report.points:
        status = "ok" if point.ok else "FAIL"
        extra = f" ({point.detail})" if point.detail else ""
        lines.append(f"  {point.site}@{point.step}: {status}{extra}")
    if report.torn:
        lines.append(f"torn-write matrix: {report.nr_torn_ok}"
                     f"/{len(report.torn)} truncation(s) recovered")
        for torn in report.torn:
            status = "ok" if torn.ok else "FAIL"
            extra = f" ({torn.detail})" if torn.detail else ""
            lines.append(f"  {torn.artifact} @ byte "
                         f"{torn.offset}/{torn.size}: {status}{extra}")
    lines.append(f"crashtest verdict: {'PASS' if report.ok else 'FAIL'}")
    return "\n".join(lines)
