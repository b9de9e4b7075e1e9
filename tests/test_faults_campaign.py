"""Self-healing campaigns: retry, hung-seed timeouts, resume over torn
JSONL, and the recoverable-fault differential invariant."""

import json

import pytest

from repro import faults
from repro.campaign.results import findings_digest, load_records
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.faults import FaultSpec, SiteRule, standard_spec

SCALE = 0.08


@pytest.fixture(autouse=True)
def _clean_engine():
    yield
    faults.uninstall()


def _config(tmp_path, **overrides) -> CampaignConfig:
    settings = dict(nr_seeds=2, seed_base=1, jobs=1, base_seed=2021,
                    mutations_per_seed=2, scale=SCALE,
                    output=str(tmp_path / "results.jsonl"))
    settings.update(overrides)
    return CampaignConfig(**settings)


def _crash_once_spec() -> FaultSpec:
    """Every seed crashes on its first attempt; a retry heals it."""
    return FaultSpec([SiteRule("campaign.worker.crash", at_steps=(0,),
                               on_attempt=0)])


# -- satellite: --resume over a truncated trailing record --------------------

def test_resume_skips_truncated_trailing_record(tmp_path, capsys):
    config = _config(tmp_path)
    assert run_campaign(config).all_ok

    # simulate the crash-mid-append the JSONL format exists to survive
    lines = open(config.output).read().splitlines()
    assert len(lines) == 2
    damaged_seed = json.loads(lines[-1])["seed"]
    with open(config.output, "w") as handle:
        handle.write(lines[0] + "\n")
        handle.write(lines[1][:len(lines[1]) // 2])

    summary = run_campaign(_config(tmp_path, resume=True))
    err = capsys.readouterr().err
    assert "truncated/corrupt record line(s)" in err
    assert "re-run" in err
    assert summary.nr_seeds == 2 and summary.all_ok
    records = load_records(config.output)
    assert records[damaged_seed]["status"] == "ok"


def test_resume_without_damage_warns_nothing(tmp_path, capsys):
    config = _config(tmp_path)
    run_campaign(config)
    run_campaign(_config(tmp_path, resume=True))
    assert "truncated" not in capsys.readouterr().err


# -- satellite/tentpole: retry heals injected worker crashes -----------------

def test_retry_heals_injected_crash(tmp_path):
    config = _config(tmp_path,
                     fault_spec=_crash_once_spec().to_json(), retry=1)
    summary = run_campaign(config)
    assert summary.all_ok and summary.nr_ok == 2
    records = load_records(config.output)
    assert all(record["attempt"] == 1 for record in records.values())
    # the failed first attempts stay in the JSONL audit trail
    lines = [json.loads(line)
             for line in open(config.output).read().splitlines()]
    audited = [line for line in lines if line["status"] == "fault"]
    assert len(audited) == 2
    assert all(line["will_retry"] for line in audited)
    assert all("campaign.worker.crash" in line["error"]
               for line in audited)


def test_injected_crash_without_retry_names_site(tmp_path):
    config = _config(tmp_path,
                     fault_spec=_crash_once_spec().to_json(), retry=0)
    summary = run_campaign(config)
    assert summary.nr_failed == 2
    assert all("fault" in error and "campaign.worker.crash" in error
               for _seed, error in summary.failures)


def test_retry_budget_exhausts_on_persistent_crash(tmp_path):
    # no on_attempt gate: the crash reproduces on every attempt
    spec = FaultSpec([SiteRule("campaign.worker.crash", at_steps=(0,))])
    config = _config(tmp_path, nr_seeds=1, fault_spec=spec.to_json(),
                     retry=2)
    summary = run_campaign(config)
    assert summary.nr_failed == 1
    lines = [json.loads(line)
             for line in open(config.output).read().splitlines()]
    assert len(lines) == 3          # 2 audited retries + final failure
    assert [line.get("attempt", 0) for line in lines] == [0, 1, 2]


# -- satellite: fault schedules are identical across jobs --------------------

def _tooling_spec() -> FaultSpec:
    return FaultSpec([
        SiteRule("campaign.worker.crash", at_steps=(0,), on_attempt=0),
    ], seed=9)


def test_fault_campaign_identical_jobs1_vs_jobs4(tmp_path):
    results = {}
    for jobs in (1, 4):
        config = _config(tmp_path / f"j{jobs}", nr_seeds=3, jobs=jobs,
                         fault_spec=_tooling_spec().to_json(), retry=1,
                         cache_dir=str(tmp_path / f"j{jobs}-cache"))
        summary = run_campaign(config)
        assert summary.all_ok
        results[jobs] = load_records(config.output)
    assert findings_digest(results[1]) == findings_digest(results[4])
    assert {s: r["status"] for s, r in results[1].items()} == \
        {s: r["status"] for s, r in results[4].items()}


# -- tentpole: the recoverable-plan differential invariant -------------------

def test_recoverable_tooling_faults_keep_findings_identical(tmp_path):
    baseline = _config(tmp_path / "base",
                       cache_dir=str(tmp_path / "cache"))
    assert run_campaign(baseline).all_ok

    faulted = _config(tmp_path / "faulted",
                      cache_dir=str(tmp_path / "cache"),
                      fault_spec=_tooling_spec().to_json(), retry=1)
    assert run_campaign(faulted).all_ok

    assert findings_digest(load_records(baseline.output)) == \
        findings_digest(load_records(faulted.output))


# -- the per-seed timeout is the hang recovery at every job count ------------

@pytest.mark.parametrize("jobs", [1, 2])
def test_timeout_and_retry_recover_hung_seeds(tmp_path, jobs):
    clean = _config(tmp_path / "clean", scale=0.06)
    assert run_campaign(clean).all_ok
    hang = FaultSpec([SiteRule("campaign.worker.hang", at_steps=(0,),
                               on_attempt=0, arg=6.0)])
    config = _config(tmp_path / "hung", jobs=jobs, scale=0.06,
                     fault_spec=hang.to_json(), retry=1, timeout_s=1.0)
    summary = run_campaign(config)
    assert summary.all_ok and summary.nr_ok == 2
    lines = [json.loads(line)
             for line in open(config.output).read().splitlines()]
    timeouts = [line for line in lines if line["status"] == "timeout"]
    assert sorted(line["seed"] for line in timeouts) == [1, 2]
    assert all(line["will_retry"] for line in timeouts)
    # an inline timeout leaks no global state (fault session, trace
    # recorder) into the seeds after it
    assert findings_digest(load_records(config.output)) == \
        findings_digest(load_records(clean.output))


def test_pool_names_a_seed_past_half_its_timeout(tmp_path, monkeypatch,
                                                capsys):
    import repro.campaign.runner as runner
    monkeypatch.setattr(runner, "POLL_S", 0.05)
    hang = FaultSpec([SiteRule("campaign.worker.hang", probability=0.5,
                               on_attempt=0, arg=30.0)], seed=4)
    (hung,) = [seed for seed in (1, 2, 3, 4)
               if hang.compile(stream=seed).poke("campaign.worker.hang")]
    config = _config(tmp_path, nr_seeds=4, jobs=2, scale=0.06,
                     trace_events=0, fault_spec=hang.to_json(), retry=1,
                     timeout_s=3.0)
    assert run_campaign(config).all_ok
    stalls = [line for line in capsys.readouterr().err.splitlines()
              if "over half its" in line]
    assert len(stalls) == 1, stalls
    assert stalls[0].startswith(f"campaign: seed {hung} has run ")
    lines = [json.loads(line)
             for line in open(config.output).read().splitlines()]
    tries = [line["status"] for line in lines if line["seed"] == hung]
    assert tries == ["timeout", "ok"]


# -- the chaos harness -------------------------------------------------------

def test_chaos_standard_plan_recovers_everywhere(tmp_path):
    from repro.faults.chaos import format_chaos_report, run_chaos
    report = run_chaos(standard_spec(), str(tmp_path), rounds=40,
                       commands=48, profile_boots=4, campaign_seeds=2,
                       campaign_scale=SCALE, retry=2)
    rendered = format_chaos_report(report)
    assert report.ok, rendered
    assert report.nr_sites_fired >= 8
    assert report.digests_match
    # a workload's recovered count is its plan's firings, and phase A
    # records exactly those fault events
    phase_a = sum(outcome.recovered for outcome in report.outcomes)
    assert phase_a > 0
    assert report.nr_fault_events == phase_a
    assert phase_a == sum(count for site, count in report.fired.items()
                          if site in faults.KERNEL_SITES)
    assert "chaos verdict: PASS" in rendered


def test_chaos_unrecoverable_plan_names_site(tmp_path):
    from repro.faults.chaos import format_chaos_report, run_chaos
    spec = FaultSpec([SiteRule("campaign.worker.crash", at_steps=(0,))])
    report = run_chaos(spec, str(tmp_path), rounds=4, commands=4,
                       profile_boots=2, campaign_seeds=1,
                       campaign_scale=0.06, retry=1)
    assert not report.ok
    assert report.campaign.unrecovered_site == "campaign.worker.crash"
    assert "UNRECOVERED FAULT at campaign.worker.crash" in \
        format_chaos_report(report)
