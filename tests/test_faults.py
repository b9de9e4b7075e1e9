"""repro.faults: spec validation, trigger semantics, engine plumbing."""

import json

import pytest

from repro import faults, metrics, trace
from repro.errors import (CampaignError, DmaApiError, FaultError,
                          OutOfMemoryError)
from repro.faults import FaultSpec, SiteRule, standard_spec


@pytest.fixture(autouse=True)
def _clean_engine():
    yield
    faults.uninstall()


# -- SiteRule validation -----------------------------------------------------

def test_rule_rejects_unknown_site():
    with pytest.raises(FaultError, match="unknown fault site"):
        SiteRule("mem.nope", every_nth=1)


def test_rule_requires_exactly_one_trigger():
    with pytest.raises(FaultError, match="exactly one trigger"):
        SiteRule("dma.map")
    with pytest.raises(FaultError, match="exactly one trigger"):
        SiteRule("dma.map", every_nth=2, probability=0.5)


@pytest.mark.parametrize("kwargs", [
    dict(probability=0.0), dict(probability=1.5),
    dict(every_nth=0), dict(every_nth=-3),
    dict(at_steps=(-1,)),
    dict(every_nth=1, max_fires=0),
])
def test_rule_rejects_bad_values(kwargs):
    with pytest.raises(FaultError):
        SiteRule("dma.map", **kwargs)


def test_rule_json_round_trip():
    rule = SiteRule("net.nic.truncate", at_steps=(0, 4), max_fires=2,
                    on_attempt=1, arg=0.25)
    assert SiteRule.from_json(rule.to_json()) == rule


def test_rule_from_json_rejects_unknown_fields():
    with pytest.raises(FaultError, match="unknown rule field"):
        SiteRule.from_json({"site": "dma.map", "every_nth": 1,
                            "frequency": 2})


def test_spec_rejects_duplicate_sites():
    with pytest.raises(FaultError, match="duplicate rule"):
        FaultSpec([SiteRule("dma.map", every_nth=1),
                   SiteRule("dma.map", every_nth=2)])


def test_spec_json_round_trip():
    spec = standard_spec(seed=7)
    clone = FaultSpec.from_json(json.loads(json.dumps(spec.to_json())))
    assert clone.seed == 7
    assert clone.rules == spec.rules


@pytest.mark.parametrize("site", ["perfcache.read", "perfcache.write",
                                  "perfcache.corrupt"])
def test_plans_refuse_the_unreachable_cache_sites(site, tmp_path, capsys):
    # a seed makes no cache lookup, so no run could ever fire these:
    # a plan naming one is refused instead of silently never firing
    doc = {"rules": [{"site": site, "every_nth": 1}]}
    with pytest.raises(FaultError, match="unknown fault site"):
        FaultSpec.from_json(doc)
    from repro.cli import main
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    assert main(["campaign", "--seeds", "1", "--fault-plan", str(plan),
                 "--output", str(tmp_path / "out.jsonl")]) == 2
    assert f"unknown fault site {site!r}" in capsys.readouterr().err
    assert not (tmp_path / "out.jsonl").exists()


def test_spec_split_partitions_by_layer():
    kernel, tooling = standard_spec().split()
    assert kernel.sites <= frozenset(faults.KERNEL_SITES)
    assert tooling.sites <= frozenset(faults.TOOLING_SITES)
    assert kernel.sites | tooling.sites == standard_spec().sites


# -- trigger semantics -------------------------------------------------------

def _pokes(plan, site, n):
    return [plan.poke(site) is not None for _ in range(n)]


def test_every_nth_trigger():
    plan = FaultSpec([SiteRule("dma.map", every_nth=3)]).compile()
    assert _pokes(plan, "dma.map", 9) == [False, False, True] * 3


def test_at_steps_trigger():
    plan = FaultSpec([SiteRule("dma.map", at_steps=(0, 2))]).compile()
    assert _pokes(plan, "dma.map", 4) == [True, False, True, False]


def test_max_fires_caps_firing():
    plan = FaultSpec([SiteRule("dma.map", every_nth=1,
                               max_fires=2)]).compile()
    assert _pokes(plan, "dma.map", 5) == [True, True, False, False,
                                          False]


def test_on_attempt_gates_firing():
    spec = FaultSpec([SiteRule("campaign.worker.crash", at_steps=(0,),
                               on_attempt=0)])
    assert spec.compile(attempt=0).poke("campaign.worker.crash")
    assert spec.compile(attempt=1).poke("campaign.worker.crash") is None


def test_unarmed_site_never_fires():
    plan = FaultSpec([SiteRule("dma.map", every_nth=1)]).compile()
    assert plan.poke("mem.slab.kmalloc") is None


def test_firing_carries_step_nth_arg():
    plan = FaultSpec([SiteRule("net.nic.truncate", every_nth=2,
                               arg=0.25)]).compile()
    plan.poke("net.nic.truncate")
    firing = plan.poke("net.nic.truncate")
    assert (firing.site, firing.step, firing.nth, firing.arg) == \
        ("net.nic.truncate", 1, 1, 0.25)


def test_probability_stream_is_deterministic():
    spec = FaultSpec([SiteRule("dma.map", probability=0.3)], seed=11)
    first_plan = spec.compile(stream=4)
    first = [first_plan.poke("dma.map") is not None for _ in range(64)]
    second_plan = spec.compile(stream=4)
    second = [second_plan.poke("dma.map") is not None
              for _ in range(64)]
    assert first == second
    assert any(first) and not all(first)


def test_probability_streams_differ_per_stream_and_site():
    spec = FaultSpec([SiteRule("dma.map", probability=0.5),
                      SiteRule("mem.slab.kmalloc", probability=0.5)],
                     seed=11)
    plan_a, plan_b = spec.compile(stream=0), spec.compile(stream=1)
    a = [plan_a.poke("dma.map") is not None for _ in range(64)]
    b = [plan_b.poke("dma.map") is not None for _ in range(64)]
    plan_c = spec.compile(stream=0)
    c = [plan_c.poke("mem.slab.kmalloc") is not None
         for _ in range(64)]
    assert a != b
    assert a != c


def test_same_spec_same_firing_sequence():
    """Satellite: identical FaultSpec + seed => identical Firing log."""
    spec = standard_spec(seed=3)

    def run():
        plan = spec.compile(stream=9)
        for i in range(40):
            for site in faults.SITES:
                plan.poke(site)
        return plan.firings

    assert run() == run()


# -- the engine --------------------------------------------------------------

def test_install_uninstall_cycle():
    plan = standard_spec().compile()
    assert faults.active() is None
    faults.install(plan)
    assert faults.active() is plan
    assert faults.active_sites == plan.sites
    with pytest.raises(FaultError, match="already installed"):
        faults.install(standard_spec().compile())
    assert faults.uninstall() is plan
    assert faults.active() is None
    assert faults.active_sites == frozenset()


def test_session_restores_previous_plan():
    outer = standard_spec().compile()
    inner = FaultSpec([SiteRule("dma.map", every_nth=1)]).compile()
    with faults.session(outer):
        with faults.session(inner):
            assert faults.active() is inner
            assert faults.active_sites == frozenset({"dma.map"})
        assert faults.active() is outer
    assert faults.active() is None


def test_session_none_is_noop():
    with faults.session(None):
        assert faults.active() is None
        assert faults.fires("dma.map") is None


def test_fires_advances_only_active_plan():
    plan = FaultSpec([SiteRule("dma.map", every_nth=1)]).compile()
    assert faults.fires("dma.map") is None          # engine inactive
    with faults.session(plan):
        assert faults.fires("dma.map") is not None
    assert plan.fired_counts() == {"dma.map": 1}


def test_fires_publishes_trace_and_metrics():
    faults.reset_fired_counts()
    plan = FaultSpec([SiteRule("dma.map", every_nth=1)]).compile()
    with trace.session(categories=("fault",)) as recorder:
        with metrics.session() as registry:
            with faults.session(plan):
                faults.fires("dma.map")
            text = metrics.prometheus_text(registry, collect=False)
    events = [e for e in recorder.events if e.category == "fault"]
    assert len(events) == 1
    assert events[0].name == "dma.map"
    assert 'repro_faults_injected_total{site="dma.map"} 1' in text
    assert faults.fired_counts()["dma.map"] >= 1


def test_injected_exceptions_subclass_real_errors():
    assert issubclass(faults.InjectedOutOfMemory, OutOfMemoryError)
    assert issubclass(faults.InjectedDmaMapError, DmaApiError)
    assert issubclass(faults.InjectedWorkerCrash, CampaignError)
    exc = faults.InjectedOutOfMemory("mem.slab.kmalloc")
    assert exc.site == "mem.slab.kmalloc"
    assert "mem.slab.kmalloc" in str(exc)


def test_chaos_report_gates_on_every_phase():
    from repro.faults.chaos import (ChaosReport, WorkloadOutcome,
                                    format_chaos_report)
    report = ChaosReport(outcomes=[WorkloadOutcome("storage", True)],
                         campaign=WorkloadOutcome("campaign", True))
    assert report.ok
    assert "chaos verdict: PASS" in format_chaos_report(report)
    report.campaign = WorkloadOutcome(
        "campaign", False, unrecovered_site="campaign.worker.crash")
    assert not report.ok
    rendered = format_chaos_report(report)
    assert "UNRECOVERED FAULT at campaign.worker.crash" in rendered
    assert "chaos verdict: FAIL" in rendered
    report.campaign = WorkloadOutcome("campaign", True)
    report.outcomes.append(WorkloadOutcome("ringflood", False))
    assert not report.ok
