"""Fault plans: what fires, where, and when -- all seed-deterministic.

A :class:`FaultSpec` is the user-facing description: one
:class:`SiteRule` per injection site, each with exactly one trigger
(``probability``, ``every_nth``, or ``at_steps``). Compiling a spec
yields a :class:`FaultPlan`, the runtime object the engine polls: per
site it keeps a step counter and (for probabilistic rules) a private
``random.Random`` stream seeded from ``(spec.seed, stream, site)`` --
so the same spec, stream, and attempt always produce the same firing
sequence, independent of what any *other* site does and of global RNG
state. That determinism is what makes chaos runs reproducible and the
recoverable-plan differential invariant (EXPERIMENTS E20) testable.

``stream`` is the caller's replication axis: the chaos harness uses
one stream per workload, the campaign runner uses the seed number, and
``attempt`` distinguishes a retry from the first try (so a rule with
``on_attempt=0`` models a crash that does *not* reproduce on retry).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

from repro.errors import FaultError

#: injection sites threaded through the simulated kernel
KERNEL_SITES = (
    "mem.buddy.alloc",      # alloc_pages returns the kernel's NULL path
    "mem.slab.kmalloc",     # kmalloc failure
    "mem.page_frag.alloc",  # page_frag_alloc failure
    "iommu.iotlb.evict",    # forced eviction storm (arg = fraction)
    "iommu.fq.delay",       # flush-queue drain skipped one period
    "net.ring.rx_drop",     # device drops the packet, descriptor kept
    "net.nic.truncate",     # truncated DMA write (arg = keep fraction)
    "dma.map",              # dma_map_single failure
)

#: injection sites in the tooling layer around the kernel
TOOLING_SITES = (
    "perfcache.read",          # disk-tier read I/O error
    "perfcache.write",         # disk-tier write I/O error
    "perfcache.corrupt",       # bit-flipped entry (fails validation)
    "campaign.worker.crash",   # injected exception inside run_seed
    "campaign.worker.hang",    # injected sleep (arg = seconds)
    "durability.post_write",   # tmp file fully written, not yet durable
    "durability.pre_replace",  # right before the atomic os.replace
    "durability.post_replace",  # replaced, parent dir not yet synced
    "durability.mid_append",   # half an appended JSONL line on disk
    "durability.post_append",  # appended line complete, not yet synced
)

SITES = KERNEL_SITES + TOOLING_SITES

#: site prefixes that identify tooling-layer rules (see split())
_TOOLING_PREFIXES = ("perfcache.", "campaign.", "durability.")


@dataclass(frozen=True)
class SiteRule:
    """One site's trigger. Exactly one of the three triggers is set."""

    site: str
    probability: float | None = None
    every_nth: int | None = None
    at_steps: tuple[int, ...] | None = None
    #: stop firing after this many hits (None = unlimited)
    max_fires: int | None = None
    #: only fire on this attempt number (None = every attempt)
    on_attempt: int | None = None
    #: site-specific knob (eviction fraction, keep fraction, sleep s)
    arg: float | None = None
    #: how a durability crash point fires: ``"raise"`` (default) throws
    #: an :class:`~repro.faults.InjectedDurabilityCrash`; ``"kill"``
    #: hard-exits the process (``os._exit``), the power-loss simulation
    action: str | None = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultError(f"unknown fault site {self.site!r} "
                             f"(valid: {', '.join(SITES)})")
        triggers = [t for t in (self.probability, self.every_nth,
                                self.at_steps) if t is not None]
        if len(triggers) != 1:
            raise FaultError(
                f"rule for {self.site} needs exactly one trigger among "
                f"probability/every_nth/at_steps, got {len(triggers)}")
        if self.probability is not None \
                and not 0.0 < self.probability <= 1.0:
            raise FaultError(f"bad probability {self.probability} "
                             f"for {self.site}")
        if self.every_nth is not None and self.every_nth <= 0:
            raise FaultError(f"bad every_nth {self.every_nth} "
                             f"for {self.site}")
        if self.at_steps is not None:
            object.__setattr__(self, "at_steps", tuple(self.at_steps))
            if any(step < 0 for step in self.at_steps):
                raise FaultError(f"negative step in at_steps "
                                 f"for {self.site}")
        if self.max_fires is not None and self.max_fires <= 0:
            raise FaultError(f"bad max_fires {self.max_fires} "
                             f"for {self.site}")
        if self.action is not None and self.action not in ("raise",
                                                           "kill"):
            raise FaultError(f"bad action {self.action!r} for "
                             f"{self.site} (expected raise or kill)")

    def to_json(self) -> dict:
        doc: dict = {"site": self.site}
        for key in ("probability", "every_nth", "max_fires",
                    "on_attempt", "arg", "action"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        if self.at_steps is not None:
            doc["at_steps"] = list(self.at_steps)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "SiteRule":
        if not isinstance(doc, dict) or "site" not in doc:
            raise FaultError(f"bad fault rule {doc!r}")
        known = {"site", "probability", "every_nth", "at_steps",
                 "max_fires", "on_attempt", "arg", "action"}
        unknown = set(doc) - known
        if unknown:
            raise FaultError(f"unknown rule field(s) "
                             f"{', '.join(sorted(unknown))} "
                             f"for {doc.get('site')}")
        kwargs = dict(doc)
        if "at_steps" in kwargs:
            kwargs["at_steps"] = tuple(kwargs["at_steps"])
        return cls(**kwargs)


@dataclass(frozen=True)
class Firing:
    """One triggered fault: which site, at which step, for the Nth time."""

    site: str
    step: int      # 0-based call index at the site when it fired
    nth: int       # 1-based count of fires at this site so far
    arg: float | None = None
    action: str | None = None   # "kill" hard-exits instead of raising


class FaultSpec:
    """An immutable set of :class:`SiteRule`, one per site, plus a seed."""

    def __init__(self, rules, *, seed: int = 0) -> None:
        self.seed = int(seed)
        self.rules: tuple[SiteRule, ...] = tuple(rules)
        seen: set[str] = set()
        for rule in self.rules:
            if not isinstance(rule, SiteRule):
                raise FaultError(f"not a SiteRule: {rule!r}")
            if rule.site in seen:
                raise FaultError(f"duplicate rule for {rule.site}")
            seen.add(rule.site)

    @property
    def sites(self) -> frozenset:
        return frozenset(rule.site for rule in self.rules)

    def split(self) -> tuple["FaultSpec", "FaultSpec"]:
        """(kernel-layer spec, tooling-layer spec) partition.

        The chaos harness applies kernel rules to the workload phase
        and tooling rules to the campaign phase: kernel faults inside
        campaign workers would legitimately change findings, which
        would break the byte-identical differential invariant.
        """
        tooling = [r for r in self.rules
                   if r.site.startswith(_TOOLING_PREFIXES)]
        kernel = [r for r in self.rules if r not in tooling]
        return (FaultSpec(kernel, seed=self.seed),
                FaultSpec(tooling, seed=self.seed))

    def to_json(self) -> dict:
        return {"seed": self.seed,
                "rules": [rule.to_json() for rule in self.rules]}

    @classmethod
    def from_json(cls, doc: dict) -> "FaultSpec":
        if not isinstance(doc, dict) or "rules" not in doc:
            raise FaultError(f"bad fault spec: {doc!r}")
        return cls([SiteRule.from_json(rule) for rule in doc["rules"]],
                   seed=doc.get("seed", 0))

    def compile(self, *, stream: int = 0,
                attempt: int = 0) -> "FaultPlan":
        return FaultPlan(self, stream=stream, attempt=attempt)


def _site_stream(seed: int, stream: int, site: str) -> random.Random:
    """A private RNG per (spec seed, stream, site): stable across
    processes and Python versions (hash-randomization immune)."""
    digest = hashlib.sha256(
        f"{seed}:{stream}:{site}".encode("utf-8")).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


class FaultPlan:
    """A compiled spec: per-site counters, RNG streams, and the firing
    log. One plan per (stream, attempt); not thread-safe, not reusable
    across runs (counters advance on every poke)."""

    def __init__(self, spec: FaultSpec, *, stream: int = 0,
                 attempt: int = 0) -> None:
        self.spec = spec
        self.stream = int(stream)
        self.attempt = int(attempt)
        self._rules = {rule.site: rule for rule in spec.rules}
        self._rngs = {site: _site_stream(spec.seed, stream, site)
                      for site, rule in self._rules.items()
                      if rule.probability is not None}
        self._steps: Counter = Counter()
        self._fired: Counter = Counter()
        self.firings: list[Firing] = []

    @property
    def sites(self) -> frozenset:
        return self.spec.sites

    def poke(self, site: str) -> Firing | None:
        """Advance *site*'s step counter; return a Firing if it fires."""
        rule = self._rules.get(site)
        if rule is None:
            return None
        step = self._steps[site]
        self._steps[site] = step + 1
        if rule.on_attempt is not None \
                and rule.on_attempt != self.attempt:
            return None
        if rule.max_fires is not None \
                and self._fired[site] >= rule.max_fires:
            return None
        if rule.at_steps is not None:
            fire = step in rule.at_steps
        elif rule.every_nth is not None:
            fire = (step + 1) % rule.every_nth == 0
        else:
            fire = self._rngs[site].random() < rule.probability
        if not fire:
            return None
        self._fired[site] += 1
        firing = Firing(site, step, self._fired[site], rule.arg,
                        rule.action)
        self.firings.append(firing)
        return firing

    def fired_counts(self) -> dict:
        return dict(self._fired)

    def steps(self) -> dict:
        return dict(self._steps)


def standard_spec(seed: int = 0) -> FaultSpec:
    """The mixed recoverable plan ``repro-dma chaos`` runs by default.

    Every rule here injects a failure the stack is expected to absorb:
    allocation failures hit paths with NULL-return recovery, IOTLB
    storms and delayed drains only stretch windows, dropped/truncated
    packets are normal network weather, cache I/O errors fall back to
    recompute, and the one worker crash fires only on attempt 0 so a
    single retry heals it. Trigger cadences are tuned to the default
    chaos workload sizes so every site fires at least once.
    """
    return FaultSpec([
        SiteRule("mem.buddy.alloc", every_nth=2, max_fires=2),
        SiteRule("mem.slab.kmalloc", every_nth=50, max_fires=4),
        SiteRule("mem.page_frag.alloc", every_nth=10, max_fires=3),
        SiteRule("iommu.iotlb.evict", every_nth=10, max_fires=4,
                 arg=0.5),
        SiteRule("iommu.fq.delay", every_nth=1, max_fires=2),
        SiteRule("net.ring.rx_drop", every_nth=7, max_fires=3),
        SiteRule("net.nic.truncate", every_nth=5, max_fires=3,
                 arg=0.5),
        SiteRule("dma.map", every_nth=25, max_fires=3),
        SiteRule("perfcache.read", every_nth=3, max_fires=4),
        SiteRule("perfcache.write", every_nth=3, max_fires=4),
        SiteRule("perfcache.corrupt", every_nth=5, max_fires=3),
        SiteRule("campaign.worker.crash", at_steps=(0,), on_attempt=0),
    ], seed=seed)
