"""repro.faults -- deterministic fault injection for the whole stack.

The simulated kernel and the tooling around it only ever exercised the
happy path: allocations never fail, devices never drop or truncate a
packet, a crashed campaign worker silently lost its seed. This package
is the chaos layer that fixes that, in the spirit of DICE / DyMA-Fuzz
(PAPERS.md): adversarial peripheral and environment behavior is what
surfaces the interesting states. Every site in :data:`SITES` is one a
run can reach: the kernel sites fire inside a workload, the tooling
sites inside a campaign seed.

Usage mirrors :mod:`repro.trace` and :mod:`repro.metrics`:

* a module-global engine -- :func:`install` / :func:`uninstall` /
  :func:`session` -- holds at most one active :class:`FaultPlan`;
* hot paths guard with the hoistable membership test
  ``"mem.slab.kmalloc" in faults.active_sites`` before paying the
  :func:`fires` call, so an inactive engine costs one frozenset probe;
* every triggered fault emits a ``fault``-category trace event and a
  ``repro_faults_injected_total{site=...}`` metrics counter, so the
  existing observability stack sees the chaos.

Injected failures are raised as subclasses of the error the real code
path would produce (``InjectedOutOfMemory`` is an ``OutOfMemoryError``,
``InjectedDmaMapError`` is a ``DmaApiError``, ...) tagged with
``.site`` -- existing recovery handles them naturally, and anything
that escapes names the offending site.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from repro import metrics, trace
from repro.errors import (CampaignError, DmaApiError, FaultError,
                          OutOfMemoryError)
from repro.faults.spec import (KERNEL_SITES, SITES, TOOLING_SITES,
                               FaultPlan, FaultSpec, Firing, SiteRule,
                               standard_spec)

__all__ = [
    "KERNEL_SITES", "SITES", "TOOLING_SITES",
    "FaultPlan", "FaultSpec", "Firing", "SiteRule",
    "InjectedDmaMapError", "InjectedFault",
    "InjectedOutOfMemory", "InjectedWorkerCrash",
    "active", "active_sites", "fired_counts", "fires", "install",
    "reset_fired_counts", "session", "standard_spec",
    "uninstall",
]


class InjectedFault(Exception):
    """Mixin base tagging engine-raised exceptions with their site."""

    def __init__(self, site: str, message: str | None = None) -> None:
        super().__init__(message or f"injected fault at {site}")
        self.site = site


class InjectedOutOfMemory(InjectedFault, OutOfMemoryError):
    """An allocator returned the kernel's NULL path on command."""


class InjectedDmaMapError(InjectedFault, DmaApiError):
    """``dma_map_single`` failed on command (DMA_MAPPING_ERROR)."""


class InjectedWorkerCrash(InjectedFault, CampaignError):
    """A campaign worker crashed mid-seed on command."""


_active: FaultPlan | None = None

#: sites armed by the active plan; a frozenset so hot loops can hoist
#: the ``site in faults.active_sites`` guard (empty when inactive)
active_sites: frozenset = frozenset()

#: process-cumulative per-site fire counts, across every plan this
#: process ran (the chaos report aggregates phases from here)
_fired_total: Counter = Counter()


def install(plan: FaultPlan) -> FaultPlan:
    """Arm *plan*; exactly one plan may be active per process."""
    global _active, active_sites
    if _active is not None:
        raise FaultError("a fault plan is already installed")
    if not isinstance(plan, FaultPlan):
        raise FaultError(f"not a FaultPlan: {plan!r}")
    _active = plan
    active_sites = plan.sites
    return plan


def uninstall() -> FaultPlan | None:
    global _active, active_sites
    plan, _active = _active, None
    active_sites = frozenset()
    return plan


def active() -> FaultPlan | None:
    return _active


@contextmanager
def session(plan: FaultPlan | None):
    """Swap *plan* in for the duration (restoring any previous plan).

    ``session(None)`` is a no-op context, so callers with an optional
    spec need no branching.
    """
    global _active, active_sites
    if plan is None:
        yield None
        return
    previous = _active
    _active = plan
    active_sites = plan.sites
    try:
        yield plan
    finally:
        _active = previous
        active_sites = previous.sites if previous is not None \
            else frozenset()


def fires(site: str) -> Firing | None:
    """Poll *site* against the active plan; records + publishes a hit.

    Returns the :class:`Firing` when the fault should be injected
    (the caller decides *how* -- raise, drop, truncate, sleep), else
    None. Inactive engine: always None, no counter advance.
    """
    plan = _active
    if plan is None:
        return None
    firing = plan.poke(site)
    if firing is None:
        return None
    _fired_total[site] += 1
    if "fault" in trace.active_categories:
        trace.emit("fault", site, step=firing.step, nth=firing.nth)
    metrics.count("faults", "injected", site=site)
    return firing


def fired_counts() -> dict:
    """Cumulative per-site fire counts for this process."""
    return dict(_fired_total)


def reset_fired_counts() -> None:
    _fired_total.clear()
