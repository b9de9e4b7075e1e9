"""repro.metrics -- the kernel-wide aggregate metrics registry.

Where :mod:`repro.trace` answers "what happened, in order" with a
bounded ring of events, this package answers "how much, how fast, how
full" with unbounded counters, gauges, and pow-2 histograms -- the
``/proc`` tier of the simulated kernel.

**Metrics are disabled by default and cost almost nothing when off.**
Like the flight recorder, nothing exists until a registry is
installed, and the instruments are *pull-based*: subsystems keep their
cheap resident stats structs either way, and collectors read them out
only at snapshot time::

    from repro import metrics

    with metrics.session() as registry:
        kernel = Kernel(seed=7)        # binds the kernel collector
        ...                            # run a workload
        text = metrics.export.prometheus_text(registry)

Only ``repro-dma metrics`` and ``repro-dma chaos`` install one.

The most recently booted :class:`~repro.sim.kernel.Kernel` owns the
registry's ``kernel`` collector slot (mirroring how the flight
recorder binds to the most recent boot's clock), so attacker replica
boots do not pollute the victim's numbers as long as the victim boots
last -- and the CLI workloads profile replicas *before* installing the
registry, exactly like ``repro-dma trace`` does.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.errors import MetricsError
from repro.metrics import export
from repro.metrics.collectors import (dkasan_collector, kernel_collector,
                                      perfcache_collector, publish_dkasan,
                                      publish_kernel, publish_perfcache)
from repro.metrics.export import (dump_json, dump_prometheus, json_record,
                                  prometheus_text)
from repro.metrics.registry import (SUBSYSTEMS, Counter, Gauge, Histogram,
                                    MetricsRegistry, Sample)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsError", "MetricsRegistry",
    "SUBSYSTEMS", "Sample", "active", "count",
    "dkasan_collector", "dump_json", "dump_prometheus",
    "export", "install", "json_record",
    "kernel_collector", "observe", "observe_dkasan", "observe_kernel",
    "perfcache_collector", "prometheus_text", "publish_dkasan",
    "publish_kernel", "publish_perfcache", "session", "set_gauge", "uninstall",
]

#: The installed registry. ``None`` (the default) means metrics are
#: off and every helper below is a near-zero-cost no-op.
_active: MetricsRegistry | None = None


def install(registry: MetricsRegistry | None = None) -> MetricsRegistry:
    """Install *registry* (or a fresh one) process-wide."""
    global _active
    if _active is not None:
        raise MetricsError("a metrics registry is already installed")
    if registry is None:
        registry = MetricsRegistry()
    registry.register_collector(perfcache_collector(), slot="perfcache")
    _active = registry
    return registry


def uninstall() -> MetricsRegistry | None:
    """Remove (and return) the installed registry, if any."""
    global _active
    registry, _active = _active, None
    return registry


def active() -> MetricsRegistry | None:
    """The installed registry, or None when metrics are disabled."""
    return _active


@contextmanager
def session(registry: MetricsRegistry | None = None):
    """Install a registry for the ``with`` body."""
    installed = install(registry)
    try:
        yield installed
    finally:
        uninstall()


# -- binding hooks (called by subsystem constructors) ---------------------

def observe_kernel(kernel) -> None:
    """Bind *kernel* as the registry's ``kernel`` collector (last boot
    wins); no-op when metrics are off."""
    registry = _active
    if registry is not None:
        registry.register_collector(kernel_collector(kernel),
                                    slot="kernel")


def observe_dkasan(dkasan) -> None:
    registry = _active
    if registry is not None:
        registry.register_collector(dkasan_collector(dkasan),
                                    slot="dkasan")


# -- push-style hot hooks (no-op guard, same budget as trace) -------------

def count(subsystem: str, name: str, delta: int | float = 1,
          **labels) -> None:
    registry = _active
    if registry is not None:
        registry.counter(subsystem, name, **labels).inc(delta)


def observe(subsystem: str, name: str, value: float, **labels) -> None:
    registry = _active
    if registry is not None:
        registry.histogram(subsystem, name, **labels).observe(value)


def set_gauge(subsystem: str, name: str, value: int | float,
              **labels) -> None:
    registry = _active
    if registry is not None:
        registry.gauge(subsystem, name, **labels).set(value)
