"""``/proc``-style stat blocks the metrics registry does not hold.

Kernel, IOMMU, NIC, allocator, D-KASAN and perfcache counters render
from the registry (:func:`repro.metrics.export.proc_text`); this
module holds the two views that are not registry instruments: the
perfcache's per-namespace disk footprint and the campaign coverage
map, in the two-column style of ``/proc/<subsystem>/stats`` files.
"""

from __future__ import annotations

#: width of the name column in two-column stat blocks
_NAME_WIDTH = 24


def _row(name: str, value, unit: str = "") -> str:
    suffix = f" {unit}" if unit else ""
    return f"{name + ':':<{_NAME_WIDTH}}{value:>12}{suffix}"


def render_cache_usage(usages) -> str:
    """The perfcache's per-namespace disk footprint
    (:meth:`~repro.perfcache.PerfCache.disk_usage`)."""
    lines = ["cache_stats:"]
    if usages:
        lines.append(f"{'Namespace':<12}{'entries':>10}{'bytes':>14}")
        for usage in usages:
            lines.append(f"{usage.namespace:<12}{usage.entries:>10}"
                         f"{usage.bytes:>14}")
    else:
        lines.append("  (no disk tier)")
    return "\n".join(lines)


def render_coverage_stats(cover) -> str:
    """Campaign coverage map as a ``/proc``-style stat block.

    *cover* is a :class:`repro.coverage.CoverageMap`: global feature
    totals, per-lane seed counts, and per-subsystem feature density.
    """
    lines = ["coverage_stats:"]
    nr_seeds = cover.nr_seeds
    lines.append(_row("Features", cover.nr_features))
    lines.append(_row("Seeds", nr_seeds))
    per_seed = cover.nr_features / nr_seeds if nr_seeds else 0.0
    lines.append(_row("FeaturesPerSeed", f"{per_seed:.2f}"))
    lines.append(_row("Lanes", len(cover.lanes)))
    for lane in cover.lanes:
        lines.append(_row(f"  lane {lane}", len(cover.seeds(lane)),
                          "seeds"))
    groups = cover.group_stats()
    for group in sorted(groups):
        stat = groups[group]
        lines.append(_row(f"Group_{group}",
                          f"{stat['nr_features']}/{stat['count']}",
                          "features/hits"))
    return "\n".join(lines)
