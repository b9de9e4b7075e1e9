"""Rendering helpers for experiment output.

Paper-style tables, flight-recorder timelines, and the ``/proc``-style
blocks for what the metrics registry does not hold (perfcache disk
usage, campaign coverage maps). Counters of the simulated kernel
render from the registry, through :mod:`repro.metrics.export`.
"""

from repro.report.procfs import render_cache_usage, render_coverage_stats
from repro.report.tables import PaperComparison, render_table
from repro.report.timeline import (render_invalidation_report,
                                   render_timeline, render_trace_summary)

__all__ = ["PaperComparison", "render_table", "render_timeline",
           "render_trace_summary", "render_invalidation_report",
           "render_cache_usage", "render_coverage_stats"]
