"""Rendering helpers for experiment output."""

from repro.report.procfs import (render_cache_stats,
                                 render_coverage_stats,
                                 render_dkasan_stats,
                                 render_iommu_stats, render_meminfo,
                                 render_netdev)
from repro.report.tables import PaperComparison, render_table
from repro.report.timeline import (render_invalidation_report,
                                   render_timeline, render_trace_summary)

__all__ = ["PaperComparison", "render_table", "render_timeline",
           "render_trace_summary", "render_invalidation_report",
           "render_meminfo", "render_iommu_stats", "render_netdev",
           "render_dkasan_stats", "render_cache_stats",
           "render_coverage_stats"]
