"""Cross-backend differential campaigns.

``repro-dma campaign --backends a,b,...`` runs every seed against each
IOMMU backend model and diffs the per-backend results. Two kinds of
backend-dependent disagreement become first-class oracle outcomes:

* ``backend-window`` -- a site's post-unmap vulnerability window is
  open on one backend and closed on another (deferred flush cadence /
  drain granularity dependent): the paper's Fig 6 exposure turning on
  and off with the hardware model.
* ``backend-verdict`` -- SPADE-vs-D-KASAN verdicts for a site differ
  across backends (a detector's blind spot is platform-dependent).

Each backend's records land in their own JSONL
(``<stem>.<backend>.jsonl``), so every record stays replayable with
``run_seed(seed, backend=...)`` and per-backend findings digests stay
meaningful; the cross-backend disagreement records land in
``<stem>.cross.jsonl``.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field, replace

from repro import backends as backend_registry
from repro import durability, metrics
from repro.campaign.results import (CampaignSummary, findings_digest,
                                    load_records)
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.coverage import CoverageMap, coverage_map_path
from repro.errors import CampaignError
from repro.report.tables import render_table

#: cross-backend disagreement kinds (the new oracle outcomes)
BACKEND_DISAGREEMENT_KINDS = ("backend-window", "backend-verdict")


def backend_results_path(output: str, backend_name: str) -> str:
    """Per-backend results file: ``campaign/x.jsonl`` ->
    ``campaign/x.<backend>.jsonl``."""
    stem, ext = os.path.splitext(output)
    return f"{stem}.{backend_name}{ext or '.jsonl'}"


def cross_results_path(output: str) -> str:
    stem, ext = os.path.splitext(output)
    return f"{stem}.cross{ext or '.jsonl'}"


def _window_map(record: dict) -> dict[str, bool]:
    """Per-site window observations; default-backend records carry
    none -- their replay runs strict, so every window is closed."""
    return {str(site): bool(open_) for site, open_
            in record.get("window_sites", {}).items()}


def _verdict_map(record: dict) -> dict[str, str]:
    return {f"{d['path']}:{d['line']}": d["verdict"]
            for d in record.get("disagreements", ())}


def cross_backend_disagreements(
        records_by_backend: dict[str, dict[int, dict]]) -> list[dict]:
    """Diff per-backend record sets into disagreement records.

    Only seeds completed on *every* backend are compared (a seed that
    failed somewhere has nothing sound to diff). Window maps treat an
    absent site as "closed" -- that is exactly what the default
    backend's strict replay observes.
    """
    names = sorted(records_by_backend)
    if len(names) < 2:
        return []
    common = None
    for name in names:
        done = {seed for seed, record in records_by_backend[name].items()
                if record.get("status") == "ok"}
        common = done if common is None else common & done
    out: list[dict] = []
    for seed in sorted(common or ()):
        seed_records = {name: records_by_backend[name][seed]
                        for name in names}
        window_maps = {name: _window_map(record)
                       for name, record in seed_records.items()}
        sites: set[str] = set()
        for window_map in window_maps.values():
            sites |= window_map.keys()
        for site in sorted(sites):
            values = {name: window_maps[name].get(site, False)
                      for name in names}
            if len(set(values.values())) > 1:
                path, _, line = site.rpartition(":")
                out.append({"kind": "backend-window", "seed": seed,
                            "path": path, "line": int(line),
                            "site": site, "windows": values})
        verdict_maps = {name: _verdict_map(record)
                        for name, record in seed_records.items()}
        verdict_sites: set[str] = set()
        for verdict_map in verdict_maps.values():
            verdict_sites |= verdict_map.keys()
        for site in sorted(verdict_sites):
            verdicts = {name: verdict_maps[name].get(site)
                        for name in names}
            if len(set(verdicts.values())) > 1:
                out.append({"kind": "backend-verdict", "seed": seed,
                            "site": site, "verdicts": verdicts})
    return out


@dataclass
class MultiBackendSummary:
    """Aggregate of one ``--backends`` campaign."""

    backends: list[str]
    summaries: dict[str, CampaignSummary]
    digests: dict[str, str]
    outputs: dict[str, str]
    cross: list[dict] = field(default_factory=list)
    cross_output: str | None = None

    @property
    def all_ok(self) -> bool:
        return all(summary.all_ok for summary in self.summaries.values())

    @property
    def nr_cross(self) -> int:
        return len(self.cross)


def run_multi_backend_campaign(
        config: CampaignConfig, backend_names: list[str], *,
        progress=None) -> MultiBackendSummary:
    """Run the same seed set against every backend and diff.

    *progress*, if given, is called as ``progress(backend, record)``.
    The per-backend sub-campaigns share ``config``'s cache directory
    (SPADE analysis is backend-independent, so the cache stays hot
    across backends).
    """
    specs = [backend_registry.get_backend(name) for name in backend_names]
    if len({spec.name for spec in specs}) < 2:
        raise CampaignError(
            "a cross-backend campaign needs at least two distinct "
            f"backends, got {backend_names!r}")
    if not config.output:
        raise CampaignError(
            "a cross-backend campaign needs an --output stem for its "
            "per-backend results files")

    summaries: dict[str, CampaignSummary] = {}
    digests: dict[str, str] = {}
    outputs: dict[str, str] = {}
    records_by_backend: dict[str, dict[int, dict]] = {}
    for spec in specs:
        sub = replace(
            config,
            backend=backend_registry.backend_label(spec),
            output=backend_results_path(config.output, spec.name))
        sub_progress = None
        if progress is not None:
            sub_progress = (lambda record, _name=spec.name:
                            progress(_name, record))
        summaries[spec.name] = run_campaign(sub, progress=sub_progress)
        records = {seed: record
                   for seed, record in load_records(sub.output).items()
                   if seed in set(config.seeds)}
        records_by_backend[spec.name] = records
        digests[spec.name] = findings_digest(records)
        outputs[spec.name] = sub.output

    # one combined CoverageMap across every backend lane (each lane's
    # own map already rides beside its results file): the
    # cross-backend feature-set diff `coverage diff` consumes
    combined = CoverageMap()
    for name in sorted(records_by_backend):
        combined.merge(CoverageMap.from_records(records_by_backend[name]))
    combined.save(coverage_map_path(config.output))

    cross = cross_backend_disagreements(records_by_backend)
    cross_output = cross_results_path(config.output)
    durability.atomic_write_text(
        cross_output,
        "".join(durability.canonical_json(record) + "\n"
                for record in cross))
    for record in cross:
        metrics.count("campaign", "backend_disagreements",
                      kind=record["kind"])
    return MultiBackendSummary(
        backends=[spec.name for spec in specs], summaries=summaries,
        digests=digests, outputs=outputs, cross=cross,
        cross_output=cross_output)


def format_multi_backend_summary(multi: MultiBackendSummary) -> str:
    """The cross-backend block the CLI prints below the per-backend
    summaries."""
    lines = [f"cross-backend differential: "
             f"{', '.join(multi.backends)}"]
    rows = []
    for name in multi.backends:
        summary = multi.summaries[name]
        rows.append([name, str(summary.nr_ok), str(summary.nr_failed),
                     str(sum(summary.disagreements.values())),
                     multi.digests[name][:16]])
    lines.append(render_table(
        ["backend", "ok", "failed", "sp-vs-dk", "findings digest"],
        rows))
    kinds = Counter(record["kind"] for record in multi.cross)
    seeds = {record["seed"] for record in multi.cross}
    lines.append(f"backend-dependent disagreements: {multi.nr_cross} "
                 f"across {len(seeds)} seed(s)")
    if kinds:
        lines.append(render_table(
            ["kind", "count"],
            [[kind, str(count)] for kind, count in sorted(kinds.items())]))
    for record in multi.cross[:5]:
        if record["kind"] == "backend-window":
            windows = ", ".join(
                f"{name}={'open' if open_ else 'closed'}"
                for name, open_ in sorted(record["windows"].items()))
            lines.append(f"  seed {record['seed']} {record['site']}: "
                         f"{windows}")
        else:
            verdicts = ", ".join(
                f"{name}={verdict or 'agree'}"
                for name, verdict in sorted(record["verdicts"].items()))
            lines.append(f"  seed {record['seed']} {record['site']}: "
                         f"{verdicts}")
    if multi.cross_output:
        lines.append(f"cross-backend records: {multi.cross_output}")
    return "\n".join(lines)
