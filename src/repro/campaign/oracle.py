"""The differential oracle: SPADE vs D-KASAN vs ground truth.

Per campaign seed, the same mutated corpus is judged three ways:

* **statically** -- SPADE analyzes the mutated tree and labels every
  dma-map call site;
* **dynamically** -- a fresh simulated kernel replays every manifest
  call site under D-KASAN (:func:`repro.sim.workload.run_manifest_replay`);
* **truth** -- the mutator's manifest says what each site really
  exposes.

Scoring is per-site and per-vulnerability-type for both detectors,
plus the differential signal the campaign exists for: sites where the
static and dynamic verdicts *disagree*, classified by who the
manifest says is wrong.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.corpus.generate import SourceTree
from repro.corpus.manifest import Manifest

if TYPE_CHECKING:
    from repro.core.spade import Spade

#: disagreement classification, from the manifest's point of view
VERDICTS = ("spade-miss",    # vulnerable, D-KASAN caught it, SPADE blind
            "dkasan-miss",   # vulnerable, SPADE caught it, D-KASAN blind
            "spade-fp",      # benign, but SPADE flagged it
            "dkasan-fp")     # benign, but D-KASAN flagged it

#: physical memory of the simulated kernel every seed replays on
PHYS_MB = 256


@dataclass(frozen=True)
class Disagreement:
    """One static-vs-dynamic split decision on one call site."""

    path: str
    site_index: int          # index among the file's sites (line-stable)
    line: int
    category: str
    truth: tuple[str, ...]
    spade_labels: tuple[str, ...]
    dkasan_hit: bool
    verdict: str

    def to_json(self) -> dict:
        return {"path": self.path, "site_index": self.site_index,
                "line": self.line, "category": self.category,
                "truth": list(self.truth),
                "spade_labels": list(self.spade_labels),
                "dkasan_hit": self.dkasan_hit, "verdict": self.verdict}

    @classmethod
    def from_json(cls, record: dict) -> "Disagreement":
        return cls(record["path"], record["site_index"], record["line"],
                   record["category"], tuple(record["truth"]),
                   tuple(record["spade_labels"]), record["dkasan_hit"],
                   record["verdict"])


@dataclass
class DetectorScore:
    """tp/fp/fn tallies, overall and per type."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    per_type: dict[str, list[int]] = field(default_factory=dict)

    def count(self, key: str, outcome: str) -> None:
        slot = self.per_type.setdefault(key, [0, 0, 0])
        index = ("tp", "fp", "fn").index(outcome)
        slot[index] += 1
        setattr(self, outcome, getattr(self, outcome) + 1)

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if self.tp + self.fp else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if self.tp + self.fn else 1.0

    def to_json(self) -> dict:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn,
                "per_type": {k: list(v)
                             for k, v in sorted(self.per_type.items())}}

    @classmethod
    def from_json(cls, record: dict) -> "DetectorScore":
        return cls(record["tp"], record["fp"], record["fn"],
                   {k: list(v) for k, v in record["per_type"].items()})


@dataclass
class DifferentialResult:
    """Everything one seed's differential run measured."""

    seed: int
    nr_sites: int
    spade: DetectorScore
    dkasan: DetectorScore
    disagreements: list[Disagreement]
    spade_fn_exemplars: list[str] = field(default_factory=list)
    dkasan_fn_exemplars: list[str] = field(default_factory=list)
    #: last-N flight-recorder events from the dynamic replay, captured
    #: only when the detectors disagreed (JSON dicts, oldest first)
    trace_tail: list[dict] = field(default_factory=list)
    #: non-default backend the replay ran on, else None (the default
    #: keeps pre-backend records byte-identical)
    backend: str | None = None
    #: per-site post-unmap window observations ("path:line" -> open),
    #: measured only on non-default-backend runs
    window_sites: dict[str, bool] = field(default_factory=dict)
    #: deterministic coverage signature of the dynamic replay (see
    #: :mod:`repro.coverage`); None when coverage was disabled
    coverage: dict | None = None


def run_differential(tree: SourceTree, manifest: Manifest, *,
                     seed: int = 0, max_exemplars: int = 5,
                     trace_events: int = 0,
                     backend: str | None = None,
                     coverage: bool = True,
                     base: Spade | None = None) -> DifferentialResult:
    """Run both detectors over one (tree, manifest) pair and score.

    ``trace_events > 0`` runs the dynamic replay under a bounded
    flight recorder (dma/iommu/dkasan categories) whose last *N*
    events are attached to the result when the detectors disagree --
    the context a triager needs to see *why* D-KASAN fired (or stayed
    silent) at the disputed call site.

    ``coverage`` (the default) additionally derives the replay's
    deterministic coverage signature (:mod:`repro.coverage`). The
    collector *streams* from the recorder via an observer hook, so the
    signature is independent of ``trace_events``: with tracing off a
    minimal capacity-1 recorder is installed purely to drive the
    stream, and the retained ring (hence ``trace_tail`` and the
    findings bytes) is untouched.

    The replay always runs under this seed's own recorder (or, with
    neither a tail nor coverage asked for, under none). A recorder
    already installed by the caller, such as a surrounding
    ``trace.session()``, is set aside for the replay and reinstalled
    afterwards: it sees none of the replay's events, and its category
    filter or capacity cannot change a byte of the result.

    ``backend`` selects the IOMMU model for the dynamic replay. The
    default (``None`` or ``"intel-vtd"``) is the exact pre-backend
    path, byte-identical results included. Any other backend boots
    the kernel with that model under its *default invalidation mode*
    and additionally probes every site's post-unmap vulnerability
    window (Fig 6 per call site), recorded in ``window_sites`` --
    the axis cross-backend campaigns diff.

    With *base*, the base corpus's analysis (a mutator's
    :meth:`~repro.campaign.mutate.CorpusMutator.base_spade`), SPADE
    analyzes *tree* as a delta of it: the same findings, re-deriving
    only what the files that differ from the base corpus touch, with
    no cache lookup (a derived tree's entries would be unique to its
    seed). Without it, SPADE analyzes *tree* in full through the
    process-wide cache, which is what a seed does only with caching
    off and what the tests compare a delta against.
    """
    from repro import backends as backend_registry
    from repro import trace
    from repro.core.dkasan import DKasan
    from repro.core.spade import Spade, exposures_by_site
    from repro.coverage import COVERAGE_CATEGORIES, CoverageCollector
    from repro.sim.kernel import Kernel
    from repro.sim.workload import run_manifest_replay

    backend_name = backend_registry.backend_label(backend)
    spec = (backend_registry.resolve_backend(backend_name)
            if backend_name is not None else None)

    spade_labels = exposures_by_site(Spade(tree, base=base).analyze())

    collector = CoverageCollector() if coverage else None
    recorder = None
    outer = trace.uninstall()
    try:
        if trace_events > 0 or collector is not None:
            # capacity == N: the drop-oldest ring natively keeps the
            # last N events, bounding per-seed memory in big campaigns
            # (capacity 1 when the recorder exists only to stream
            # coverage -- observers see every event pre-drop)
            recorder = trace.install(trace.TraceRecorder(
                capacity=max(trace_events, 1),
                categories=COVERAGE_CATEGORIES))
            if collector is not None:
                recorder.add_observer(collector.feed)
        dkasan = DKasan(PHYS_MB << 20)
        if spec is None:
            kernel = Kernel(seed=seed, phys_mb=PHYS_MB,
                            iommu_mode="strict",
                            boot_jitter_pages=0, boot_jitter_blocks=0,
                            sink=dkasan)
            replay = run_manifest_replay(kernel, manifest)
        else:
            kernel = Kernel(seed=seed, phys_mb=PHYS_MB,
                            iommu_mode=spec.default_mode,
                            iommu_backend=spec,
                            boot_jitter_pages=0, boot_jitter_blocks=0,
                            sink=dkasan)
            replay = run_manifest_replay(kernel, manifest,
                                         probe_windows=True)
    finally:
        trace.uninstall()
        if outer is not None:
            trace.install(outer)
    dynamic_hits = dkasan.detected_site_functions()

    spade_score = DetectorScore()
    dkasan_score = DetectorScore()
    disagreements: list[Disagreement] = []
    spade_fn: list[str] = []
    dkasan_fn: list[str] = []

    site_index: dict[str, int] = defaultdict(int)
    for site in sorted(manifest.sites, key=lambda s: (s.path, s.line)):
        index = site_index[site.path]
        site_index[site.path] += 1
        predicted = spade_labels.get((site.path, site.line), frozenset())
        # SPADE: per-exposure-label scoring (the per-type columns)
        for label in predicted | site.exposures:
            if label in predicted and label in site.exposures:
                spade_score.count(label, "tp")
            elif label in predicted:
                spade_score.count(label, "fp")
            else:
                spade_score.count(label, "fn")
        spade_hit = bool(predicted)
        dkasan_hit = f"{site.path}:{site.line}" in dynamic_hits
        # D-KASAN: per-category site detection (it has no label view)
        if dkasan_hit and site.vulnerable:
            dkasan_score.count(site.category, "tp")
        elif dkasan_hit:
            dkasan_score.count(site.category, "fp")
        elif site.vulnerable:
            dkasan_score.count(site.category, "fn")
        if site.vulnerable and not spade_hit \
                and len(spade_fn) < max_exemplars:
            spade_fn.append(f"{site.path}:{site.line} "
                            f"[{','.join(sorted(site.exposures))}]")
        if site.vulnerable and not dkasan_hit \
                and len(dkasan_fn) < max_exemplars:
            dkasan_fn.append(f"{site.path}:{site.line} "
                             f"[{','.join(sorted(site.exposures))}]")
        if spade_hit == dkasan_hit:
            continue
        if site.vulnerable:
            verdict = "spade-miss" if dkasan_hit else "dkasan-miss"
        else:
            verdict = "spade-fp" if spade_hit else "dkasan-fp"
        disagreements.append(Disagreement(
            site.path, index, site.line, site.category,
            tuple(sorted(site.exposures)), tuple(sorted(predicted)),
            dkasan_hit, verdict))

    trace_tail: list[dict] = []
    if recorder is not None and disagreements:
        trace_tail = [event.to_json()
                      for event in recorder.tail(trace_events)]
    result = DifferentialResult(seed, manifest.nr_calls, spade_score,
                                dkasan_score, disagreements,
                                spade_fn, dkasan_fn, trace_tail)
    if spec is not None:
        result.backend = spec.name
        result.window_sites = dict(replay.window_sites)
    if collector is not None:
        result.coverage = collector.record(backend=backend_name)
    return result
