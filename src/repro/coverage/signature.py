"""Deterministic coverage signatures derived from trace events.

A **coverage signature** is a sparse feature vector plus a stable
digest, computed from the flight-recorder events one dynamic replay
emitted. Features are strings ``<group>/<detail>`` so reports can
aggregate by subsystem; every count is a pure function of the replayed
(seed, backend) pair, which is what makes the signature a safe
campaign-wide identity: the same seed on the same backend produces a
byte-identical ``coverage`` record whether it ran inline, in a warm
worker, in a shard, or under a recoverable tooling-fault plan.

Feature groups:

* ``dma/``, ``iommu/``, ``dkasan/`` -- raw (category, event-name)
  occurrence counts from the replay's trace stream;
* ``site/`` -- D-KASAN findings keyed by their allocation site
  (``site/<kind>@<path:line>``), the per-call-site axis the
  differential oracle scores;
* ``iotlb/`` -- IOTLB state transitions: stale read/write hits
  (hit-then-stale), and per-drain victim/batch classes bucketed
  power-of-two (``iotlb/drain-drop:bK``, ``iotlb/drain-batch:bK``);
* ``window/`` -- deferred-invalidation window widths bucketed
  power-of-two microseconds (``window/bK``), with strict-mode
  synchronous invalidations as ``window/sync`` (zero-width).

The collector is **streaming**: it observes every event the recorder
emits (via :meth:`TraceRecorder.add_observer`), so the signature never
depends on the ring capacity or on which old events the drop-oldest
ring discarded -- ``--trace-events 0`` and ``--trace-events 64`` yield
the same coverage. It runs once per replayed tracepoint, so it formats
each ``<category>/<name>`` and ``site/<kind>@<site>`` string once per
distinct key and looks it up after that.
"""

from __future__ import annotations

import hashlib
import json

#: trace categories a coverage signature is derived from. "fault" is
#: deliberately excluded so recoverable tooling-fault plans cannot
#: perturb the signature; "net"/"mem" are excluded to match the
#: campaign replay recorder (and keep per-seed vectors small).
COVERAGE_CATEGORIES = ("dma", "iommu", "dkasan")

#: bump when the feature derivation changes incompatibly
SIGNATURE_VERSION = 1


def _bucket(value: float) -> int:
    """Power-of-two bucket index, same convention as trace histograms:
    bucket *i* holds values in ``[2**(i-1), 2**i)``; bucket 0 holds
    values below 1 (including 0 and negatives)."""
    if value >= 1:
        return int(value).bit_length()
    return 0


def coverage_lane(backend) -> str:
    """The CoverageMap lane a run lands in: the resolved backend name,
    with the default (``None``/``"intel-vtd"``) normalized to
    ``"intel-vtd"`` so explicit and implicit default runs share one
    lane (the same normalization ``findings_digest`` relies on)."""
    from repro import backends as backend_registry
    return backend_registry.backend_label(backend) or "intel-vtd"


class CoverageCollector:
    """Streaming feature accumulator over one replay's trace events.

    Feed it every emitted :class:`~repro.trace.recorder.TraceEvent`
    (``recorder.add_observer(collector.feed)``), then call
    :meth:`record` once the replay finished.
    """

    def __init__(self) -> None:
        self.nr_events = 0
        self._counts: dict[str, int] = {}
        #: feature strings, formatted once per distinct key: category
        #: -> name -> "<category>/<name>" (a category missing here is
        #: not a coverage category), and (kind, site) ->
        #: "site/<kind>@<site>"
        self._event_features: dict[str, dict[str, str]] = {
            category: {} for category in COVERAGE_CATEGORIES}
        self._site_features: dict[tuple[str, str], str] = {}
        #: open fq_defer timestamps awaiting their drain
        self._pending_defers: list[float] = []

    def _add(self, feature: str, delta: int = 1) -> None:
        self._counts[feature] = self._counts.get(feature, 0) + delta

    def feed(self, event) -> None:
        """Observe one trace event (the recorder observer hook)."""
        category = event.category
        features = self._event_features.get(category)
        if features is None:
            return
        self.nr_events += 1
        name = event.name
        feature = features.get(name)
        if feature is None:
            feature = features[name] = f"{category}/{name}"
        counts = self._counts
        counts[feature] = counts.get(feature, 0) + 1
        if category == "dma":
            return
        args = event.args
        if category == "dkasan":
            site = args.get("site")
            if site:
                key = (name, site)
                feature = self._site_features.get(key)
                if feature is None:
                    feature = self._site_features[key] = \
                        f"site/{name}@{site}"
                counts[feature] = counts.get(feature, 0) + 1
            return
        # category == "iommu"
        if name == "inv_sync":
            counts["window/sync"] = counts.get("window/sync", 0) + 1
        elif name == "fq_defer":
            self._pending_defers.append(event.ts_us)
        elif name == "stale_hit":
            kind = "stale-write" if args.get("write") else "stale-read"
            self._add(f"iotlb/{kind}")
        elif name == "fq_drain":
            # a drain retires every pending defer (one global flush
            # per batch): each closed window is one pow-2 bucket hit
            for ts in self._pending_defers:
                self._add(f"window/b{_bucket(event.ts_us - ts)}")
            self._pending_defers.clear()
            self._add(f"iotlb/drain-drop:"
                      f"b{_bucket(args.get('iotlb_dropped', 0))}")
            self._add(f"iotlb/drain-batch:"
                      f"b{_bucket(args.get('nr_pending', 0))}")

    @property
    def features(self) -> dict[str, int]:
        """The sparse feature vector accumulated so far."""
        return dict(self._counts)

    def record(self, *, backend=None) -> dict:
        """The per-seed ``coverage`` record attached to JSONL results."""
        return coverage_record(self._counts, backend=backend)


def coverage_digest(features: dict[str, int], *, backend=None) -> str:
    """Hex SHA-256 over the canonical (backend, feature-vector) pair.

    Backend-aware: the same behavior on a different IOMMU model hashes
    differently, so cross-backend maps never alias lanes.
    """
    body = json.dumps({"backend": coverage_lane(backend),
                       "features": features,
                       "v": SIGNATURE_VERSION},
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def coverage_record(features: dict[str, int], *, backend=None) -> dict:
    return {
        "digest": coverage_digest(features, backend=backend),
        "nr_features": len(features),
        "features": {name: features[name] for name in sorted(features)},
    }


def feature_group(feature: str) -> str:
    """The subsystem prefix of a feature (``"dkasan/..."`` ->
    ``"dkasan"``); features with no slash group as ``"other"``."""
    group, _, rest = feature.partition("/")
    return group if rest else "other"
