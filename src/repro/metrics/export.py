"""Deterministic exporters: Prometheus text, JSON and ``/proc`` text.

Every exporter is a pure function of the registry contents -- no
wall-clock timestamps, no iteration-order dependence -- so two
same-seed workload runs produce byte-identical output (the same
property trace JSONL has, pinned by tests/test_metrics.py).
"""

from __future__ import annotations

from repro.metrics.registry import MetricsRegistry, Sample

#: Prefix every exported family so scrapes from multiple simulations
#: can coexist in one Prometheus server.
PREFIX = "repro"


def _format_value(value: int | float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _escape_label(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_block(labels: dict, extra: dict | None = None) -> str:
    items = dict(labels)
    if extra:
        items.update(extra)
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(str(v))}"'
                    for k, v in sorted(items.items()))
    return "{" + body + "}"


def _family_name(sample: Sample) -> str:
    name = f"{PREFIX}_{sample.subsystem}_{sample.name}"
    if sample.kind == "counter" and not name.endswith("_total"):
        name += "_total"
    return name


def _bucket_boundaries(histogram) -> list[tuple[int, str]]:
    """Upper bounds for every populated pow-2 bucket, cumulative-ready."""
    if not histogram.buckets:
        return []
    top = max(histogram.buckets)
    return [(i, "1" if i == 0 else str(1 << i)) for i in range(top + 1)]


def prometheus_text(registry: MetricsRegistry, *,
                    collect: bool = True) -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: list[str] = []
    seen_families: set[str] = set()
    for sample in registry.samples(collect=collect):
        family = _family_name(sample)
        if family not in seen_families:
            seen_families.add(family)
            kind = ("counter" if sample.kind == "counter"
                    else "histogram" if sample.kind == "histogram"
                    else "gauge")
            lines.append(f"# TYPE {family} {kind}")
        if sample.kind == "histogram":
            hist = sample.histogram
            cumulative = 0
            for index, le in _bucket_boundaries(hist):
                cumulative += hist.buckets.get(index, 0)
                lines.append(
                    f"{family}_bucket"
                    f"{_label_block(sample.labels, {'le': le})} "
                    f"{cumulative}")
            lines.append(
                f"{family}_bucket"
                f"{_label_block(sample.labels, {'le': '+Inf'})} "
                f"{hist.count}")
            lines.append(f"{family}_sum{_label_block(sample.labels)} "
                         f"{_format_value(hist.total)}")
            lines.append(f"{family}_count{_label_block(sample.labels)} "
                         f"{hist.count}")
        else:
            lines.append(f"{family}{_label_block(sample.labels)} "
                         f"{_format_value(sample.value)}")
    return "\n".join(lines) + ("\n" if lines else "")


def json_record(registry: MetricsRegistry, *, collect: bool = True,
                seed: int | None = None) -> dict:
    """A JSON-serializable snapshot of every instrument."""
    metrics = []
    for sample in registry.samples(collect=collect):
        record = {
            "subsystem": sample.subsystem,
            "name": sample.name,
            "kind": sample.kind,
            "labels": sample.labels,
        }
        if sample.kind == "histogram":
            record["histogram"] = sample.histogram.to_json()
        else:
            record["value"] = sample.value
        metrics.append(record)
    doc = {"schema": "repro.metrics/1", "metrics": metrics}
    if seed is not None:
        doc["seed"] = seed
    return doc


def sample_key(sample: Sample) -> str:
    """``name{key=value,...}``: a sample's row in :func:`proc_text`
    and its counter name in ``repro-dma trace`` exports."""
    labels = ",".join(f"{key}={value}" for key, value
                      in sorted(sample.labels.items()))
    return f"{sample.name}{{{labels}}}" if labels else sample.name


def proc_text(registry: MetricsRegistry, *, collect: bool = True) -> str:
    """Render the registry as ``/proc``-style stat blocks: one
    ``subsystem:`` header per subsystem, then one ``name{labels}:
    value`` row per instrument (a histogram shows its count and sum)."""
    samples = registry.samples(collect=collect)
    keys = [sample_key(sample) for sample in samples]
    width = max((len(key) for key in keys), default=0) + 2
    lines: list[str] = []
    subsystem = None
    for sample, key in zip(samples, keys):
        if sample.subsystem != subsystem:
            subsystem = sample.subsystem
            lines.append(f"{subsystem}:")
        if sample.kind == "histogram":
            hist = sample.histogram
            value = f"count={hist.count} sum={_format_value(hist.total)}"
        else:
            value = _format_value(sample.value)
        lines.append(f"{key + ':':<{width}}{value:>12}")
    return "\n".join(lines) + ("\n" if lines else "")
