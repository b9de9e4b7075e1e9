"""repro.backends: pluggable multi-IOMMU backend models.

A backend is a frozen :class:`~repro.backends.spec.IommuBackend`
describing one hardware model's IOTLB geometry, invalidation
granularity and cost, deferred-flush cadence, and IOVA-allocator
quirks. The registry ships four models:

* ``intel-vtd`` -- the paper's platform; the default. Its parameters
  are the constants the simulator used before backends existed, so
  runs with the flag omitted (or set to ``intel-vtd``) reproduce all
  pre-backend digests, traces, and exports byte-identically.
* ``arm-smmuv3`` -- set-associative TLB, ranged TLBI drains.
* ``amd-vi`` -- FIFO IOTLB, slower domain-wide drains, no IOVA reuse.
* ``virtio-iommu`` -- paravirtual, synchronous unmaps, no window.

Every ``--backend`` consumer resolves names through
:func:`get_backend`, so an unknown name produces one shared
:class:`~repro.errors.BackendError` (CLI exit 2).
"""

from __future__ import annotations

from repro.backends.models import (ALL_BACKENDS, AMD_VI, ARM_SMMUV3,
                                   INTEL_VTD, VIRTIO_IOMMU)
from repro.backends.spec import (INVALIDATION_GRANULARITIES,
                                 INVALIDATION_MODES, IommuBackend,
                                 REPLACEMENT_POLICIES)
from repro.errors import BackendError

#: Name of the backend used when no ``--backend`` is given anywhere.
DEFAULT_BACKEND_NAME = INTEL_VTD.name

#: The default backend spec (the paper's Intel VT-d model).
DEFAULT_BACKEND = INTEL_VTD

_REGISTRY: dict[str, IommuBackend] = {
    backend.name: backend for backend in ALL_BACKENDS}


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> IommuBackend:
    """Look a backend up by name; raises :class:`BackendError`."""
    backend = _REGISTRY.get(name)
    if backend is None:
        choices = ", ".join(backend_names())
        raise BackendError(
            f"unknown IOMMU backend {name!r} (choose from {choices})")
    return backend


def resolve_backend(value: str | IommuBackend | None) -> IommuBackend:
    """Coerce ``None`` / a name / a spec to a spec.

    ``None`` means "the default": the Intel VT-d model whose behavior
    is byte-identical to the pre-backend simulator.
    """
    if value is None:
        return DEFAULT_BACKEND
    if isinstance(value, IommuBackend):
        return value
    return get_backend(value)


def backend_label(value: str | IommuBackend | None) -> str | None:
    """The name to stamp on records/metrics/traces, or ``None``.

    Default-backend runs return ``None`` so their artifacts carry no
    backend annotations at all -- that is what keeps pre-backend
    digests, Prometheus exports, and BENCH signatures byte-identical.
    """
    spec = resolve_backend(value)
    return None if spec.name == DEFAULT_BACKEND_NAME else spec.name


def parse_backends(csv: str) -> list[str]:
    """Parse a ``--backends a,b,...`` list into validated names.

    Raises :class:`BackendError` for unknown names, duplicates, or
    fewer than two distinct backends (a cross-backend differential
    needs something to differ).
    """
    names = [name.strip() for name in csv.split(",") if name.strip()]
    seen: list[str] = []
    for name in names:
        canonical = get_backend(name).name
        if canonical in seen:
            raise BackendError(
                f"duplicate backend {canonical!r} in --backends")
        seen.append(canonical)
    if len(seen) < 2:
        raise BackendError(
            "--backends needs at least two distinct backends "
            f"(got {csv!r})")
    return seen


__all__ = [
    "ALL_BACKENDS", "AMD_VI", "ARM_SMMUV3", "BackendError",
    "DEFAULT_BACKEND", "DEFAULT_BACKEND_NAME", "INTEL_VTD",
    "INVALIDATION_GRANULARITIES", "INVALIDATION_MODES", "IommuBackend",
    "REPLACEMENT_POLICIES", "VIRTIO_IOMMU", "backend_label",
    "backend_names", "get_backend", "parse_backends", "resolve_backend",
]
