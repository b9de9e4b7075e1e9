"""IOMMU core: translation, permission enforcement, device access.

All device memory access in the simulation goes through
:meth:`Iommu.device_read` / :meth:`Iommu.device_write`; there is no back
door. This enforces the paper's threat model: "the actual attack is
performed solely by the DMA-capable malicious device", and the device
can only reach pages the IOMMU (including its possibly-stale IOTLB)
still translates.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import backends, trace
from repro.backends import IommuBackend
from repro.errors import DmaApiError, IommuFault
from repro.mem.accounting import NULL_SINK, MemEventSink
from repro.iommu.domain import IommuDomain, IovaEntry
from repro.iommu.invalidation import (DeferredInvalidation, InvalidationPolicy,
                                      StrictInvalidation)
from repro.iommu.iotlb import Iotlb
from repro.iommu.perms import DmaPerm
from repro.mem.phys import PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from repro.sim.clock import SimClock


@dataclass(frozen=True)
class IommuFaultRecord:
    """One logged DMA remapping fault."""

    time_us: float
    device: str
    iova: int
    write: bool
    reason: str


@dataclass
class IommuStats:
    device_reads: int = 0
    device_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    faults: int = 0
    stale_translations: int = 0


class Iommu:
    """The platform IOMMU: one domain per attached device."""

    def __init__(self, phys: PhysicalMemory, clock: SimClock, *,
                 mode: str = "deferred",
                 flush_period_us: float | None = None,
                 backend: str | IommuBackend | None = None,
                 sink: MemEventSink = NULL_SINK) -> None:
        self._phys = phys
        self._clock = clock
        self._sink = sink
        spec = backends.resolve_backend(backend)
        self.backend = spec
        # Non-default backends stamp their name on trace events so
        # per-backend runs never alias; the default emits nothing
        # extra, keeping pre-backend traces byte-identical.
        label = backends.backend_label(spec)
        self._trace_extra = {} if label is None else {"backend": label}
        self.iotlb = Iotlb(backend=spec)
        if mode == "strict":
            self.policy: InvalidationPolicy = StrictInvalidation(
                clock, self.iotlb,
                invalidation_cycles=spec.invalidation_cycles,
                trace_extra=self._trace_extra)
        elif mode == "deferred":
            period = (flush_period_us if flush_period_us is not None
                      else spec.flush_period_us)
            self.policy = DeferredInvalidation(
                clock, self.iotlb, flush_period_us=period,
                invalidation_cycles=spec.invalidation_cycles,
                granularity=spec.invalidation_granularity,
                trace_extra=self._trace_extra)
        else:
            raise ValueError(f"unknown IOMMU mode {mode!r}")
        self._domains: dict[str, IommuDomain] = {}
        self._next_domain_id = 1
        self.stats = IommuStats()
        self.fault_log: list[IommuFaultRecord] = []

    @property
    def mode(self) -> str:
        return self.policy.name

    # -- domain management ----------------------------------------------------

    def attach_device(self, device_name: str) -> IommuDomain:
        """Create (or return) the protection domain for a device."""
        domain = self._domains.get(device_name)
        if domain is None:
            domain = IommuDomain(
                self._next_domain_id, device_name,
                iova_limit=self.backend.iova_limit,
                iova_free_cache=self.backend.iova_free_cache)
            self._next_domain_id += 1
            self._domains[device_name] = domain
        return domain

    def domain_of(self, device_name: str) -> IommuDomain:
        domain = self._domains.get(device_name)
        if domain is None:
            raise DmaApiError(f"device {device_name!r} not attached")
        return domain

    # -- mapping (called by the DMA API layer) ---------------------------------

    def map_page(self, device_name: str, iova_pfn: int, pfn: int,
                 perm: DmaPerm) -> IovaEntry:
        return self.domain_of(device_name).map_page(iova_pfn, pfn, perm)

    def unmap_page(self, device_name: str, iova_pfn: int) -> IovaEntry:
        domain = self.domain_of(device_name)
        entry = domain.unmap_page(iova_pfn)
        self.policy.on_unmap(domain.domain_id, iova_pfn)
        return entry

    # -- translation ------------------------------------------------------------

    def translate(self, device_name: str, iova: int, *,
                  write: bool) -> tuple[int, bool]:
        """Translate one device access; returns (paddr, was_stale).

        Checks the IOTLB first -- faithfully including entries whose
        page-table entry has since been removed but not yet invalidated.
        On an IOTLB miss, walks the page table and fills the IOTLB.
        """
        domain = self.domain_of(device_name)
        iova_pfn = iova >> PAGE_SHIFT
        entry = self.iotlb.lookup(domain.domain_id, iova_pfn)
        stale = False
        if entry is not None:
            current = domain.lookup(iova_pfn)
            if current is None or current != entry:
                stale = True
                self.iotlb.stats.stale_hits += 1
                self.stats.stale_translations += 1
                if trace.enabled("iommu"):
                    trace.emit("iommu", "stale_hit", device=device_name,
                               iova=iova, write=write,
                               iova_pfn=iova_pfn, **self._trace_extra)
        else:
            entry = domain.lookup(iova_pfn)
            if entry is None:
                self._fault(device_name, iova, write, "no translation")
            self.iotlb.insert(domain.domain_id, entry)
        if not entry.perm.allows(write=write):
            self._fault(device_name, iova, write,
                        f"permission {entry.perm.value} denies "
                        f"{'write' if write else 'read'}")
        paddr = (entry.pfn << PAGE_SHIFT) | (iova & (PAGE_SIZE - 1))
        return paddr, stale

    def _fault(self, device: str, iova: int, write: bool, reason: str):
        self.stats.faults += 1
        self.fault_log.append(IommuFaultRecord(
            self._clock.now_us, device, iova, write, reason))
        if trace.enabled("iommu"):
            trace.emit("iommu", "fault", device=device, iova=iova,
                       write=write, reason=reason, **self._trace_extra)
        raise IommuFault(
            f"DMA {'write' if write else 'read'} fault at IOVA {iova:#x} "
            f"by {device}: {reason}", iova=iova, device=device)

    # -- device access -----------------------------------------------------------

    def device_read(self, device_name: str, iova: int, length: int) -> bytes:
        """DMA read: device pulls *length* bytes from *iova*."""
        if length < 0:
            raise ValueError(f"negative DMA read length {length}")
        out = bytearray()
        remaining = length
        cursor = iova
        while remaining > 0:
            chunk = min(remaining, PAGE_SIZE - (cursor & (PAGE_SIZE - 1)))
            paddr, stale = self.translate(device_name, cursor, write=False)
            out += self._phys.read(paddr, chunk)
            self._sink.on_device_access(paddr, chunk, False,
                                        device_name, stale)
            cursor += chunk
            remaining -= chunk
        self.stats.device_reads += 1
        self.stats.bytes_read += length
        return bytes(out)

    def device_write(self, device_name: str, iova: int, data: bytes) -> None:
        """DMA write: device pushes *data* to *iova*."""
        view = memoryview(data)
        cursor = iova
        while view.nbytes > 0:
            chunk = min(view.nbytes, PAGE_SIZE - (cursor & (PAGE_SIZE - 1)))
            paddr, stale = self.translate(device_name, cursor, write=True)
            self._phys.write(paddr, bytes(view[:chunk]))
            self._sink.on_device_access(paddr, chunk, True,
                                        device_name, stale)
            cursor += chunk
            view = view[chunk:]
        self.stats.device_writes += 1
        self.stats.bytes_written += len(data)

    def device_can_access(self, device_name: str, iova: int, *,
                          write: bool) -> bool:
        """Probe whether an access would succeed, without logging a fault."""
        domain = self.domain_of(device_name)
        iova_pfn = iova >> PAGE_SHIFT
        entry = None
        if self.iotlb.contains(domain.domain_id, iova_pfn):
            entry = self.iotlb.lookup(domain.domain_id, iova_pfn)
        if entry is None:
            entry = domain.lookup(iova_pfn)
        return entry is not None and entry.perm.allows(write=write)
