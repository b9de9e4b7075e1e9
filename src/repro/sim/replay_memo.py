"""An exact memo for the default manifest replay.

:func:`repro.sim.workload.run_manifest_replay` replays every manifest
call site the same way: one page-sized kmalloc object, one or two DMA
windows over it (the site's *map plan*), their unmaps, the kfree. On
the default path -- strict invalidation, the default backend, no window
probes, no armed fault site, no pending timer, a D-KASAN sink -- each
site is alone on one recycled slab page. What it does is then a
function of its map plan and of a small fingerprint of the state it
starts from: the device's IOVA allocator, the kmalloc-4096 cache, the
live mapping and object counts, and the IOTLB occupancy. A seed's ~100
sites fall into a handful of (plan, fingerprint) pairs.

The first site of a pair runs for real while :class:`ReplayMemo`
records its delta: the trace events (with the site string,
``trigger_seq`` and ``kva`` made relative), the ``charge_cycles``
calls between them, the D-KASAN findings, the counter deltas, and the
IOVA free lists it leaves. A later site of the same pair applies that
delta with its own site string. Its events go through the recorder's
``emit_args``, so the ring, the sequence numbers and the coverage
observer see what the full path would have shown them, and replaying
the same charges keeps every float timestamp bit-identical. A site
that touches what a delta cannot express (the buddy allocator, fresh
IOVA space, a cached IOTLB entry, a mapping or object that outlives
it) is never memoized.

The deltas and the interned fingerprints outlive the replay: one
module-level table per kernel shape (the device and its IOMMU domain,
physical memory, CPU count, and which trace categories a recorder
keeps, or none) serves every replay of the process, so a campaign's
seeds re-record nothing an earlier seed recorded. A stored delta
holds nothing of the kernel that recorded it: counters are slot
indices, and a ``kva`` is an offset from the direct map's base, the
one thing KASLR moves between seeds. IOVAs, pfns, charges and counter
deltas are equal across same-shape kernels, and a fingerprint says
the rest.

The memo reads and writes allocator internals on purpose. That is why
it lives beside the replay, and why a differential test holds it equal
to the full replay.
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager

from repro import faults, trace
from repro.backends import backend_label
from repro.core.dkasan.sanitizer import DKasan, DKasanEvent
from repro.dma.api import DmaApi
from repro.iommu.invalidation import StrictInvalidation
from repro.mem.phys import PAGE_SIZE


def _default_path(kernel, probe_windows: bool) -> bool:
    """Whether a replay on *kernel* takes the path the memo is exact
    on."""
    return (not probe_windows and not faults.active_sites
            and type(kernel.sink) is DKasan
            and type(kernel.dma) is DmaApi
            and type(kernel.iommu.policy) is StrictInvalidation
            and backend_label(kernel.iommu.backend) is None
            and not kernel.clock._timers)


def memo_for(kernel, device_name: str,
             probe_windows: bool) -> "ReplayMemo | None":
    """A memo for one replay call, or None off the default path."""
    if not _default_path(kernel, probe_windows):
        return None
    return ReplayMemo(kernel, device_name)


class _Table:
    """Deltas and interned fingerprints of one kernel shape."""

    __slots__ = ("deltas", "state_ids", "fingerprints")

    def __init__(self) -> None:
        #: (plan, state id) -> the delta recorded from that state
        self.deltas: dict[tuple, _Delta] = {}
        self.state_ids: dict[tuple, int] = {}
        self.fingerprints: list[tuple] = []


#: kernel shape -> its table, for the life of the process
_TABLES: dict[tuple, _Table] = {}

#: a table that has interned more states than this is started afresh
#: by the next replay: a campaign visits a handful, so only an odd
#: workload ever gets there
_MAX_STATES = 4096


@dataclasses.dataclass(frozen=True, slots=True)
class _Delta:
    """What one site did, with its site string taken out."""

    #: in order: an int is one ``charge_cycles`` call, a tuple is one
    #: event ``(category, name, phase, args, stamps)``. *stamps* is
    #: None or ``(site_keys, list_keys, trigger)``: the args that hold
    #: the site string, the list args each event gets a copy of, and
    #: ``trigger_seq`` relative to the site's first sequence number
    ops: tuple
    #: D-KASAN findings as ``(kind, size, perms, site, pfn, device)``;
    #: *site* None stands for the replayed site
    findings: tuple
    #: ``(slot, attribute, delta)`` for every counter that moved, where
    #: *slot* indexes :attr:`ReplayMemo._counter_slots`
    counters: tuple
    #: the IOVA allocator's free lists after the site
    free: tuple
    #: the state id after the site
    post: int


def _template(event, site_str: str, start: int, kva_base: int) -> tuple:
    """A recorded trace event as a :attr:`_Delta.ops` entry; *start* is
    the sequence number of the site's first event, *kva_base* the
    recording kernel's direct-map base."""
    args = dict(event.args)
    site_keys = tuple(key for key, value in args.items()
                      if value == site_str)
    list_keys = tuple(key for key, value in args.items()
                      if value.__class__ is list)
    trigger = None
    if "trigger_seq" in args:
        # last_seq() is None only before the first event, i.e. at -1
        seq = args["trigger_seq"]
        trigger = (-1 if seq is None else seq) - start
    relative_kva = "kva" in args
    if relative_kva:
        args["kva"] -= kva_base
    stamps = (site_keys, list_keys, trigger, relative_kva) \
        if site_keys or list_keys or trigger is not None or relative_kva \
        else None
    return event.category, event.name, event.phase, args, stamps


class ReplayMemo:
    """The memo for one :func:`run_manifest_replay` call, over the
    table of its kernel's shape; see the module docstring."""

    def __init__(self, kernel, device_name: str) -> None:
        iommu = kernel.iommu
        domain = iommu.domain_of(device_name)
        self._clock = kernel.clock
        self._dkasan = kernel.sink
        self._recorder = recorder = trace.active()
        self._kva_base = kernel.addr_space.kva_of_paddr(0)
        self._buddy = kernel.buddy
        self._cache = kernel.slab._caches[PAGE_SIZE]
        self._iova = domain.iova_allocator
        self._iotlb = iommu.iotlb
        self._slab = kernel.slab
        self._registry = kernel.dma.registry
        self._counter_slots = (
            (kernel.slab, "nr_kmallocs"), (kernel.slab, "nr_kfrees"),
            (self._registry, "last_id"), (self._registry, "nr_added"),
            (self._registry, "nr_removed"),
            *((stats, field.name)
              for stats in (iommu.stats, iommu.policy.stats,
                            iommu.iotlb.stats)
              for field in dataclasses.fields(stats)))
        self._counters = tuple(vars(obj) for obj, _ in self._counter_slots)
        shape = (device_name, domain.domain_id, kernel.phys.size_bytes,
                 kernel.nr_cpus,
                 None if recorder is None
                 else recorder.categories or frozenset(trace.CATEGORIES))
        table = _TABLES.get(shape)
        if table is None or len(table.fingerprints) > _MAX_STATES:
            table = _TABLES[shape] = _Table()
        self._deltas = table.deltas
        self._state_ids = table.state_ids
        self._fingerprints = table.fingerprints
        self._state = self._state_id()

    # -- state ----------------------------------------------------------

    def _state_id(self) -> int:
        """Intern the current fingerprint as a small int."""
        iova = self._iova
        cache = self._cache
        fingerprint = (
            tuple((pages, tuple(bases))
                  for pages, bases in iova._free.items()),
            iova._next_top, len(iova._live),
            tuple((slab.base_pfn, slab.freelist_head_paddr, slab.inuse)
                  for slab in cache.partial),
            len(cache.full), self._registry.nr_live,
            self._slab.nr_live_objects, self._iotlb.nr_entries)
        state = self._state_ids.get(fingerprint)
        if state is None:
            state = self._state_ids[fingerprint] = len(self._fingerprints)
            self._fingerprints.append(fingerprint)
        return state

    # -- the two paths --------------------------------------------------

    def replay(self, plan: tuple, site) -> bool:
        """Apply the delta recorded for *plan* from the current state,
        stamped with *site*; False when there is none yet."""
        delta = self._deltas.get((plan, self._state))
        if delta is None:
            return False
        site_str = str(site)
        recorder = self._recorder
        charge = self._clock.charge_cycles
        start = recorder.nr_emitted if recorder is not None else 0
        for op in delta.ops:
            if op.__class__ is int:
                charge(op)
                continue
            category, name, phase, base, stamps = op
            args = base.copy()
            if stamps is not None:
                site_keys, list_keys, trigger, relative_kva = stamps
                for key in site_keys:
                    args[key] = site_str
                for key in list_keys:
                    args[key] = list(base[key])
                if trigger is not None:
                    seq = start + trigger
                    args["trigger_seq"] = seq if seq >= 0 else None
                if relative_kva:
                    args["kva"] += self._kva_base
            recorder.emit_args(category, name, phase, args)
        events = self._dkasan.events
        for kind, size, perms, where, pfn, device in delta.findings:
            events.append(DKasanEvent(kind, size, perms,
                                      site if where is None else where,
                                      pfn, device))
        counters = self._counters
        for slot, attr, change in delta.counters:
            counters[slot][attr] += change
        free = self._iova._free
        for pages, bases in delta.free:
            free[pages] = list(bases)
        self._state = delta.post
        return True

    @contextmanager
    def recording(self, plan: tuple, site):
        """Record the delta of the site the ``with`` body replays for
        real, if it is one a later site can apply."""
        clock = self._clock
        recorder = self._recorder
        ops: list = []
        observe = ops.append
        charge = clock.charge_cycles

        def charge_and_record(cycles: int) -> None:
            ops.append(cycles)
            charge(cycles)

        # an instance attribute shadows SimClock.charge_cycles, so the
        # invalidation policy's charges land in ops in event order
        clock.charge_cycles = charge_and_record
        if recorder is not None:
            recorder.add_observer(observe)
        start = recorder.nr_emitted if recorder is not None else 0
        counters = [getattr(obj, attr)
                    for obj, attr in self._counter_slots]
        nr_findings = len(self._dkasan.events)
        buddy = self._buddy.nr_allocs, self._buddy.nr_frees
        try:
            yield
        finally:
            del clock.charge_cycles
            if recorder is not None:
                recorder.remove_observer(observe)
        pre = self._state
        self._state = self._state_id()
        pre_print = self._fingerprints[pre]
        post_print = self._fingerprints[self._state]
        # the IOVA free lists (the first field) are in the delta; all
        # else must come back as it was, with the IOTLB empty and the
        # buddy allocator untouched
        if pre_print[1:] != post_print[1:] or post_print[-1] \
                or buddy != (self._buddy.nr_allocs, self._buddy.nr_frees):
            return
        site_str = str(site)
        templates = tuple(op if op.__class__ is int
                          else _template(op, site_str, start,
                                         self._kva_base)
                          for op in ops)
        findings = tuple(
            (event.kind, event.size, event.perms,
             None if event.site == site else event.site, event.pfn,
             event.device)
            for event in self._dkasan.events[nr_findings:])
        deltas = tuple(
            (slot, attr, getattr(obj, attr) - before)
            for slot, ((obj, attr), before)
            in enumerate(zip(self._counter_slots, counters))
            if getattr(obj, attr) != before)
        self._deltas[(plan, pre)] = _Delta(
            templates, findings, deltas, post_print[0], self._state)
