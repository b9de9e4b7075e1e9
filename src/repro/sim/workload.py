"""Synthetic workloads.

The D-KASAN evaluation (section 4.2) "cloned a large project from a
Git repository and compiled it concurrently with light network traffic
(i.e., ICMP ping)". :func:`run_compile_and_ping` reproduces that mix:
a stream of short-lived kernel allocations from the code paths the
paper's Figure 3 names (``load_elf_phdrs``, ``sock_alloc_inode``,
``assoc_array_insert``, ...) interleaved with echo round-trips that
keep DMA mappings churning over the same slab and page_frag pages.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro import faults
from repro.errors import OutOfMemoryError
from repro.mem.accounting import NULL_SINK, AllocSite
from repro.mem.phys import PAGE_SIZE
from repro.net.proto import PROTO_UDP, make_packet
from repro.net.stack import ECHO_PORT

#: failures a real kernel path absorbs: allocation failure (the NULL
#: path) and a DMA mapping error injected by the fault engine
_RECOVERABLE = (OutOfMemoryError, faults.InjectedDmaMapError)

if TYPE_CHECKING:
    from repro.net.nic import Nic
    from repro.sim.kernel import Kernel

#: (size, allocating site) pairs modeled on Figure 3 and common
#: kernel paths exercised by an exec+compile workload.
COMPILE_ALLOC_SITES: tuple[tuple[int, AllocSite], ...] = (
    (512, AllocSite("load_elf_phdrs", 0xBF, 0x130)),
    (512, AllocSite("__do_execve_file.isra.0", 0x287, 0x1080)),
    (64, AllocSite("sock_alloc_inode", 0x4F, 0x120)),
    (328, AllocSite("assoc_array_insert", 0xA9, 0x7E0)),
    (256, AllocSite("getname_flags", 0x4F, 0x1E0)),
    (192, AllocSite("alloc_pipe_info", 0x66, 0x150)),
    (1024, AllocSite("seq_read", 0x9C, 0x4A0)),
    (96, AllocSite("single_open", 0x2E, 0xA0)),
)


@dataclass
class WorkloadStats:
    allocations: int = 0
    frees: int = 0
    pings: int = 0
    echoes: int = 0
    cpu_accesses: int = 0
    faults_recovered: int = 0


def pump_device(nic: "Nic", *, cpu: int = 0) -> int:
    """An honest device: fetch pending TX, complete, let kernel clean."""
    fetched = nic.device_fetch_tx(cpu=cpu, complete=True)
    nic.tx_clean(cpu=cpu)
    return len(fetched)


def run_compile_and_ping(kernel: "Kernel", nic: "Nic", *,
                         rounds: int = 40, cpu: int = 0) -> WorkloadStats:
    """Compile-like allocation churn under light echo traffic.

    The interleaving is what produces the paper's dynamic exposures:
    compile-path objects land on slab pages some of whose neighbours
    are DMA-mapped skb data buffers (alloc-after-map /
    map-after-alloc), the CPU touches mapped buffers while copying
    payloads (access-after-map), and TX fragments share page_frag
    pages with still-mapped RX buffers (multiple-map).
    """
    rng = kernel.rng.child("workload")
    stats = WorkloadStats()
    live: list[int] = []
    ctrl_maps: list[tuple[int, int]] = []  # (iova, kva) awaiting unmap
    for round_no in range(rounds):
        # A burst of compile-path allocations...
        for _ in range(rng.randint(2, 5)):
            size, site = rng.choice(COMPILE_ALLOC_SITES)
            try:
                kva = kernel.slab.kmalloc(size, cpu=cpu, site=site)
            except OutOfMemoryError:
                # the compile-path caller sees NULL and retries later
                stats.faults_recovered += 1
                continue
            # objects carry pointers (namespaces, ops tables), exactly
            # what makes their exposure dangerous
            kernel.cpu_write(kva, kernel.init_net_address()
                             .to_bytes(8, "little"), site=site)
            stats.allocations += 1
            stats.cpu_accesses += 1
            live.append(kva)
        # ...some frees (short object lifetimes)...
        while len(live) > 24:
            index = rng.randint(0, len(live) - 1)
            kernel.slab.kfree(live.pop(index))
            stats.frees += 1
        # ...a ping: small echo round trip...
        ping = make_packet(dst_ip=0x0A00_0001, dst_port=ECHO_PORT,
                           proto=PROTO_UDP, flow_id=0x1000 + round_no,
                           payload=b"ping-%03d" % round_no)
        try:
            if nic.device_receive(ping, cpu=cpu):
                stats.pings += 1
                nic.napi_poll(cpu=cpu)
                kernel.stack.process_backlog()
                stats.echoes += pump_device(nic, cpu=cpu)
        except _RECOVERABLE:
            # skb or echo allocation failed mid-delivery: the packet
            # is lost, the stack stays consistent
            stats.faults_recovered += 1
        # ...a periodic driver control command: a kmalloc-512 buffer is
        # DMA-mapped for a couple of rounds, exposing whatever
        # compile-path objects share its slab page (type (d))...
        if round_no % 4 == 1:
            try:
                ctrl_kva = kernel.slab.kmalloc(
                    448, cpu=cpu, site=AllocSite("mlx5_cmd_exec", 0x11C,
                                                 0x5B0))
            except OutOfMemoryError:
                ctrl_kva = None
                stats.faults_recovered += 1
            if ctrl_kva is not None:
                try:
                    iova = kernel.dma.dma_map_single(
                        nic.name, ctrl_kva, 448, "DMA_TO_DEVICE",
                        site=AllocSite("mlx5_cmd_exec", 0x148, 0x5B0))
                except faults.InjectedDmaMapError:
                    kernel.slab.kfree(ctrl_kva)
                    stats.faults_recovered += 1
                else:
                    ctrl_maps.append((iova, ctrl_kva))
        if len(ctrl_maps) > 2:
            iova, ctrl_kva = ctrl_maps.pop(0)
            kernel.dma.dma_unmap_single(nic.name, iova, 448,
                                        "DMA_TO_DEVICE")
            kernel.slab.kfree(ctrl_kva)
        # ...and occasionally a bulk send, whose payload copy touches a
        # page_frag page that may still back a mapped RX buffer.
        if round_no % 5 == 4:
            try:
                kernel.stack.send(b"B" * 1200, dst_ip=0x0A00_0002,
                                  nic=nic, flow_id=0x2000 + round_no,
                                  cpu=cpu)
            except _RECOVERABLE:
                stats.faults_recovered += 1
            pump_device(nic, cpu=cpu)
        kernel.advance_time_us(250.0)
    for iova, ctrl_kva in ctrl_maps:
        kernel.dma.dma_unmap_single(nic.name, iova, 448, "DMA_TO_DEVICE")
        kernel.slab.kfree(ctrl_kva)
    for kva in live:
        kernel.slab.kfree(kva)
        stats.frees += 1
    return stats


@dataclass
class ReplayStats:
    sites_replayed: int = 0
    maps: int = 0
    sub_page_maps: int = 0
    window_probes: int = 0
    windows_open: int = 0
    #: "path:line" -> window observed open
    window_sites: dict = field(default_factory=dict)
    memo_hits: int = 0  # sites whose recorded delta was applied


#: map plans, as (offset, length) windows of the site's page-sized
#: object: the whole object, one sub-window, or two (``type_c``)
_FULL_PAGE = ((0, PAGE_SIZE),)
_SUB_PAGE = ((PAGE_SIZE // 4, PAGE_SIZE // 4),)
_TYPE_C = (*_SUB_PAGE, (PAGE_SIZE // 2, PAGE_SIZE // 4))


def _map_plan(site) -> tuple[tuple[int, int], ...]:
    if not site.vulnerable or site.exposures == frozenset({"stack"}):
        return _FULL_PAGE
    return _TYPE_C if "type_c" in site.exposures else _SUB_PAGE


def run_manifest_replay(kernel: "Kernel", manifest, *,
                        device_name: str = "camp0",
                        max_sites: int | None = None,
                        probe_windows: bool = False,
                        probe_delay_us: float = 250.0,
                        cpu: int = 0) -> ReplayStats:
    """Drive the kernel through every dma-map call site of a corpus
    manifest, so D-KASAN sees the same population SPADE analyzed.

    Each :class:`~repro.corpus.manifest.CallSiteTruth` is replayed as a
    page-sized slab object whose alloc site encodes the manifest
    identity (``path:line``); the mapping shape follows the site's
    ground-truth category:

    * vulnerable struct/skb/page_frag sites map a *sub-range* of the
      object, so the rest of the object is a co-located bystander on a
      device-visible page -- D-KASAN's ``map-after-alloc`` signal;
    * ``type_c`` sites additionally map a second overlapping window
      (page_frag chunk sharing), adding ``multiple-map``;
    * ``stack`` sites map the full page: the kernel stack is not an
      allocator-tracked object, so a runtime allocator sanitizer is
      structurally blind to them (SPADE-only territory);
    * benign sites map exactly their buffer, which is the one shape
      the DMA API makes safe at page granularity.

    Objects are unmapped and freed site-by-site, keeping replays
    independent of ordering and of physical page reuse -- which is what
    lets :mod:`repro.sim.replay_memo` replay most sites from a delta
    recorded on an earlier one.

    With ``probe_windows`` the replay additionally measures each
    site's post-unmap vulnerability window (Fig 6, per call site): the
    device touches the mapping while live (filling the IOTLB), then --
    ``probe_delay_us`` after the unmap -- probes whether the cached
    translation still answers. Strict invalidation closes every
    window; deferred invalidation leaves it open until the backend's
    flush timer drains. The probe uses the non-faulting
    :meth:`~repro.iommu.iommu.Iommu.device_can_access` path, so it
    perturbs no D-KASAN verdicts; the clock advance is what lets
    backend-specific flush cadences produce *different* per-site
    window maps -- the cross-backend disagreement signal.
    """
    from repro.errors import IommuFault
    from repro.sim import replay_memo

    kernel.iommu.attach_device(device_name)
    memo = replay_memo.memo_for(kernel, device_name, probe_windows)
    stats = ReplayStats()
    for site in manifest.sites:
        if max_sites is not None and stats.sites_replayed >= max_sites:
            break
        alloc_site = AllocSite(f"{site.path}:{site.line}")
        plan = _map_plan(site)
        stats.sites_replayed += 1
        stats.maps += len(plan)
        stats.sub_page_maps += plan is not _FULL_PAGE
        if memo is not None and memo.replay(plan, alloc_site):
            stats.memo_hits += 1
            continue
        with memo.recording(plan, alloc_site) if memo is not None \
                else nullcontext():
            kva = kernel.slab.kmalloc(PAGE_SIZE, cpu=cpu, site=alloc_site)
            iovas = [(kernel.dma.dma_map_single(
                device_name, kva + offset, map_len, "DMA_FROM_DEVICE",
                site=alloc_site), map_len) for offset, map_len in plan]
            if probe_windows:
                # Warm the IOTLB: translations are cached on use, not
                # at map time, and a stale window needs a cached entry.
                try:
                    kernel.iommu.device_write(device_name, iovas[0][0],
                                              b"\x00" * 8)
                except IommuFault:
                    pass
            for iova, map_len in iovas:
                kernel.dma.dma_unmap_single(device_name, iova, map_len,
                                            "DMA_FROM_DEVICE")
            if probe_windows:
                kernel.advance_time_us(probe_delay_us)
                open_ = kernel.iommu.device_can_access(
                    device_name, iovas[0][0], write=True)
                stats.window_probes += 1
                stats.windows_open += open_
                stats.window_sites[alloc_site.function] = open_
            kernel.slab.kfree(kva)
    return stats


@dataclass
class StorageWorkloadStats:
    commands: int = 0
    bytes_transferred: int = 0
    faults_recovered: int = 0


def run_storage_workload(kernel: "Kernel", *, device_name: str = "nvme0",
                         commands: int = 48,
                         cpu: int = 0) -> StorageWorkloadStats:
    """An NVMe-flavoured command loop: per-command struct-embedded
    response buffers (the nvme_fc pattern of Figure 2) plus bulk data
    pages, all mapped and unmapped at I/O rate.

    Useful as a second D-KASAN scenario: the command structs are
    kmalloc'd alongside ordinary kernel objects, so their DMA mappings
    generate map-after-alloc/alloc-after-map churn in the 512-byte
    cache that the network workload barely touches.
    """
    kernel.iommu.attach_device(device_name)
    rng = kernel.rng.child("storage-workload")
    stats = StorageWorkloadStats()
    inflight: list[tuple[int, int, int, int]] = []
    for index in range(commands):
        # the command struct: embedded response area (type (a) pattern)
        try:
            cmd_kva = kernel.slab.kmalloc(
                384, cpu=cpu, site=AllocSite("nvme_fc_init_iod", 0x84,
                                             0x2E0))
        except OutOfMemoryError:
            # BLK_STS_RESOURCE: the block layer requeues the request
            stats.faults_recovered += 1
            kernel.advance_time_us(80.0)
            continue
        try:
            rsp_iova = kernel.dma.dma_map_single(
                device_name, cmd_kva + 128, 128, "DMA_FROM_DEVICE",
                site=AllocSite("nvme_fc_map_data", 0x99, 0x260))
        except faults.InjectedDmaMapError:
            kernel.slab.kfree(cmd_kva)
            stats.faults_recovered += 1
            kernel.advance_time_us(80.0)
            continue
        # the data page
        direction = rng.choice(["DMA_TO_DEVICE", "DMA_FROM_DEVICE"])
        data_kva = None
        try:
            data_kva = kernel.slab.kmalloc(
                4096, cpu=cpu, site=AllocSite("blk_mq_get_request",
                                              0x14A, 0x3D0))
            data_iova = kernel.dma.dma_map_single(
                device_name, data_kva, 4096, direction,
                site=AllocSite("nvme_map_data", 0x6B, 0x2A0))
        except _RECOVERABLE:
            # unwind the half-built command and requeue
            if data_kva is not None:
                kernel.slab.kfree(data_kva)
            kernel.dma.dma_unmap_single(device_name, rsp_iova, 128,
                                        "DMA_FROM_DEVICE")
            kernel.slab.kfree(cmd_kva)
            stats.faults_recovered += 1
            kernel.advance_time_us(80.0)
            continue
        if direction == "DMA_TO_DEVICE":
            kernel.iommu.device_read(device_name, data_iova, 4096)
        else:
            kernel.iommu.device_write(device_name, data_iova,
                                      bytes(512))
        kernel.iommu.device_write(device_name, rsp_iova, b"\x00" * 16)
        inflight.append((rsp_iova, cmd_kva, data_iova, data_kva,
                         direction))
        stats.commands += 1
        stats.bytes_transferred += 4096
        # complete the oldest command once a small queue depth builds
        if len(inflight) > 4:
            rsp, cmd, dio, dkva, dma_dir = inflight.pop(0)
            kernel.dma.dma_unmap_single(device_name, rsp, 128,
                                        "DMA_FROM_DEVICE")
            kernel.dma.dma_unmap_single(device_name, dio, 4096, dma_dir)
            kernel.slab.kfree(cmd)
            kernel.slab.kfree(dkva)
        kernel.advance_time_us(80.0)
    for rsp, cmd, dio, dkva, dma_dir in inflight:
        kernel.dma.dma_unmap_single(device_name, rsp, 128,
                                    "DMA_FROM_DEVICE")
        kernel.dma.dma_unmap_single(device_name, dio, 4096, dma_dir)
        kernel.slab.kfree(cmd)
        kernel.slab.kfree(dkva)
    return stats


@dataclass(frozen=True)
class NamedWorkload:
    """One named workload of ``repro-dma trace``, ``metrics``,
    ``sanitize`` and ``chaos``: ``prepare(options)`` runs before the
    command's recorder or registry is installed, and ``run(kernel,
    options, prepared, plan)`` drives the booted kernel with the fault
    *plan* armed and returns its progress detail. ``chaos`` compiles
    the workload's plan on fault stream ``stream``."""

    phys_mb: int
    stream: int
    run: Callable
    prepare: Callable = lambda options: None


def _profile_ringflood(options):
    from repro.core.attacks.ringflood import profile_replica_boots
    return profile_replica_boots(options.profile_boots, seed=options.seed,
                                 nr_slots=48)


def _run_ringflood(kernel: "Kernel", options, profile, plan) -> str:
    from repro.core.attacks.ringflood import make_attacker, run_ringflood
    nic = kernel.add_nic("eth0")
    device = make_attacker(kernel, "eth0")
    with faults.session(plan):
        report = run_ringflood(kernel, nic, device, profile, nr_slots=12)
    return (f"flooded {report.slots_flooded} slots, "
            f"hijacked {report.slots_hijacked}, "
            f"escalated={report.escalated}")


def _run_compile_ping(kernel: "Kernel", options, _prepared, plan) -> str:
    nic = kernel.add_nic("eth0")
    with faults.session(plan):
        stats = run_compile_and_ping(kernel, nic, rounds=options.rounds)
    return f"{stats.allocations} allocations, {stats.pings} pings"


def _run_storage(kernel: "Kernel", options, _prepared, plan) -> str:
    with faults.session(plan):
        stats = run_storage_workload(kernel, commands=options.commands)
    return f"{stats.commands} commands, {stats.bytes_transferred} bytes"


#: in fault-stream order, which is also the order ``chaos`` runs them
NAMED_WORKLOADS: dict[str, NamedWorkload] = {
    "compile-ping": NamedWorkload(256, 0, _run_compile_ping),
    "storage": NamedWorkload(256, 1, _run_storage),
    "ringflood": NamedWorkload(1024, 2, _run_ringflood, _profile_ringflood),
}


def run_named_workload(name: str, options, prepared=None, *,
                       iommu_mode: str = "deferred", backend=None,
                       make_sink=None, plan=None) -> tuple["Kernel", str]:
    """Boot workload *name*'s kernel and run its table entry.

    *options* carries the entry's knobs (``seed`` and, per workload,
    ``rounds``, ``commands`` or ``profile_boots``); *prepared* is what
    the entry's ``prepare(options)`` returned. ``make_sink(phys_bytes)``
    builds the kernel's memory-event sink (a D-KASAN instance, say).
    Only the workload's own driving runs with *plan* armed: the boot
    and its device set-up stay fault-free. Returns the kernel and the
    workload's progress detail (``"129 allocations, 37 pings"``).
    """
    from repro.sim.kernel import Kernel

    workload = NAMED_WORKLOADS[name]
    sink = NULL_SINK if make_sink is None \
        else make_sink(workload.phys_mb << 20)
    kernel = Kernel(seed=options.seed, phys_mb=workload.phys_mb,
                    iommu_mode=iommu_mode, iommu_backend=backend,
                    sink=sink)
    return kernel, workload.run(kernel, options, prepared, plan)
