"""NIC driver + device model.

The class contains both halves of the contract:

* **kernel-side driver** methods (``refill_rx``, ``napi_poll``,
  ``start_xmit``, ``tx_clean``) that use the DMA API and skb allocators
  the way real drivers do -- including, optionally, the i40e-style
  ordering bug where the driver "first create[s] an sk_buff and only
  then unmap[s] the buffer" (section 5.2.2, path (i));
* **device-side** methods (``device_receive``, ``device_fetch_tx``,
  ``device_complete_tx``) that touch memory exclusively through the
  IOMMU. A malicious device gets no extra powers beyond calling these
  plus raw ``iommu.device_read/write`` on IOVAs it knows.

``rx_buf_size`` controls the driver's memory footprint: 1536-byte
buffers model Linux 5.0's mlx5 configuration (2 KiB per entry), while
``hw_lro=True`` switches to 64 KiB buffers, modeling the kernel 4.15
configuration whose 2 GiB footprint made RingFlood so reliable
(section 5.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import faults
from repro.errors import NetStackError, OutOfMemoryError
from repro.mem.accounting import AllocSite
from repro.net.proto import HEADER_LEN, decode_header
from repro.net.ring import RxDescriptor, RxRing, TxDescriptor, TxRing
from repro.net.skbuff import SkBuff
from repro.net.structs import skb_truesize

if TYPE_CHECKING:
    from repro.sim.kernel import Kernel

#: Driver TX watchdog (section 5.4: "The T/O is set by the driver,
#: usually to a few seconds").
TX_TIMEOUT_US = 5_000_000.0

#: RX buffer payload capacity for a 1500-byte MTU (2 KiB-class entry).
DEFAULT_RX_BUF_SIZE = 1536

#: HW LRO RX buffer: "each RX buffer is 64 KB, regardless of the MTU".
LRO_RX_BUF_SIZE = 65536 - 384  # leave room for the shared info tail


@dataclass
class NicStats:
    rx_packets: int = 0
    tx_packets: int = 0
    tx_timeouts: int = 0
    rx_ring_resets: int = 0
    rx_refill_failed: int = 0  # alloc/map failures absorbed by refill
    rx_ring_drops: int = 0     # injected descriptor drops
    rx_truncated: int = 0      # injected truncated DMA writes
    tx_dropped: int = 0        # TX skbs dropped on DMA map failure


class Nic:
    """One NIC: per-CPU RX/TX rings over the shared IOMMU."""

    def __init__(self, kernel: "Kernel", name: str, *,
                 rx_ring_size: int = 256, tx_ring_size: int = 256,
                 rx_buf_size: int = DEFAULT_RX_BUF_SIZE,
                 hw_lro: bool = False,
                 unmap_order: str = "unmap_first") -> None:
        if unmap_order not in ("unmap_first", "skb_first"):
            raise NetStackError(f"bad unmap_order {unmap_order!r}")
        self.kernel = kernel
        self.name = name
        self.unmap_order = unmap_order
        self.hw_lro = hw_lro
        self.rx_buf_size = LRO_RX_BUF_SIZE if hw_lro else rx_buf_size
        self.stats = NicStats()
        kernel.iommu.attach_device(name)
        self.rx_rings = {cpu: RxRing(rx_ring_size, cpu)
                         for cpu in range(kernel.nr_cpus)}
        self.tx_rings = {cpu: TxRing(tx_ring_size, cpu)
                         for cpu in range(kernel.nr_cpus)}
        self._tx_posted_at: dict[tuple[int, int], float] = {}
        #: test/attack hook fired between build_skb and unmap when the
        #: driver uses the buggy "skb_first" order -- the race of
        #: Figure 7 path (i), where the device can still write through
        #: the live mapping after the CPU initialized the shared info.
        self.rx_race_hook = None

    # ------------------------------------------------------------------
    # Kernel-side driver paths
    # ------------------------------------------------------------------

    @property
    def rx_truesize(self) -> int:
        return skb_truesize(self.rx_buf_size)

    def refill_rx(self, *, cpu: int = 0, count: int | None = None) -> int:
        """Allocate, map (WRITE), and post RX buffers.

        The whole buffer -- payload area *and* the skb_shared_info tail
        -- is mapped with WRITE permission, faithfully to the drivers
        the paper analyzed.
        """
        ring = self.rx_rings[cpu]
        if count is None:
            count = ring.nr_desc - 1
        posted = 0
        for _ in range(count):
            if len(ring.posted_descriptors()) >= ring.nr_desc - 1:
                break
            try:
                kva, method = self.kernel.skb_alloc.alloc_rx_buffer(
                    self.rx_buf_size, cpu=cpu)
            except OutOfMemoryError:
                # real drivers tolerate a short refill: the ring runs
                # with fewer buffers until the next NAPI pass tops up
                self.stats.rx_refill_failed += 1
                break
            try:
                iova = self.kernel.dma.dma_map_single(
                    self.name, kva, self.rx_truesize, "DMA_FROM_DEVICE",
                    site=AllocSite(f"{self.name}_alloc_rx_buffers",
                                   0x1A0, 0x300))
            except faults.InjectedDmaMapError:
                self.kernel.skb_alloc.free_rx_buffer(kva, method,
                                                     cpu=cpu)
                self.stats.rx_refill_failed += 1
                break
            desc = ring.post(iova, kva, self.rx_buf_size)
            desc.alloc_method = method  # type: ignore[attr-defined]
            posted += 1
        return posted

    def napi_poll(self, *, cpu: int = 0) -> list[SkBuff]:
        """Reap completed RX descriptors into sk_buffs and push them up.

        ``unmap_order`` selects between path (i) of Figure 7 (buggy:
        build the skb -- initializing shared info in the still-mapped
        buffer -- before unmapping) and the correct order.
        """
        ring = self.rx_rings[cpu]
        delivered = []
        for desc in ring.reap_completed():
            method = getattr(desc, "alloc_method", "page_frag")
            if self.unmap_order == "skb_first":
                skb = self._build_rx_skb(desc, cpu, method)
                if self.rx_race_hook is not None:
                    self.rx_race_hook(skb, desc)
                self._unmap_rx(desc)
            else:
                self._unmap_rx(desc)
                skb = self._build_rx_skb(desc, cpu, method)
            self.stats.rx_packets += 1
            delivered.append(skb)
        self.refill_rx(cpu=cpu, count=len(delivered))
        for skb in delivered:
            self.kernel.gro.napi_gro_receive(self, skb)
        return delivered

    def _unmap_rx(self, desc: RxDescriptor) -> None:
        self.kernel.dma.dma_unmap_single(
            self.name, desc.iova, self.rx_truesize, "DMA_FROM_DEVICE")

    def _build_rx_skb(self, desc: RxDescriptor, cpu: int,
                      method: str) -> SkBuff:
        skb = self.kernel.skb_alloc.build_skb(
            desc.kva, desc.buf_size, cpu=cpu, alloc_method=method)
        skb.len = desc.pkt_len
        skb.dev = self.name
        skb.source = "rx"
        header = decode_header(skb.data())
        skb.protocol = header.proto
        skb.flow_id = header.flow_id
        skb.dst_ip = header.dst_ip
        skb.src_ip = header.src_ip
        skb.dst_port = header.dst_port
        return skb

    def start_xmit(self, skb: SkBuff, *,
                   cpu: int = 0) -> TxDescriptor | None:
        """Map a TX skb for READ and post it to the device.

        Maps the linear area by KVA/length; page granularity means the
        device can *read the whole page* -- including the shared info
        and anything co-located (sections 5.4, 9.1). Frags are mapped
        page-by-page via ``dma_map_page``.

        A DMA mapping failure drops the packet (freeing the skb) and
        returns None, as ``ndo_start_xmit`` implementations do on
        ``dma_mapping_error``.
        """
        ring = self.tx_rings[cpu]
        try:
            linear_iova = self.kernel.dma.dma_map_single(
                self.name, skb.head_kva, max(skb.len, 1),
                "DMA_TO_DEVICE",
                site=AllocSite(f"{self.name}_xmit", 0x2C0, 0x6A0))
        except faults.InjectedDmaMapError:
            self.stats.tx_dropped += 1
            self.kernel.stack.kfree_skb(skb)
            return None
        frag_iovas = []
        for frag in skb.frags():
            pfn = skb.frag_pfn(frag)
            iova = self.kernel.dma.dma_map_page(
                self.name, pfn, frag.page_offset, frag.size,
                "DMA_TO_DEVICE",
                site=AllocSite(f"{self.name}_xmit_frag", 0x310, 0x6A0))
            frag_iovas.append((iova, frag.size))
        desc = ring.post(skb, linear_iova, max(skb.len, 1), frag_iovas)
        self._tx_posted_at[(cpu, desc.index)] = self.kernel.clock.now_us
        self.stats.tx_packets += 1
        return desc

    def tx_clean(self, *, cpu: int = 0) -> int:
        """Reap completed TX descriptors: unmap and release the skbs."""
        ring = self.tx_rings[cpu]
        cleaned = 0
        for desc in ring.reap_completed():
            self._unmap_tx(desc)
            self._tx_posted_at.pop((cpu, desc.index), None)
            self.kernel.stack.kfree_skb(desc.skb)
            desc.skb = None
            cleaned += 1
        return cleaned

    def _unmap_tx(self, desc: TxDescriptor) -> None:
        self.kernel.dma.dma_unmap_single(
            self.name, desc.linear_iova, desc.linear_len, "DMA_TO_DEVICE")
        for iova, size in desc.frag_iovas:
            self.kernel.dma.dma_unmap_page(
                self.name, iova, size, "DMA_TO_DEVICE")

    def check_tx_timeout(self, *, cpu: int = 0) -> bool:
        """Driver watchdog: a TX completion that "fails to appear in due
        time ... triggers a TX T/O error that flushes all buffers and
        resets the driver" (section 5.4)."""
        now = self.kernel.clock.now_us
        ring = self.tx_rings[cpu]
        for desc in ring.uncompleted():
            posted = self._tx_posted_at.get((cpu, desc.index))
            if posted is not None and now - posted > TX_TIMEOUT_US:
                self.stats.tx_timeouts += 1
                desc.completed = True  # watchdog forces completion
        if self.stats.tx_timeouts:
            return True
        return False

    # ------------------------------------------------------------------
    # Device-side paths (all memory access goes through the IOMMU)
    # ------------------------------------------------------------------

    def device_receive(self, wire_bytes: bytes, *, cpu: int = 0) -> bool:
        """The device DMAs a received packet into the next RX buffer."""
        if "net.ring.rx_drop" in faults.active_sites \
                and faults.fires("net.ring.rx_drop"):
            # dropped on the wire: the descriptor stays posted
            self.stats.rx_ring_drops += 1
            return False
        if "net.nic.truncate" in faults.active_sites:
            firing = faults.fires("net.nic.truncate")
            if firing is not None:
                # partial DMA write; the header always lands intact
                keep = max(HEADER_LEN,
                           int(len(wire_bytes) * (firing.arg or 0.5)))
                wire_bytes = wire_bytes[:keep]
                self.stats.rx_truncated += 1
        ring = self.rx_rings[cpu]
        desc = ring.next_for_device()
        if desc is None:
            return False
        if len(wire_bytes) > desc.buf_size:
            raise NetStackError(
                f"packet of {len(wire_bytes)} exceeds RX buffer "
                f"{desc.buf_size}")
        self.kernel.iommu.device_write(self.name, desc.iova, wire_bytes)
        ring.device_complete(desc, len(wire_bytes))
        return True

    def device_fetch_tx(self, *, cpu: int = 0,
                        complete: bool = True) -> list[tuple[TxDescriptor,
                                                             bytes]]:
        """The device DMA-reads posted TX packets off the ring.

        With ``complete=False`` the device *withholds* the completion --
        the malicious delay of section 5.4 that keeps the TX mapping
        (and the echoed malicious buffer) alive.
        """
        ring = self.tx_rings[cpu]
        fetched = []
        for desc in ring.pending_for_device():
            data = self.kernel.iommu.device_read(
                self.name, desc.linear_iova, desc.linear_len)
            for iova, size in desc.frag_iovas:
                data += self.kernel.iommu.device_read(self.name, iova, size)
            desc.fetched = True
            if complete:
                desc.completed = True
            fetched.append((desc, data))
        return fetched

    def device_complete_tx(self, desc: TxDescriptor) -> None:
        if not desc.fetched:
            raise NetStackError("completing a TX descriptor never fetched")
        desc.completed = True
