"""``struct sk_buff``: the Linux network packet descriptor (section 5.1).

Two facts from the paper shape this model:

* The sk_buff *metadata* object is allocated separately from the data
  buffer and "is *never* intentionally mapped to the device". Here the
  sk_buff's own backing object comes from ``kmalloc`` and is only
  exposed if slab co-location randomly places it on a mapped page.
* ``struct skb_shared_info``, "in contrast to sk_buff, is *always*
  allocated as part of the data buffer. Therefore it is *always* mapped
  to the device" with the packet's permissions. The accessors below
  read and write the shared info *in simulated memory*, so device-side
  modifications are observed by the kernel paths exactly as on real
  hardware.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import NetStackError
from repro.kaslr.translate import AddressSpace
from repro.mem.phys import PAGE_SHIFT, PhysicalMemory
from repro.net.structs import BoundStruct, SKB_SHARED_INFO, StructLayout

#: tx_flags bit: buffer completion must invoke the zerocopy callback
#: hanging off destructor_arg (Linux's SKBTX_DEV_ZEROCOPY).
SKBTX_DEV_ZEROCOPY = 1 << 3

_skb_ids = itertools.count(1)


@dataclass
class SkbFrag:
    """Kernel-side view of one frags[] entry."""

    page_ptr: int      # struct page address (vmemmap)
    page_offset: int
    size: int


@dataclass
class SkBuff:
    """One packet. Addresses are KVAs; contents live in simulated memory."""

    phys: PhysicalMemory
    addr_space: AddressSpace
    skb_kva: int           # the kmalloc'd sk_buff object itself
    head_kva: int          # start of the data buffer
    buf_size: int          # payload capacity (shared_info sits after it)
    end_offset: int        # offset of skb_shared_info within the buffer
    alloc_method: str      # "kmalloc" | "page_frag" | "build_skb"
    cpu: int = 0
    len: int = 0           # bytes in the linear area
    data_len: int = 0      # bytes held in frags
    protocol: int = 0
    flow_id: int = 0
    dst_ip: int = 0
    src_ip: int = 0
    dst_port: int = 0
    dev: str = ""
    source: str = ""       # "rx" | "tx" | "gro" | "clone"
    skb_id: int = field(default_factory=lambda: next(_skb_ids))
    freed: bool = False
    #: member skbs whose data pages this (GRO aggregate) skb references
    gro_members: list["SkBuff"] = field(default_factory=list)
    #: page_frag buffers this skb's frags own (freed with the skb)
    owned_frag_kvas: list[int] = field(default_factory=list)
    #: zerocopy ubuf_info object owned by this skb (0 = none)
    ubuf_kva: int = 0
    #: the (possibly __randomize_layout'd) shared-info layout this
    #: kernel build uses
    shared_info_layout: StructLayout = SKB_SHARED_INFO

    # -- geometry -------------------------------------------------------------

    @property
    def shared_info_kva(self) -> int:
        return self.head_kva + self.end_offset

    def shared_info(self) -> BoundStruct:
        """Bind skb_shared_info at its in-buffer location."""
        paddr = self.addr_space.paddr_of_kva(self.shared_info_kva)
        return self.shared_info_layout.bind(self.phys, paddr)

    def init_shared_info(self) -> None:
        """Zero and initialize the shared info (dataref = 1).

        On the RX path this runs *after* the DMA completed; whether the
        device can scribble afterwards is exactly the time-window
        question of section 5.2.
        """
        info = self.shared_info()
        info.zero()
        info.write("dataref", 1)

    # -- linear data ------------------------------------------------------------

    def put(self, data: bytes) -> None:
        """Append bytes to the linear area (``skb_put``)."""
        if self.len + len(data) > self.buf_size:
            raise NetStackError(
                f"skb_put over capacity: {self.len}+{len(data)} > "
                f"{self.buf_size}")
        paddr = self.addr_space.paddr_of_kva(self.head_kva + self.len)
        self.phys.write(paddr, data)
        self.len += len(data)

    def data(self) -> bytes:
        """The linear payload bytes (read from memory)."""
        paddr = self.addr_space.paddr_of_kva(self.head_kva)
        return self.phys.read(paddr, self.len)

    # -- frags -------------------------------------------------------------------

    def add_frag(self, pfn: int, page_offset: int, size: int) -> None:
        """Attach a page fragment, writing the frags[] entry to memory.

        The entry's first word is a *struct page pointer* -- a vmemmap
        address. On the TX path these words are readable by the device
        and "leak kernel pointers that allow the attacker to compromise
        KASLR in addition to providing the PFNs of specific pages"
        (section 5.4, Figure 8).
        """
        info = self.shared_info()
        index = info.read("nr_frags")
        if index >= 17:
            raise NetStackError("skb frags array full")
        info.write(f"frags[{index}].page",
                   self.addr_space.struct_page_of_pfn(pfn))
        info.write(f"frags[{index}].page_offset", page_offset)
        info.write(f"frags[{index}].size", size)
        info.write("nr_frags", index + 1)
        self.data_len += size

    def frags(self) -> list[SkbFrag]:
        """Kernel-side read of the frags array *from memory*.

        Because this is a memory read, a device that spoofed frags[]
        entries (the surveillance attack, section 5.5) feeds the kernel
        attacker-chosen struct page pointers here.
        """
        info = self.shared_info()
        nr_frags = info.read("nr_frags")
        if nr_frags > 17:
            # skb_shared_info corruption: real kernels BUG() here.
            raise NetStackError(
                f"skb {self.skb_id}: corrupt shared info "
                f"(nr_frags={nr_frags})")
        out = []
        for i in range(nr_frags):
            out.append(SkbFrag(
                page_ptr=info.read(f"frags[{i}].page"),
                page_offset=info.read(f"frags[{i}].page_offset"),
                size=info.read(f"frags[{i}].size")))
        return out

    def frag_pfn(self, frag: SkbFrag) -> int:
        return self.addr_space.pfn_of_struct_page(frag.page_ptr)

    def frag_bytes(self, frag: SkbFrag) -> bytes:
        paddr = (self.frag_pfn(frag) << PAGE_SHIFT) + frag.page_offset
        return self.phys.read(paddr, frag.size)

    # -- lifecycle ------------------------------------------------------------------

    def get_dataref(self) -> int:
        return self.shared_info().read("dataref")

    def clone_ref(self) -> None:
        """Packet cloning shares the data buffer (section 5.1): bump ref."""
        info = self.shared_info()
        info.write("dataref", info.read("dataref") + 1)
