"""The malicious DMA-capable device (threat model, section 3.1).

The attacker's capabilities are exactly the paper's:

* it owns one device attached to the victim's IOMMU and performs the
  attack *solely via DMA* through that device's domain;
* it knows the victim's kernel **build** -- symbol and gadget offsets
  within the image -- because kernel builds are public (the paper's
  attacker ran ROPgadget on the same distribution kernel);
* it sees the device-side contract: descriptor rings (IOVAs + sizes)
  and its own DMA successes/failures;
* it does NOT see kernel virtual addresses, physical addresses, or the
  KASLR slides -- those must be *recovered*, which is what the compound
  attacks are about.

All memory access funnels through :meth:`dma_read` / :meth:`dma_write`,
which call the IOMMU like any device; there is no back door.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.gadgets import GadgetScanner
from repro.cpu.text import KernelImage
from repro.errors import AttackFailed, IommuFault
from repro.iommu.iommu import Iommu
from repro.kaslr.leak import LeakScanner, PointerLeak


@dataclass
class AttackerKnowledge:
    """What the attacker knows: build facts plus recovered slides."""

    #: image-relative symbol offsets (public build knowledge)
    symbol_offsets: dict[str, int]
    #: image-relative offsets of useful gadgets (found offline)
    gadget_offsets: dict[str, int]
    pivot_const: int = 0x10
    #: recovered at run time by leak analysis
    text_base: int | None = None
    page_offset_base: int | None = None
    vmemmap_base: int | None = None
    #: recovered XOR cookie when the victim blinds stored callbacks
    blinding_cookie: int | None = None
    notes: list[str] = field(default_factory=list)

    @classmethod
    def from_public_build(cls, image: KernelImage) -> "AttackerKnowledge":
        """Offline preparation: scan the public kernel binary.

        Mirrors section 6: "We located such a gadget using the
        ROPgadget tool."
        """
        scanner = GadgetScanner(image.text)
        pivot = scanner.find_stack_pivot()
        gadgets = {
            "pivot": pivot.image_offset,
            "pop rdi": scanner.find_pop("rdi").image_offset,
            "mov rdi, rax": scanner.find_mov_rdi_rax().image_offset,
        }
        symbols = {name: sym.image_offset
                   for name, sym in image.symbols().items()}
        return cls(symbol_offsets=symbols, gadget_offsets=gadgets,
                   pivot_const=pivot.instructions[0].imm or 0)

    @property
    def kaslr_broken(self) -> bool:
        return self.text_base is not None

    def symbol_kva(self, name: str) -> int:
        if self.text_base is None:
            raise AttackFailed("text base not yet recovered",
                               stage="kaslr")
        return self.text_base + self.symbol_offsets[name]

    def gadget_kva(self, name: str) -> int:
        if self.text_base is None:
            raise AttackFailed("text base not yet recovered",
                               stage="kaslr")
        return self.text_base + self.gadget_offsets[name]

    def kva_of_pfn(self, pfn: int, offset: int = 0) -> int:
        if self.page_offset_base is None:
            raise AttackFailed("page_offset_base not yet recovered",
                               stage="kaslr")
        return self.page_offset_base + (pfn << 12) + offset

    def pfn_of_struct_page(self, page_ptr: int) -> int:
        if self.vmemmap_base is None:
            raise AttackFailed("vmemmap_base not yet recovered",
                               stage="kaslr")
        return (page_ptr - self.vmemmap_base) // 64


class MaliciousDevice:
    """Attacker-controlled device: DMA primitives + leak analysis."""

    def __init__(self, iommu: Iommu, device_name: str,
                 knowledge: AttackerKnowledge) -> None:
        self._iommu = iommu
        self.device_name = device_name
        self.knowledge = knowledge
        self.leak_scanner = LeakScanner()
        self.dma_writes = 0
        self.dma_reads = 0
        self.faults = 0

    # -- raw DMA ------------------------------------------------------------------

    def dma_read(self, iova: int, length: int) -> bytes:
        try:
            data = self._iommu.device_read(self.device_name, iova, length)
        except IommuFault:
            self.faults += 1
            raise
        self.dma_reads += 1
        return data

    def dma_write(self, iova: int, data: bytes) -> None:
        try:
            self._iommu.device_write(self.device_name, iova, data)
        except IommuFault:
            self.faults += 1
            raise
        self.dma_writes += 1

    def dma_write_u64(self, iova: int, value: int) -> None:
        self.dma_write(iova, value.to_bytes(8, "little"))

    def dma_read_u64(self, iova: int) -> int:
        return int.from_bytes(self.dma_read(iova, 8), "little")

    def can_write(self, iova: int) -> bool:
        """Probe whether a write would land (a device can always try a
        DMA and observe whether it aborted)."""
        return self._iommu.device_can_access(self.device_name, iova,
                                             write=True)

    # -- leak harvesting (section 2.4) ------------------------------------------------

    def try_recover_text_base(self, leaks: list[PointerLeak]) -> bool:
        """init_net matching: one leaked pointer breaks text KASLR."""
        base = self.leak_scanner.recover_text_base(
            leaks, self.knowledge.symbol_offsets["init_net"])
        if base is None:
            return False
        self.knowledge.text_base = base
        self.knowledge.notes.append(
            f"text base {base:#x} recovered via init_net leak")
        return True

    def try_recover_vmemmap_base(self, leaks: list[PointerLeak]) -> bool:
        """Any struct-page leak pins vmemmap_base (30-bit alignment)."""
        for leak in leaks:
            if leak.region.name == "vmemmap":
                base = self.leak_scanner.recover_vmemmap_base(leak.value)
                self.knowledge.vmemmap_base = base
                self.knowledge.notes.append(
                    f"vmemmap base {base:#x} recovered from struct page "
                    f"leak {leak.value:#x}")
                return True
        return False
