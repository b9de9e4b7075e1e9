"""Exception hierarchy shared across all repro subsystems.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch simulation faults without accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class MemoryError_(ReproError):
    """Base class for physical/virtual memory errors."""


class BadAddressError(MemoryError_):
    """An address is outside the modeled physical or virtual range."""


class OutOfMemoryError(MemoryError_):
    """The allocator cannot satisfy the request."""


class AllocatorError(MemoryError_):
    """Misuse of an allocator (double free, bad pointer, bad size)."""


class TranslationFault(ReproError):
    """A virtual address could not be translated.

    Raised both for CPU-side KVA translation failures and for device-side
    IOVA translation failures (IOMMU fault).
    """


class IommuFault(TranslationFault):
    """The IOMMU rejected a device access (no mapping or bad permission).

    Mirrors a VT-d DMA remapping fault: the device access is aborted and
    the fault is logged; the device observes the failure.
    """

    def __init__(self, message: str, *, iova: int | None = None,
                 device: str | None = None) -> None:
        super().__init__(message)
        self.iova = iova
        self.device = device


class DmaApiError(ReproError):
    """Misuse of the DMA API (unmap of unknown IOVA, bad direction...)."""


class NxViolation(ReproError):
    """The CPU attempted to fetch instructions from a non-executable page.

    Models the page-fault raised when the NX bit is set on the page the
    instruction pointer landed in (W^X / DEP, section 2.4 of the paper).
    """

    def __init__(self, message: str, *, address: int | None = None) -> None:
        super().__init__(message)
        self.address = address


class ExecutionFault(ReproError):
    """The ROP/JOP interpreter hit an undecodable or illegal state."""


class ControlFlowViolation(ExecutionFault):
    """A CET-style mitigation rejected an indirect branch or return."""


class NetStackError(ReproError):
    """Network-stack substrate misuse (bad skb state, ring overflow...)."""


class CorpusError(ReproError):
    """The corpus generator or its manifest hit an inconsistent state."""


class AnalysisError(ReproError):
    """SPADE failed to parse or index a source file it must understand."""


class TraceError(ReproError):
    """Flight-recorder misuse (bad category, mismatched span close)."""


class MetricsError(ReproError):
    """Metrics-registry misuse (instrument kind collision, bad label,
    negative counter increment, double install)."""


class FaultError(ReproError):
    """Fault-engine misuse (unknown site, bad trigger, double install,
    unreadable ``REPRO_FAULTS`` plan)."""


class BackendError(ReproError):
    """Unknown or invalid IOMMU backend model.

    The single error path shared by every ``--backend`` consumer (CLI
    exit code 2).
    """


class CampaignError(ReproError):
    """A differential-fuzzing campaign hit an inconsistent state.

    Raised for unknown mutation kinds, mutations that desynchronize a
    tree from its manifest, and shrink predicates that do not hold on
    the full mutation list.
    """


class AttackFailed(ReproError):
    """An attack step could not complete.

    Attacks are expected to fail under effective defenses; this exception
    carries the stage that failed so experiments can report *where* a
    defense stopped the attack.
    """

    def __init__(self, message: str, *, stage: str | None = None) -> None:
        super().__init__(message)
        self.stage = stage
