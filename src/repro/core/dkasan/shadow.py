"""Shadow memory, KASAN-style.

"KASAN uses shadow memory to record whether a memory byte is safe to
access" -- one shadow byte tracks an 8-byte granule. D-KASAN extends
the encoding with DMA exposure: in addition to allocation state, each
granule knows whether its page is currently device-accessible.

As in KASAN (the ``kasan_shadow`` region of Table 1) the shadow is
flat and linear: an anonymous mapping the OS zero-fills on first
touch, so untouched granules read as ``UNTRACKED`` at no memset cost.
"""

from __future__ import annotations

import enum
import mmap

from repro.mem.phys import PAGE_SHIFT

GRANULE = 8
GRANULES_PER_PAGE = (1 << PAGE_SHIFT) // GRANULE


class ShadowState(enum.IntEnum):
    """Per-granule allocation state (the classic KASAN byte)."""

    UNTRACKED = 0
    ALLOCATED = 1
    FREED = 2       # freed at least once: use-after-free candidates
    REDZONE = 3


class ShadowMemory:
    """Flat shadow: one state byte per 8-byte granule, lazily zeroed."""

    def __init__(self, phys_bytes: int) -> None:
        self._limit = phys_bytes // GRANULE
        # mmap rejects a zero length; the range check still uses _limit
        self._shadow = mmap.mmap(-1, max(self._limit, 1))

    def _index(self, paddr: int) -> int:
        index = paddr // GRANULE
        if not 0 <= index < self._limit:
            raise ValueError(f"shadow index for paddr {paddr:#x} "
                             f"out of range")
        return index

    def poison_range(self, paddr: int, size: int,
                     state: ShadowState) -> None:
        start = self._index(paddr)
        end = self._index(paddr + max(size - 1, 0))
        self._shadow[start:end + 1] = bytes((state,)) * (end + 1 - start)

    def state_at(self, paddr: int) -> ShadowState:
        return ShadowState(self._shadow[self._index(paddr)])

    def any_state_in(self, paddr: int, size: int,
                     state: ShadowState) -> bool:
        start = self._index(paddr)
        end = self._index(paddr + max(size - 1, 0))
        return self._shadow.find(bytes((state,)), start, end + 1) != -1

    @property
    def tracked_granules(self) -> int:
        return self._limit - self._shadow[:self._limit].count(0)
