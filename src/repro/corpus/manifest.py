"""Ground truth for the generated corpus.

The generator knows exactly which vulnerability pattern each
``dma_map_single`` call realizes; SPADE does not. Comparing SPADE's
findings against this manifest turns "the percentages match the paper"
into a measured precision/recall claim.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


#: exposure labels a call site can carry (a call may carry several)
EXPOSURES = (
    "skb_shared_info",     # Table 2 row 2
    "callback_direct",     # row 3 (subset of row 1)
    "callback_spoof",      # row 1 minus row 3
    "private_data",        # row 4
    "stack",               # row 5
    "type_c",              # row 6
    "build_skb",           # row 7
)


@dataclass(frozen=True)
class CallSiteTruth:
    """One dma-map call: where it is and what it exposes."""

    path: str
    line: int
    category: str
    exposures: frozenset[str]

    @property
    def vulnerable(self) -> bool:
        return bool(self.exposures)


@dataclass
class Manifest:
    """All call sites of one generated corpus."""

    sites: list[CallSiteTruth] = field(default_factory=list)

    def add(self, site: CallSiteTruth) -> None:
        self.sites.append(site)

    def by_path(self, path: str) -> list[CallSiteTruth]:
        return [s for s in self.sites if s.path == path]

    @property
    def nr_calls(self) -> int:
        return len(self.sites)

    @property
    def nr_files(self) -> int:
        return len({s.path for s in self.sites})

    def table2_rows(self) -> dict[str, tuple[int, int]]:
        """Ground-truth Table 2: row -> (#calls, #files)."""
        def row(*exposures: str) -> tuple[int, int]:
            calls = [s for s in self.sites
                     if any(e in s.exposures for e in exposures)]
            return len(calls), len({s.path for s in calls})

        vulnerable = [s for s in self.sites if s.vulnerable]
        return {
            "callbacks_exposed": row("callback_direct", "callback_spoof"),
            "skb_shared_info_mapped": row("skb_shared_info"),
            "callbacks_exposed_directly": row("callback_direct"),
            "private_data_mapped": row("private_data"),
            "stack_mapped": row("stack"),
            "type_c": row("type_c"),
            "build_skb_used": row("build_skb"),
            "total": (self.nr_calls, self.nr_files),
            "vulnerable": (len(vulnerable),
                           len({s.path for s in vulnerable})),
        }

    def category_counts(self) -> Counter:
        return Counter(s.category for s in self.sites)
