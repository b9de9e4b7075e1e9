"""Coverage-saturation tracking for live campaign progress.

A campaign saturates when new seeds stop contributing new features --
the signal that tells an operator (and, next, a coverage-guided
mutator) that more random seeds are no longer buying coverage. The
tracker is a tiny streaming consumer of per-seed novelty counts; the
formatter produces the one-line view the campaign progress stream
prints between its per-seed lines.
"""

from __future__ import annotations

import time

#: consecutive novelty-free seeds before the line flags a plateau
DEFAULT_PLATEAU_AFTER = 25


class SaturationTracker:
    """Streaming new-features-per-second over a campaign's lifetime."""

    def __init__(self, *, plateau_after: int = DEFAULT_PLATEAU_AFTER,
                 clock=time.monotonic) -> None:
        self.plateau_after = plateau_after
        self._clock = clock
        # the clock starts at construction, not at the first feed:
        # the first seed's new/s should be measured over the time it
        # took to produce that seed, not over the microseconds between
        # its feed() and the first rate query
        self._started_at: float = clock()
        self.nr_seeds = 0
        self.nr_features = 0
        #: features of seeds an earlier invocation ran (``--resume``)
        self._resumed_features = 0
        self.last_novel = 0
        self.seeds_since_novel = 0

    def feed(self, novel: int, *, resumed: bool = False) -> None:
        """Account one completed seed that contributed *novel* new
        features map-wide. A *resumed* seed ran before this tracker's
        clock started: its features count in the total, not the rate."""
        self.nr_seeds += 1
        self.last_novel = novel
        if resumed:
            self._resumed_features += novel
        if novel > 0:
            self.nr_features += novel
            self.seeds_since_novel = 0
        else:
            self.seeds_since_novel += 1

    @property
    def plateaued(self) -> bool:
        return self.seeds_since_novel >= self.plateau_after

    @property
    def new_features_per_s(self) -> float:
        elapsed = self._clock() - self._started_at
        if elapsed <= 0:
            return 0.0
        return (self.nr_features - self._resumed_features) / elapsed

    @property
    def new_features_per_seed(self) -> float:
        if not self.nr_seeds:
            return 0.0
        return self.nr_features / self.nr_seeds


def format_saturation(tracker: SaturationTracker) -> str:
    """``coverage: 141 features | +3 new | 1.2 new/s`` (+ PLATEAU)."""
    parts = [f"coverage: {tracker.nr_features} features",
             f"+{tracker.last_novel} new",
             f"{tracker.new_features_per_s:.1f} new/s"]
    if tracker.plateaued:
        parts.append(f"PLATEAU ({tracker.seeds_since_novel} seeds "
                     f"without a new feature)")
    return " | ".join(parts)
