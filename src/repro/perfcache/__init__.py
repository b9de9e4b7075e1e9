"""repro.perfcache -- content-addressed caching for the analysis stack.

SPADE's cost is dominated by parsing: the Table-2 corpus is ~450 files
and ~1000 call sites, and a campaign re-analyzes a mutated copy of it
for *every* seed even though a typical mutation touches a handful of
files. This package makes that redundant work cacheable at three
levels, all keyed by content, never by timestamp:

* **per-file parse trees** -- keyed by (parser version, path, SHA-256
  of the source); a mutated file misses, every untouched file hits;
* **whole-corpus findings** -- keyed by a digest over every file hash
  plus the analyzer version and recursion depth, which makes repeat
  Table 2 / Figure 2 reports near-instant;
* **generated corpora** -- the deterministic output of
  :class:`repro.corpus.CorpusGenerator` per (seed, composition).

Two tiers: an in-process object cache (shared parse trees, no decode
cost) over an optional on-disk JSON store that campaign workers and
repeat CLI runs warm from. A campaign seed reads both tiers but
persists nothing (:class:`~repro.perfcache.store.ReadThroughView`):
its mutated corpus is its own, so only the base corpus's entries are
worth keeping on disk. Correctness is enforced differentially --
``repro-dma cache verify`` and the tier-1 tests require cached and
uncached runs to produce byte-identical findings.

Environment knobs:

* ``REPRO_CACHE=off`` disables caching process-wide, a campaign's
  ``--cache-dir`` included;
* ``REPRO_CACHE_DIR=DIR`` turns on the shared on-disk tier.
"""

from __future__ import annotations

import os

from repro.perfcache.store import (CACHE_SCHEMA, DEFAULT_MEMORY_ENTRIES,
                                   NAMESPACES, SNAPSHOTS_DIR, STATS_DIR,
                                   CacheStats, NamespaceUsage, PerfCache,
                                   ReadThroughView, content_key,
                                   file_digest)

__all__ = [
    "CACHE_SCHEMA", "DEFAULT_MEMORY_ENTRIES", "NAMESPACES",
    "SNAPSHOTS_DIR", "STATS_DIR", "CacheStats", "NamespaceUsage",
    "PerfCache", "ReadThroughView", "cache_from_env", "configure",
    "content_key", "default_cache", "enabled_from_env", "file_digest",
    "reset_default",
]

_OFF_VALUES = ("off", "0", "false", "no")

#: process-wide default, created lazily from the environment
_default: PerfCache | None = None


def enabled_from_env() -> bool:
    """False when ``REPRO_CACHE`` turns caching off."""
    return os.environ.get("REPRO_CACHE", "").strip().lower() \
        not in _OFF_VALUES


def cache_from_env() -> PerfCache:
    """A :class:`PerfCache` honouring ``REPRO_CACHE``/``REPRO_CACHE_DIR``."""
    directory = os.environ.get("REPRO_CACHE_DIR") or None
    return PerfCache(directory, enabled=enabled_from_env())


def default_cache() -> PerfCache:
    """The process-wide cache (memory-only unless configured)."""
    global _default
    if _default is None:
        _default = cache_from_env()
    return _default


def configure(directory: str | None = None, *,
              enabled: bool = True) -> PerfCache:
    """Replace the process-wide default (campaign workers, CLI)."""
    global _default
    _default = PerfCache(directory, enabled=enabled)
    return _default


def reset_default() -> None:
    """Drop the process-wide default so the next use re-reads the env."""
    global _default
    _default = None
