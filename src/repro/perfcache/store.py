"""The two-tier content-addressed cache behind ``repro.perfcache``.

Layout of one cache directory::

    <dir>/CACHE.json                     marker + schema version
    <dir>/<namespace>/<kk>/<key>.json    one entry per content key
    <dir>/stats/STATS-<pid>-<id>.json    per-process CacheStats
    <dir>/snapshots/snap-<key>/          parallel-campaign base corpora

Keys are hex SHA-256 digests of whatever identifies the computation
(source bytes, analyzer versions, parameters); ``<kk>`` is the first
two hex characters, which keeps directories small at corpus scale.

Only keys a later lookup can hit are persisted: generated corpora,
the parse trees of a corpus analyzed in full (a campaign's base
corpus, which every seed of every run reads again), and the findings
of ``Spade(tree).analyze()`` outside a campaign seed (``audit``,
``cache verify``, the paper figures). A campaign seed analyzes a
corpus derived for it alone, through a :class:`ReadThroughView`: it
reads both tiers, keeps the parse trees of its mutated files in the
memory tier only, and stores findings nowhere. Over 400 warm
seeds, 158 mutated-file trees were read again 1,176 times (mutations
recur), while none of the 400 per-seed findings entries was; keeping
those findings grew a jobs=1 process from 54 to 125 MiB. So the disk
tier stops growing with the seed count.

Tier 1 is an in-process dict holding the *decoded objects* -- a hit
costs one dict lookup and returns the very same parse tree or finding
list the previous caller got. Tier 2 is on disk, JSON-per-entry and
sqlite-free, so concurrent campaign workers can share it with nothing
but atomic renames (``os.replace``): two workers racing on the same
key both write valid files and the last rename wins.

Failure policy: the cache must never turn a working analysis into a
crash. A corrupted or truncated entry, an undecodable payload, or any
filesystem error on read/write counts in :class:`CacheStats` and falls
back to recomputing silently.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass, field

from repro import durability, faults

#: bump to invalidate every on-disk entry at once (wire-format changes)
CACHE_SCHEMA = 1

MARKER_NAME = "CACHE.json"

#: every namespace the repo's callers use (``cache clear`` removes these)
NAMESPACES = ("parse", "findings", "corpus")

#: tier-1 bound: enough for several full corpora of parse trees
DEFAULT_MEMORY_ENTRIES = 8192

#: subdirectory holding per-process persisted CacheStats snapshots
STATS_DIR = "stats"

#: subdirectory where parallel campaigns put their base-corpus
#: snapshots (see :mod:`repro.campaign.snapshot`)
SNAPSHOTS_DIR = "snapshots"


def content_key(*parts: str) -> str:
    """Hex SHA-256 over the NUL-joined *parts* (order-sensitive)."""
    digest = hashlib.sha256()
    for i, part in enumerate(parts):
        if i:
            digest.update(b"\x00")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


def file_digest(content: str) -> str:
    """Hex SHA-256 of one source file's text."""
    return hashlib.sha256(content.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Per-:class:`PerfCache` effectiveness counters."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    bypasses: int = 0        # cache disabled -> straight compute
    corrupt: int = 0         # undecodable disk entries (recomputed)
    write_errors: int = 0    # disk stores that failed (ignored)

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def to_json(self) -> dict:
        return {"memory_hits": self.memory_hits,
                "disk_hits": self.disk_hits, "misses": self.misses,
                "stores": self.stores, "bypasses": self.bypasses,
                "corrupt": self.corrupt,
                "write_errors": self.write_errors}


@dataclass
class NamespaceUsage:
    """Disk-tier footprint of one namespace."""

    namespace: str
    entries: int = 0
    bytes: int = 0


class PerfCache:
    """Two-tier cache; ``directory=None`` keeps only the memory tier.

    ``enabled=False`` turns every :meth:`cached` call into a plain
    ``compute()`` (the ``REPRO_CACHE=off`` escape hatch), which is what
    the differential-verification mode uses as its "cold" side.
    """

    def __init__(self, directory: str | None = None, *,
                 enabled: bool = True,
                 memory_entries: int = DEFAULT_MEMORY_ENTRIES) -> None:
        self.directory = directory
        self.enabled = enabled
        #: set once the disk tier proves unusable (read-only directory,
        #: ENOSPC): the cache degrades to memory-only instead of paying
        #: a failing syscall per entry -- and instead of aborting a run
        self.degraded = False
        self._memory: dict[tuple[str, str], object] = {}
        self._memory_entries = max(1, memory_entries)
        self.stats = CacheStats()
        # Each process overwrites only its own stats file, so campaign
        # workers persist concurrently without any locking.
        self._stats_name = f"STATS-{os.getpid()}-{id(self):x}.json"

    # -- the one entry point callers use -------------------------------------

    def cached(self, namespace: str, key: str, compute, *,
               encode=None, decode=None, keep: str | None = "disk"):
        """Return the cached value for (namespace, key) or compute it.

        ``encode(obj) -> json-able`` / ``decode(payload) -> obj`` gate
        the disk tier; without them the entry lives in memory only.
        ``keep`` says where a computed miss goes: ``"disk"`` (the
        default) stores it and counts a store; ``"memory"`` keeps it
        in the memory tier only and ``None`` nowhere, neither counted
        as a store. The last two are :class:`ReadThroughView`'s.
        """
        if not self.enabled:
            self.stats.bypasses += 1
            return compute()
        memory_key = (namespace, key)
        memory = self._memory
        if memory_key in memory:
            self.stats.memory_hits += 1
            return memory[memory_key]
        if self._disk_usable and decode is not None:
            payload = self._disk_read(namespace, key)
            if payload is not None:
                try:
                    obj = decode(payload)
                except Exception:
                    self.stats.corrupt += 1
                else:
                    self.stats.disk_hits += 1
                    if keep is not None:
                        self._memory_store(memory_key, obj)
                    return obj
        self.stats.misses += 1
        obj = compute()
        if keep == "disk":
            self._memory_store(memory_key, obj)
            if self._disk_usable and encode is not None:
                self._disk_write(namespace, key, encode(obj))
            self.stats.stores += 1
        elif keep == "memory":
            self._memory_store(memory_key, obj)
        return obj

    # -- memory tier ---------------------------------------------------------

    def _memory_store(self, memory_key: tuple[str, str], obj) -> None:
        memory = self._memory
        while len(memory) >= self._memory_entries:
            # dicts iterate in insertion order: drop the oldest entry.
            # Threads sharing one cache can make the victim vanish
            # (or the dict resize) between the len() check and the
            # delete -- losing that race is fine, the entry is gone
            # either way.
            try:
                del memory[next(iter(memory))]
            except (KeyError, RuntimeError, StopIteration):
                break
        memory[memory_key] = obj

    @property
    def nr_memory_entries(self) -> int:
        return len(self._memory)

    def drop_memory(self) -> None:
        """Forget the object tier (the disk tier survives)."""
        self._memory.clear()

    # -- disk tier -----------------------------------------------------------

    @property
    def _disk_usable(self) -> bool:
        return self.directory is not None and not self.degraded

    def _degrade(self, exc: OSError) -> None:
        """Disable the disk tier after a genuine filesystem failure.

        One warning per cache: every later lookup silently recomputes
        or hits the memory tier, which is correct, just colder.
        """
        if self.degraded:
            return
        self.degraded = True
        warnings.warn(
            f"perfcache: disk tier at {self.directory!r} is "
            f"unusable ({exc}); continuing with the in-memory cache "
            f"only", RuntimeWarning, stacklevel=4)

    def _entry_path(self, namespace: str, key: str) -> str:
        return os.path.join(self.directory, namespace, key[:2],
                            f"{key}.json")

    def _disk_read(self, namespace: str, key: str):
        try:
            if "perfcache.read" in faults.active_sites \
                    and faults.fires("perfcache.read"):
                raise faults.InjectedCacheError("perfcache.read")
            with open(self._entry_path(namespace, key),
                      encoding="utf-8") as handle:
                record = json.load(handle)
            if "perfcache.corrupt" in faults.active_sites \
                    and faults.fires("perfcache.corrupt"):
                # a flipped bit somewhere in the entry: model it as a
                # key mismatch, which the validation below rejects
                record["key"] = f"corrupted-{key[:8]}"
            if record.get("schema") != CACHE_SCHEMA \
                    or record.get("key") != key:
                self.stats.corrupt += 1
                return None
            return record["data"]
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError):
            self.stats.corrupt += 1
            return None

    def _disk_write(self, namespace: str, key: str, data) -> None:
        path = self._entry_path(namespace, key)
        record = {"schema": CACHE_SCHEMA, "key": key, "data": data}
        try:
            if "perfcache.write" in faults.active_sites \
                    and faults.fires("perfcache.write"):
                raise faults.InjectedCacheError("perfcache.write")
            self._write_marker()
            durability.atomic_write_json(path, record,
                                         separators=(",", ":"))
        except (OSError, TypeError, ValueError) as exc:
            self.stats.write_errors += 1
            if isinstance(exc, OSError) \
                    and not isinstance(exc, faults.InjectedFault):
                self._degrade(exc)

    def _write_marker(self) -> None:
        marker = os.path.join(self.directory, MARKER_NAME)
        if not os.path.exists(marker):
            durability.atomic_write_json(
                marker, {"schema": CACHE_SCHEMA,
                         "tool": "repro-dma perfcache"})

    # -- persisted stats (surfaced by ``repro-dma cache stats``) --------------

    def persist_stats(self) -> bool:
        """Snapshot this process's :class:`CacheStats` into the cache
        directory (atomic overwrite of our own file). Returns True on
        success; a memory-only or unwritable cache returns False."""
        if not self._disk_usable:
            return False
        root = os.path.join(self.directory, STATS_DIR)
        try:
            self._write_marker()
            durability.atomic_write_json(
                os.path.join(root, self._stats_name),
                {"schema": CACHE_SCHEMA, "pid": os.getpid(),
                 "stats": self.stats.to_json()})
        except (OSError, TypeError, ValueError):
            return False
        return True

    def aggregate_persisted_stats(self) -> CacheStats:
        """Sum every persisted per-process snapshot into one
        :class:`CacheStats` (torn or foreign files are skipped)."""
        total = CacheStats()
        if self.directory is None:
            return total
        root = os.path.join(self.directory, STATS_DIR)
        try:
            names = sorted(os.listdir(root))
        except OSError:
            return total
        for name in names:
            if not (name.startswith("STATS-") and name.endswith(".json")):
                continue
            try:
                with open(os.path.join(root, name),
                          encoding="utf-8") as handle:
                    record = json.load(handle)
                fields = record["stats"]
            except (OSError, ValueError, KeyError, TypeError):
                continue
            if record.get("schema") != CACHE_SCHEMA:
                continue
            for field_name in ("memory_hits", "disk_hits", "misses",
                               "stores", "bypasses", "corrupt",
                               "write_errors"):
                value = fields.get(field_name, 0)
                if isinstance(value, int) and value >= 0:
                    setattr(total, field_name,
                            getattr(total, field_name) + value)
        return total

    # -- maintenance (the ``repro-dma cache`` subcommand) ---------------------

    def disk_usage(self) -> list[NamespaceUsage]:
        """Entry counts and byte totals per namespace on disk, then the
        campaign snapshots (one entry per snapshot directory)."""
        out = []
        if self.directory is None or not os.path.isdir(self.directory):
            return out
        for namespace in (*NAMESPACES, SNAPSHOTS_DIR):
            usage = NamespaceUsage(namespace)
            root = os.path.join(self.directory, namespace)
            for dirpath, dirnames, filenames in os.walk(root):
                if namespace == SNAPSHOTS_DIR:
                    if dirpath == root:
                        usage.entries = len(dirnames)
                else:
                    filenames = [name for name in filenames
                                 if name.endswith(".json")]
                    usage.entries += len(filenames)
                for name in filenames:
                    try:
                        usage.bytes += os.path.getsize(
                            os.path.join(dirpath, name))
                    except OSError:
                        pass
            out.append(usage)
        return out

    def is_cache_directory(self) -> bool:
        """True when the directory carries our marker (or is absent)."""
        if self.directory is None or not os.path.isdir(self.directory):
            return True
        if os.path.exists(os.path.join(self.directory, MARKER_NAME)):
            return True
        # an empty directory is fine to adopt, and so is one holding
        # only our own subdirectories (a snapshot written before the
        # first entry, or the leftovers of an older ``clear``)
        return set(os.listdir(self.directory)) \
            <= {*NAMESPACES, STATS_DIR, SNAPSHOTS_DIR}

    def clear_disk(self) -> int:
        """Remove every entry, stats file and snapshot file; returns
        the number of files removed.

        Only touches our own subdirectories and the marker -- never
        unrelated files someone else put next to them.
        """
        removed = 0
        if self.directory is None or not os.path.isdir(self.directory):
            return removed
        for namespace in (*NAMESPACES, STATS_DIR, SNAPSHOTS_DIR):
            root = os.path.join(self.directory, namespace)
            for dirpath, dirnames, filenames in os.walk(root,
                                                        topdown=False):
                for name in filenames:
                    try:
                        os.unlink(os.path.join(dirpath, name))
                        removed += 1
                    except OSError:
                        pass
                for name in dirnames:
                    try:
                        os.rmdir(os.path.join(dirpath, name))
                    except OSError:
                        pass
            try:
                os.rmdir(root)
            except OSError:
                pass
        try:
            os.unlink(os.path.join(self.directory, MARKER_NAME))
        except OSError:
            pass
        self.drop_memory()
        return removed


class ReadThroughView:
    """A :class:`PerfCache` as a campaign seed sees it.

    Lookups read both tiers exactly as :meth:`PerfCache.cached` does
    (and go through it). A miss keeps a parse tree in the memory tier
    only and any other entry nowhere, so a seed writes nothing to disk
    and ``stats.stores`` does not move; ``stats.misses`` still counts
    every computation. A seed of a warm campaign looks up only the
    parse trees of the files its mutations changed: its SPADE run is a
    delta of the base corpus's analysis, which no findings entry
    holds. Only a seed analyzed in full (``run_seed`` without a warm
    mutator) also looks up a whole-corpus findings entry, and keeps
    it nowhere.
    """

    #: namespace -> where a computed miss is kept (absent: nowhere)
    KEEP = {"parse": "memory"}

    def __init__(self, cache: PerfCache) -> None:
        self.cache = cache

    def cached(self, namespace: str, key: str, compute, *,
               encode=None, decode=None):
        return self.cache.cached(namespace, key, compute, decode=decode,
                                 keep=self.KEEP.get(namespace))
