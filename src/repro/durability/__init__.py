"""repro.durability -- one crash-consistent persistence layer.

Every artifact this reproduction values -- campaign results JSONL, the
per-backend CoverageMap, the mmap'd corpus snapshot, shard claims,
heartbeats, perfcache entries, BENCH reports and history -- used to be
written by nine modules each hand-rolling its own ``tempfile`` +
``os.replace`` recipe, with no fsync discipline, no tmp-file cleanup,
and no proof that recovery works. This package centralizes all of it:

:func:`atomic_write_bytes` / :func:`atomic_write_text` /
:func:`atomic_write_json`
    write-to-tmp + ``os.replace`` with a configurable durability mode
    (``REPRO_DURABILITY=off|atomic|fsync``): ``off`` writes the target
    in place (fast, torn-write-prone -- for benchmarks only),
    ``atomic`` (the default) guarantees readers never observe a torn
    file, ``fsync`` additionally fsyncs the tmp file *and* its parent
    directory so the rename survives power loss, the full
    write-fsync-rename-fsync-dir discipline journaling filesystems
    expect.

:class:`JournaledAppender`
    append-only JSONL streams with a newline guard (a torn tail never
    swallows the next record), an optional per-line CRC32 checksum
    (``"_crc"``, stripped on replay -- findings digests never see it),
    and torn-tail healing on :meth:`~JournaledAppender.replay` that
    generalizes what ``trace.export.load_jsonl`` and the campaign
    resume path each did separately.

:func:`collect_stale_tmp`
    garbage-collects ``.durability-*.tmp`` residue a killed writer
    left behind (every atomic write and crash simulation funnels
    through the same naming scheme, so GC can never eat a foreign
    file).

**Crash points.** Every write advances deterministic per-site
counters at the ``durability.*`` fault sites (``post_write``,
``pre_replace``, ``post_replace``, ``mid_append``, ``post_append``).
Two arming mechanisms share those counters:

* a normal :mod:`repro.faults` plan whose rule names a durability
  site -- ``action="raise"`` throws
  :class:`~repro.faults.InjectedDurabilityCrash` (an OSError, so
  existing I/O recovery absorbs it), ``action="kill"`` hard-exits;
* ``REPRO_CRASH=<site>@<N>`` hard-kills the process (``os._exit``,
  exit status 137 -- indistinguishable from SIGKILL to the parent) at
  the N-th poke of *site*, which is how the ``repro-dma crashtest``
  harness (:mod:`repro.durability.crashtest`) murders a campaign
  subprocess at every reachable write and proves ``--resume``
  recovers byte-identically. ``REPRO_CRASH_CENSUS=<path>`` makes an
  un-killed run write its per-site poke counts at exit, which is how
  the harness enumerates the reachable crash points first.

``mid_append`` is special: when armed, the appender writes *half* the
encoded line, flushes, and only then pokes -- a firing leaves a
genuinely torn line on disk, the exact residue the healing paths must
survive.

Observability: a ``durability`` metrics subsystem (writes, fsyncs,
appends, recoveries, torn_tails_healed, tmp_files_collected) and
``durability``-category trace events on every recovery action. Trace
events fire only on *recovery*, never on routine writes, so they can
never leak into a seed's digest-relevant ``trace_tail``.
"""

from __future__ import annotations

import atexit
import json
import os
import tempfile
import time
import warnings
import zlib

from repro import faults

__all__ = [
    "DEFAULT_MODE", "DEFAULT_TMP_MAX_AGE_S", "MODES", "TMP_PREFIX",
    "TMP_SUFFIX", "JournaledAppender", "append_jsonl",
    "atomic_write_bytes", "atomic_write_json", "atomic_write_text",
    "canonical_json", "collect_stale_tmp", "crash_counts",
    "disarm_crash_points", "mode", "parse_crash_env", "replay_jsonl",
    "seal_record", "truncate_file", "validate_record",
]

MODES = ("off", "atomic", "fsync")

DEFAULT_MODE = "atomic"

#: every tmp file this layer creates matches ``.durability-*.tmp``
TMP_PREFIX = ".durability-"
TMP_SUFFIX = ".tmp"

#: stale-tmp GC default: anything older is a dead writer's residue
#: (in-flight writes live milliseconds; nothing legitimate is minutes
#: old)
DEFAULT_TMP_MAX_AGE_S = 300.0

#: the checksum key :class:`JournaledAppender` embeds per line;
#: always stripped on replay, never visible to findings digests
CRC_KEY = "_crc"

#: ``os._exit`` status for a simulated power loss; 137 == 128+SIGKILL,
#: what a real OOM-kill or ``kill -9`` reports
CRASH_EXIT_STATUS = 137

#: the mode ``open()`` gives a new file under the process umask;
#: ``mkstemp`` creates 0600, which an atomic write would otherwise
#: leave on the target (umask read once: ``os.umask`` can only swap it)
_UMASK = os.umask(0)
os.umask(_UMASK)
_FILE_MODE = 0o666 & ~_UMASK


def mode(environ=None) -> str:
    """The active durability mode (``REPRO_DURABILITY``, validated)."""
    environ = os.environ if environ is None else environ
    value = environ.get("REPRO_DURABILITY", "").strip().lower()
    if not value:
        return DEFAULT_MODE
    if value not in MODES:
        warnings.warn(f"REPRO_DURABILITY={value!r} is not one of "
                      f"{'/'.join(MODES)}; using {DEFAULT_MODE!r}",
                      RuntimeWarning)
        return DEFAULT_MODE
    return value


def _count(name: str, value: int = 1, **labels) -> None:
    # lazy: repro.metrics -> collectors -> perfcache -> durability cycle
    from repro import metrics
    metrics.count("durability", name, value, **labels)


def _trace_recovery(name: str, **args) -> None:
    from repro import trace
    if "durability" in trace.active_categories:
        trace.emit("durability", name, **args)


# -- crash points -------------------------------------------------------------

#: per-site poke counts for this process (1-based at comparison time)
_crash_counts: dict = {}

_crash_armed: tuple | None = None      # (site, nth) from REPRO_CRASH
_crash_env_loaded = False


def parse_crash_env(value: str) -> tuple[str, int]:
    """Parse ``REPRO_CRASH``'s ``<site>@<N>`` form (N is 1-based)."""
    site, sep, nth = value.partition("@")
    site = site.strip()
    if not sep or site not in faults.SITES \
            or not site.startswith("durability."):
        raise ValueError(f"REPRO_CRASH={value!r}: expected "
                         f"<durability-site>@<N>")
    count = int(nth)
    if count < 1:
        raise ValueError(f"REPRO_CRASH={value!r}: N must be >= 1")
    return site, count


def _load_crash_env() -> tuple | None:
    global _crash_armed, _crash_env_loaded
    if _crash_env_loaded:
        return _crash_armed
    _crash_env_loaded = True
    value = os.environ.get("REPRO_CRASH", "").strip()
    if value:
        _crash_armed = parse_crash_env(value)
    census = os.environ.get("REPRO_CRASH_CENSUS", "").strip()
    if census:
        pid = os.getpid()

        def _write_census() -> None:
            # direct write on purpose: the census must not poke the
            # crash points it is counting, and forked children (which
            # skip atexit anyway) must never clobber the parent's file
            if os.getpid() != pid:
                return
            with open(census, "w", encoding="utf-8") as handle:
                json.dump(crash_counts(), handle, sort_keys=True)

        atexit.register(_write_census)
    return _crash_armed


def disarm_crash_points() -> None:
    """Drop any ``REPRO_CRASH`` arming in this process.

    Campaign worker processes call this from their initializer so a
    crashtest kill lands deterministically in the coordinating
    process; worker-side crash chaos already has its own site
    (``campaign.worker.crash``).
    """
    global _crash_armed, _crash_env_loaded
    os.environ.pop("REPRO_CRASH", None)
    os.environ.pop("REPRO_CRASH_CENSUS", None)
    _crash_armed = None
    _crash_env_loaded = True


def crash_counts() -> dict:
    """Per-site poke counts so far in this process (census view)."""
    return dict(sorted(_crash_counts.items()))


def _reset_crash_state_for_tests() -> None:
    global _crash_armed, _crash_env_loaded
    _crash_counts.clear()
    _crash_armed = None
    _crash_env_loaded = False


def _armed(site: str) -> bool:
    """Cheap pre-check: could poking *site* possibly fire?"""
    armed = _load_crash_env()
    if armed is not None and armed[0] == site:
        return True
    return site in faults.active_sites


def _poke(site: str) -> None:
    """Advance *site*'s counter; kill or raise when a crash is armed.

    The counter advances unconditionally, so an unarmed (census) run
    and an armed (kill) run see identical numbering -- that is what
    makes ``<site>@<N>`` deterministic.
    """
    count = _crash_counts.get(site, 0) + 1
    _crash_counts[site] = count
    armed = _load_crash_env()
    if armed is not None and armed[0] == site and armed[1] == count:
        os._exit(CRASH_EXIT_STATUS)
    if site in faults.active_sites:
        firing = faults.fires(site)
        if firing is not None:
            if firing.action == "kill":
                os._exit(CRASH_EXIT_STATUS)
            raise faults.InjectedDurabilityCrash(site)


# -- atomic writes ------------------------------------------------------------


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
    _count("fsyncs")


def atomic_write_bytes(path: str, data: bytes) -> str:
    """Write *data* to *path* under the active durability mode.

    ``atomic``/``fsync`` go through a same-directory tmp file and
    ``os.replace``; a crash at any point leaves either the old
    complete file or the new complete file, never a torn one (plus,
    at worst, one ``.durability-*.tmp`` for GC). ``fsync`` also syncs
    the file and its parent directory. ``off`` writes in place.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    active = mode()
    if active == "off":
        with open(path, "wb") as handle:
            handle.write(data)
        _poke("durability.post_write")
        _count("writes")
        return path
    fd, tmp = tempfile.mkstemp(dir=parent or ".", prefix=TMP_PREFIX,
                               suffix=TMP_SUFFIX)
    try:
        os.fchmod(fd, _FILE_MODE)
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            _poke("durability.post_write")
            if active == "fsync":
                os.fsync(handle.fileno())
                _count("fsyncs")
        _poke("durability.pre_replace")
        os.replace(tmp, path)
        _poke("durability.post_replace")
        if active == "fsync":
            _fsync_dir(parent)
    except faults.InjectedDurabilityCrash:
        # a simulated crash leaves its residue (the tmp file), exactly
        # like the power loss it stands in for; GC collects it later
        raise
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _count("writes")
    return path


def atomic_write_text(path: str, text: str) -> str:
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: str, doc, *, indent=None, sort_keys=False,
                      separators=None, trailing_newline=False) -> str:
    """Serialize *doc* and write it atomically.

    The JSON knobs default to :func:`json.dump`'s, so every routed
    writer keeps producing byte-identical file content -- only the
    path to disk changed.
    """
    text = json.dumps(doc, indent=indent, sort_keys=sort_keys,
                      separators=separators)
    if trailing_newline:
        text += "\n"
    return atomic_write_text(path, text)


# -- journaled JSONL append streams -------------------------------------------


def canonical_json(doc) -> str:
    """The one canonical serialization: sorted keys, no whitespace.

    Record checksums are computed over it, and ``audit
    --findings-json`` writes it, so equal documents are equal bytes.
    """
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def seal_record(record: dict) -> dict:
    """A copy of *record* carrying its CRC32 under :data:`CRC_KEY`."""
    payload = {key: value for key, value in record.items()
               if key != CRC_KEY}
    crc = zlib.crc32(canonical_json(payload).encode("utf-8"))
    payload[CRC_KEY] = f"{crc & 0xffffffff:08x}"
    return payload


def validate_record(record: dict) -> dict | None:
    """Strip and verify a record's checksum.

    Returns the record without :data:`CRC_KEY` when the checksum
    matches or is absent (pre-durability lines never carried one);
    None when a checksum is present but wrong -- a line that parsed as
    JSON yet was bit-flipped on disk.
    """
    if not isinstance(record, dict):
        return None
    crc = record.get(CRC_KEY)
    if crc is None:
        return record
    payload = {key: value for key, value in record.items()
               if key != CRC_KEY}
    expected = zlib.crc32(canonical_json(payload).encode("utf-8"))
    if crc != f"{expected & 0xffffffff:08x}":
        return None
    return payload


def append_jsonl(path: str, record: dict, *, checksum: bool = True) -> None:
    """Append one record as a JSONL line, crash-consistently.

    The newline guard first repairs a torn tail left by a previous
    crash (gluing onto it would destroy this record too); the line
    itself is written through the ``mid_append``/``post_append`` crash
    points; ``fsync`` mode syncs after every append.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    payload = seal_record(record) if checksum \
        else {key: value for key, value in record.items()
              if key != CRC_KEY}
    line = json.dumps(payload, sort_keys=True) + "\n"
    needs_newline = False
    try:
        if os.path.getsize(path):
            with open(path, "rb") as handle:
                handle.seek(-1, os.SEEK_END)
                needs_newline = handle.read(1) != b"\n"
    except OSError:
        pass
    with open(path, "a", encoding="utf-8") as handle:
        if needs_newline:
            handle.write("\n")
        if _armed("durability.mid_append"):
            # leave a genuinely torn line when the point fires: write
            # half, flush so the bytes reach the file, then poke
            half = max(1, len(line) // 2)
            handle.write(line[:half])
            handle.flush()
            _poke("durability.mid_append")
            handle.write(line[half:])
        else:
            _poke("durability.mid_append")
            handle.write(line)
        handle.flush()
        _poke("durability.post_append")
        if mode() == "fsync":
            os.fsync(handle.fileno())
            _count("fsyncs")
    _count("appends")


def replay_jsonl(path: str, *, on_bad_line=None,
                 warn: bool = False) -> list[tuple[int, dict]]:
    """Read a journaled JSONL stream back as ``(lineno, record)`` rows.

    Checksums are verified and stripped; lines that fail to parse or
    to verify are skipped via *on_bad_line(lineno, line)* (the
    resume-tolerance contract) and counted. A bad **trailing** line is
    the interrupted-append case: it is additionally counted as a
    healed torn tail, traced, and -- with ``warn=True`` -- surfaced as
    one :class:`UserWarning` naming its byte offset, matching
    ``trace.export.load_jsonl``.
    """
    rows: list[tuple[int, dict]] = []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except FileNotFoundError:
        return rows
    offset = 0
    for index, raw in enumerate(lines):
        line = raw.strip()
        if line:
            record = None
            try:
                record = validate_record(json.loads(line))
            except ValueError:
                record = None
            if record is None:
                trailing = all(not rest.strip()
                               for rest in lines[index + 1:])
                if trailing:
                    _count("torn_tails_healed")
                    _count("recoveries", kind="torn_tail")
                    _trace_recovery("torn_tail_healed", path=path,
                                    byte=offset)
                    if warn:
                        warnings.warn(
                            f"{path}: dropped torn trailing line at "
                            f"byte {offset} "
                            f"({len(raw.encode('utf-8'))} bytes); the "
                            f"stream was interrupted mid-append")
                if on_bad_line is not None:
                    on_bad_line(index + 1, line)
            else:
                rows.append((index + 1, record))
        offset += len(raw.encode("utf-8"))
    return rows


class JournaledAppender:
    """A checksummed append-only JSONL stream bound to one path."""

    def __init__(self, path: str, *, checksum: bool = True) -> None:
        self.path = path
        self.checksum = checksum

    def append(self, record: dict) -> None:
        append_jsonl(self.path, record, checksum=self.checksum)

    def replay(self, *, on_bad_line=None,
               warn: bool = False) -> list[dict]:
        return [record for _lineno, record
                in replay_jsonl(self.path, on_bad_line=on_bad_line,
                                warn=warn)]


# -- residue management -------------------------------------------------------


def collect_stale_tmp(directory: str, *,
                      max_age_s: float = DEFAULT_TMP_MAX_AGE_S,
                      now: float | None = None) -> list[str]:
    """Remove dead writers' ``.durability-*.tmp`` residue.

    Only files matching this layer's naming scheme and older than
    *max_age_s* are touched -- an in-flight write of a *live* process
    is seconds old at most, so the default margin can never race one.
    Returns the removed paths.
    """
    if now is None:
        now = time.time()
    removed: list[str] = []
    try:
        names = os.listdir(directory)
    except OSError:
        return removed
    for name in sorted(names):
        if not (name.startswith(TMP_PREFIX) and name.endswith(TMP_SUFFIX)):
            continue
        path = os.path.join(directory, name)
        try:
            age = now - os.stat(path).st_mtime
            if age < max_age_s:
                continue
            os.unlink(path)
        except OSError:
            continue
        removed.append(path)
        _count("tmp_files_collected")
        _trace_recovery("tmp_collected", path=path)
    return removed


def truncate_file(path: str, offset: int) -> int:
    """Chop *path* at byte *offset* -- the torn-write simulator.

    Used by the crashtest harness (and the recovery property tests)
    to model a write the storage stack tore mid-stream. Returns the
    resulting size.
    """
    if offset < 0:
        raise ValueError(f"negative truncation offset {offset}")
    with open(path, "rb+") as handle:
        handle.truncate(offset)
    return offset
