"""Concurrent PerfCache use: many writers, one ``--cache-dir``.

A parallel campaign's worker processes and any one-shot CLI run
started beside it (``audit``, ``cache verify``, a second campaign)
share one on-disk cache tier. Threads stand in for those processes
here: they give the tightest interleavings against one directory,
and they also cover the memory tier, which is lock-free by design.
These tests pin the properties that make sharing safe:

* many threads hammering one cache on the *same* keys compute at most
  a bounded number of times and never corrupt the memory tier,
* two cache instances sharing one directory (a campaign worker and a
  one-shot CLI run side by side) interoperate through the disk tier,
* a corrupt disk entry under contention is detected by every reader
  (key validation) and recomputed, never served.
"""

from __future__ import annotations

import json
import os
import threading

from repro.perfcache.store import CACHE_SCHEMA, PerfCache, content_key


def _hammer(target, nr_threads: int = 8, rounds: int = 25) -> list:
    """Run ``target(thread_index, round_index)`` from many threads."""
    errors: list[BaseException] = []
    barrier = threading.Barrier(nr_threads)

    def worker(thread_index: int) -> None:
        try:
            barrier.wait(timeout=30)
            for round_index in range(rounds):
                target(thread_index, round_index)
        except BaseException as exc:   # surface into the test thread
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(index,),
                                daemon=True)
               for index in range(nr_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return errors


def test_threads_sharing_cache_compute_bounded_times(tmp_path):
    cache = PerfCache(str(tmp_path))
    computes: list[int] = []
    lock = threading.Lock()
    keys = [content_key("entry", str(index)) for index in range(4)]

    def compute_for(index: int):
        def compute():
            with lock:
                computes.append(index)
            return {"value": index * 10}
        return compute

    def target(thread_index: int, round_index: int) -> None:
        key = keys[round_index % len(keys)]
        value = cache.cached("parse", key,
                             compute_for(round_index % len(keys)),
                             encode=lambda obj: obj,
                             decode=lambda payload: payload)
        assert value == {"value": (round_index % len(keys)) * 10}

    errors = _hammer(target)
    assert errors == []
    # cached() is intentionally lock-free: concurrent first lookups of
    # one key may each compute (bounded by thread count), but once any
    # store lands, later lookups must all hit
    assert len(computes) <= 8 * len(keys)
    assert cache.stats.hits > 0
    for key in keys:
        assert cache.cached("parse", key, lambda: {"value": -1},
                            encode=lambda obj: obj,
                            decode=lambda payload: payload) \
            != {"value": -1}


def test_two_instances_share_one_directory(tmp_path):
    """Campaign worker and one-shot CLI sharing a cache dir: writes
    from one process-equivalent are disk hits in the other."""
    writer = PerfCache(str(tmp_path))
    reader = PerfCache(str(tmp_path))
    key = content_key("shared", "payload")
    assert writer.cached("findings", key, lambda: [1, 2, 3],
                         encode=lambda obj: obj,
                         decode=lambda payload: payload) == [1, 2, 3]

    called = []

    def recompute():
        called.append(True)
        return [9, 9, 9]

    assert reader.cached("findings", key, recompute,
                         encode=lambda obj: obj,
                         decode=lambda payload: payload) == [1, 2, 3]
    assert called == []
    assert reader.stats.disk_hits == 1

    errors = _hammer(lambda thread_index, round_index:
                     PerfCache(str(tmp_path)).cached(
                         "findings", key, recompute,
                         encode=lambda obj: obj,
                         decode=lambda payload: payload),
                     nr_threads=6, rounds=5)
    assert errors == []
    assert called == []   # the disk entry satisfied every instance


def test_corrupt_entry_recovery_under_contention(tmp_path):
    cache = PerfCache(str(tmp_path))
    key = content_key("victim", "entry")
    assert cache.cached("parse", key, lambda: {"good": True},
                        encode=lambda obj: obj,
                        decode=lambda payload: payload) \
        == {"good": True}
    entry_path = os.path.join(str(tmp_path), "parse", key[:2],
                              f"{key}.json")
    assert os.path.isfile(entry_path)

    # flip the key in place: schema validates, key mismatch does not
    with open(entry_path, encoding="utf-8") as handle:
        record = json.load(handle)
    assert record["schema"] == CACHE_SCHEMA
    record["key"] = "0" * len(key)
    record["data"] = {"good": False}
    with open(entry_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)

    seen: list[dict] = []
    lock = threading.Lock()

    def target(thread_index: int, round_index: int) -> None:
        fresh = PerfCache(str(tmp_path))   # no memory-tier shortcut
        value = fresh.cached("parse", key, lambda: {"good": True},
                             encode=lambda obj: obj,
                             decode=lambda payload: payload)
        with lock:
            seen.append({"value": value,
                         "corrupt": fresh.stats.corrupt})

    errors = _hammer(target, nr_threads=6, rounds=3)
    assert errors == []
    # nobody was ever served the corrupt payload
    assert all(entry["value"] == {"good": True} for entry in seen)
    # at least the first reader saw the mismatch before a rewrite won
    assert any(entry["corrupt"] > 0 for entry in seen)
    # and the entry on disk healed: a later cold reader disk-hits
    healed = PerfCache(str(tmp_path))
    assert healed.cached("parse", key, lambda: {"good": False},
                         encode=lambda obj: obj,
                         decode=lambda payload: payload) \
        == {"good": True}
    assert healed.stats.disk_hits == 1


def test_memory_tier_eviction_races_stay_consistent(tmp_path):
    """Tiny memory tier + many threads: the eviction loop's lost races
    (victim vanishing mid-delete) must never error or lose writes."""
    cache = PerfCache(None, memory_entries=2)

    def target(thread_index: int, round_index: int) -> None:
        key = content_key("evict", str(thread_index), str(round_index))
        value = cache.cached("parse", key,
                             lambda: (thread_index, round_index))
        assert value == (thread_index, round_index)

    errors = _hammer(target, nr_threads=8, rounds=40)
    assert errors == []
    assert cache.nr_memory_entries <= 2 + 8   # bounded, racy slack
