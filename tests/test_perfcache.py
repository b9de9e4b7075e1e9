"""repro.perfcache: store semantics, codecs, and SPADE cache wiring."""

import json
import os

import pytest

from repro import perfcache
from repro.core.spade import analyzer as analyzer_mod
from repro.core.spade import cindex as cindex_mod
from repro.core.spade.analyzer import Spade
from repro.core.spade.cparse import TypeRef, parse_file
from repro.core.spade.pahole import PaholeDb
from repro.corpus.generate import CorpusGenerator
from repro.corpus.linux50 import scaled_composition
from repro.perfcache import PerfCache, content_key, file_digest
from repro.perfcache.codec import decode_parsed_file, encode_parsed_file


@pytest.fixture(autouse=True)
def _fresh_default_cache(monkeypatch):
    """Isolate every test from the process-wide default and the env."""
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    perfcache.reset_default()
    yield
    perfcache.reset_default()


def small_tree():
    tree, _manifest = CorpusGenerator(
        seed=2021, composition=scaled_composition(0.05)).generate()
    return tree


# -- the store ---------------------------------------------------------------


def test_content_key_is_order_sensitive_and_stable():
    assert content_key("a", "b") == content_key("a", "b")
    assert content_key("a", "b") != content_key("b", "a")
    assert content_key("ab") != content_key("a", "b")


def test_memory_tier_hits_and_returns_same_object():
    cache = PerfCache()
    calls = []
    value = cache.cached("parse", "k", lambda: calls.append(1) or [1])
    again = cache.cached("parse", "k", lambda: calls.append(1) or [2])
    assert again is value
    assert calls == [1]
    assert cache.stats.memory_hits == 1
    assert cache.stats.misses == 1


def test_disabled_cache_always_computes():
    cache = PerfCache(enabled=False)
    assert cache.cached("parse", "k", lambda: 1) == 1
    assert cache.cached("parse", "k", lambda: 2) == 2
    assert cache.stats.bypasses == 2
    assert cache.stats.lookups == 0


def test_memory_tier_is_bounded(tmp_path):
    cache = PerfCache(memory_entries=4)
    for i in range(10):
        cache.cached("parse", f"k{i}", lambda i=i: i)
    assert cache.nr_memory_entries <= 4


def test_disk_tier_round_trip(tmp_path):
    directory = str(tmp_path / "cache")
    first = PerfCache(directory)
    first.cached("parse", "k", lambda: {"x": [1, 2]},
                 encode=lambda obj: obj, decode=lambda data: data)
    # a fresh instance (= fresh process) warms from disk
    second = PerfCache(directory)
    value = second.cached("parse", "k", lambda: pytest.fail("recompute"),
                          encode=lambda obj: obj,
                          decode=lambda data: data)
    assert value == {"x": [1, 2]}
    assert second.stats.disk_hits == 1


def test_corrupted_disk_entry_recomputes_silently(tmp_path):
    directory = str(tmp_path / "cache")
    first = PerfCache(directory)
    first.cached("parse", "k", lambda: 41,
                 encode=lambda obj: obj, decode=lambda data: data)
    [entry] = [os.path.join(dirpath, name)
               for dirpath, _dirs, names in os.walk(
                   os.path.join(directory, "parse"))
               for name in names if name.endswith(".json")]
    with open(entry, "w") as handle:
        handle.write("{truncated")
    second = PerfCache(directory)
    value = second.cached("parse", "k", lambda: 42,
                          encode=lambda obj: obj,
                          decode=lambda data: data)
    assert value == 42
    assert second.stats.corrupt == 1
    assert second.stats.misses == 1


def test_clear_disk_refuses_nothing_but_never_unrelated_files(tmp_path):
    directory = str(tmp_path / "cache")
    cache = PerfCache(directory)
    cache.cached("parse", "k", lambda: 1,
                 encode=lambda obj: obj, decode=lambda data: data)
    stray = os.path.join(directory, "NOTES.txt")
    with open(stray, "w") as handle:
        handle.write("mine")
    assert cache.clear_disk() == 1
    assert os.path.exists(stray)
    assert sum(usage.entries for usage in cache.disk_usage()) == 0


def test_read_through_view_persists_nothing(tmp_path):
    directory = str(tmp_path / "cache")
    shared = PerfCache(directory)
    for namespace in ("parse", "findings"):
        shared.cached(namespace, "stored", lambda: [1],
                      encode=lambda obj: obj, decode=lambda data: data)
    cache = PerfCache(directory)
    view = perfcache.ReadThroughView(cache)
    for namespace in ("parse", "findings"):
        # both tiers still read: a stored entry is a disk hit
        assert view.cached(namespace, "stored",
                           lambda: pytest.fail("recompute"),
                           encode=lambda obj: obj,
                           decode=lambda data: data) == [1]
        assert view.cached(namespace, "new", lambda: [2],
                           encode=lambda obj: obj,
                           decode=lambda data: data) == [2]
    assert cache.stats.disk_hits == 2
    assert cache.stats.misses == 2
    assert cache.stats.stores == 0
    # a new parse tree stays in memory; findings are kept nowhere, not
    # even a findings disk hit
    assert cache.nr_memory_entries == 2
    calls = []
    view.cached("parse", "new", lambda: calls.append("parse"))
    view.cached("findings", "new", lambda: calls.append("findings"))
    assert calls == ["findings"]
    assert sorted(usage.entries for usage in cache.disk_usage()
                  if usage.namespace in ("parse", "findings")) == [1, 1]


def test_cache_clear_removes_campaign_snapshots(tmp_path, capsys):
    """A snapshot alone (no marker yet) is a cache directory, ``cache
    stats`` reports it, and ``clear`` leaves nothing that turns the
    directory into a foreign one."""
    from repro.campaign import snapshot
    from repro.campaign.mutate import CorpusMutator
    from repro.cli import main

    directory = tmp_path / "cache"
    snapshot.materialize(CorpusMutator(2021, scale=0.05),
                         str(directory / perfcache.SNAPSHOTS_DIR))
    args = ["--cache-dir", str(directory)]

    def snapshot_row() -> list[str]:
        assert main(["cache", "stats", *args]) == 0
        return next(line.split() for line in
                    capsys.readouterr().out.splitlines()
                    if line.startswith("snapshots"))

    assert snapshot_row()[1] == "1"
    PerfCache(str(directory)).cached(
        "parse", "k", lambda: 1, encode=lambda obj: obj,
        decode=lambda data: data)
    assert main(["cache", "clear", *args]) == 0
    assert not (directory / perfcache.SNAPSHOTS_DIR).exists()
    assert snapshot_row()[1:] == ["0", "0"]
    assert main(["cache", "clear", *args]) == 0
    assert os.listdir(directory) == []


def test_env_knobs(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert not perfcache.cache_from_env().enabled
    monkeypatch.setenv("REPRO_CACHE", "on")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "d"))
    cache = perfcache.cache_from_env()
    assert cache.enabled
    assert cache.directory == str(tmp_path / "d")


# -- codecs ------------------------------------------------------------------


def test_parsed_file_codec_round_trip():
    tree = small_tree()
    path = tree.paths(suffix=".c")[0]
    parsed = parse_file(path, tree.read(path))
    decoded = decode_parsed_file(encode_parsed_file(parsed))
    # re-encoding the decoded object must be byte-identical
    assert json.dumps(encode_parsed_file(decoded)) == \
        json.dumps(encode_parsed_file(parsed))
    assert decoded.path == parsed.path
    assert sorted(decoded.structs) == sorted(parsed.structs)
    assert sorted(decoded.functions) == sorted(parsed.functions)


def test_typeref_interning_shares_objects():
    a = TypeRef.intern("sk_buff", True, 1, None)
    b = TypeRef.intern("sk_buff", True, 1, None)
    assert a is b
    assert TypeRef.intern("sk_buff", True, 2, None) is not a


# -- SPADE wiring ------------------------------------------------------------


def test_unmutated_rerun_hits_for_every_file():
    tree = small_tree()
    cache = PerfCache()
    Spade(tree, cache=cache).analyze()
    misses_after_cold = cache.stats.misses
    Spade(tree, cache=cache).analyze()
    assert cache.stats.misses == misses_after_cold
    # warm run: every parse plus the findings entry comes from memory
    assert cache.stats.memory_hits >= misses_after_cold


def test_mutated_file_misses_only_itself():
    tree = small_tree()
    cache = PerfCache()
    Spade(tree, cache=cache).analyze()
    misses_after_cold = cache.stats.misses
    path = tree.paths(suffix=".c")[0]
    tree.files[path] = tree.read(path) + "\n/* mutated */\n"
    Spade(tree, cache=cache).analyze()
    # one re-parse and one findings recompute; everything else hits
    assert cache.stats.misses == misses_after_cold + 2


def test_parser_version_bump_misses_every_file(monkeypatch):
    tree = small_tree()
    cache = PerfCache()
    Spade(tree, cache=cache).analyze()
    misses_after_cold = cache.stats.misses
    monkeypatch.setattr(cindex_mod, "PARSER_VERSION", 999)
    monkeypatch.setattr(analyzer_mod, "PARSER_VERSION", 999)
    Spade(tree, cache=cache).analyze()
    assert cache.stats.misses == 2 * misses_after_cold


def test_analyzer_version_bump_misses_findings(monkeypatch):
    tree = small_tree()
    cache = PerfCache()
    Spade(tree, cache=cache).analyze()
    misses_after_cold = cache.stats.misses
    monkeypatch.setattr(analyzer_mod, "ANALYZER_VERSION", 999)
    Spade(tree, cache=cache).analyze()
    assert cache.stats.misses == misses_after_cold + 1


def test_max_depth_is_part_of_the_findings_key():
    tree = small_tree()
    cache = PerfCache()
    digests = {Spade(tree, cache=cache, max_depth=d).corpus_digest()
               for d in (2, 3, 4)}
    assert len(digests) == 3


def test_file_digest_tracks_content():
    assert file_digest("a") != file_digest("b")
    assert file_digest("a") == file_digest("a")


# -- layout interning --------------------------------------------------------


def test_identical_struct_defs_share_one_layout():
    tree = small_tree()
    spade_a = Spade(tree, cache=PerfCache())
    spade_b = Spade(tree, cache=PerfCache())
    name = next(iter(spade_a.pahole._structs))
    assert spade_a.pahole.layout(name) is spade_b.pahole.layout(name)


def test_different_struct_defs_do_not_share_layouts():
    a = parse_file("a.h", "struct foo {\n    int x;\n};\n")
    b = parse_file("b.h", "struct foo {\n    long x;\n};\n")
    layout_a = PaholeDb(a.structs).layout("foo")
    layout_b = PaholeDb(b.structs).layout("foo")
    assert layout_a is not layout_b
    assert layout_a.size != layout_b.size
