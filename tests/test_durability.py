"""The crash-consistent persistence layer and its crashtest harness.

Three tiers, matching the module:

* unit: durability modes, atomic writes, checksummed append/replay,
  torn-tail healing, stale-tmp and stale-claim GC;
* property: truncate-at-every-byte-offset recovery for the coverage
  map and journaled JSONL streams -- a torn
  artifact must either load a valid prefix or fail loudly, never
  return silently wrong data;
* process: ``REPRO_CRASH`` really kills (exit 137), the census
  enumerates crash points, and a bounded slice of the crashtest
  matrix recovers a real campaign byte-identically.
"""

import json
import os
import subprocess
import sys
import time
import warnings
import zlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import durability, faults
from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.results import findings_digest, load_records
from repro.coverage import CoverageMap
from repro.errors import CampaignError, FaultError
from repro.faults import FaultSpec, SiteRule

SCALE = 0.05


@pytest.fixture(autouse=True)
def _clean_state():
    durability._reset_crash_state_for_tests()
    yield
    faults.uninstall()
    durability._reset_crash_state_for_tests()


def _env(**extra):
    env = dict(os.environ)
    env.pop("REPRO_CRASH", None)
    env.pop("REPRO_CRASH_CENSUS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")])
    env.update(extra)
    return env


# -- modes and atomic writes -------------------------------------------------


def test_mode_defaults_and_validates(monkeypatch):
    monkeypatch.delenv("REPRO_DURABILITY", raising=False)
    assert durability.mode() == "atomic"
    monkeypatch.setenv("REPRO_DURABILITY", "fsync")
    assert durability.mode() == "fsync"
    for unknown in ("journaled-ha", "off"):
        monkeypatch.setenv("REPRO_DURABILITY", unknown)
        with pytest.warns(RuntimeWarning, match="REPRO_DURABILITY"):
            assert durability.mode() == "atomic"


def test_atomic_write_json_bytes_match_plain_dump(tmp_path):
    doc = {"b": [1, 2], "a": {"nested": None}}
    path = str(tmp_path / "doc.json")
    durability.atomic_write_json(path, doc, indent=2, sort_keys=True,
                                 trailing_newline=True)
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == json.dumps(doc, indent=2,
                                           sort_keys=True) + "\n"
    assert not [name for name in os.listdir(tmp_path)
                if name.startswith(durability.TMP_PREFIX)]


def test_atomic_write_replaces_the_inode(tmp_path):
    path = str(tmp_path / "doc.json")
    durability.atomic_write_text(path, "one")
    first_inode = os.stat(path).st_ino
    durability.atomic_write_text(path, "two")
    assert os.stat(path).st_ino != first_inode  # fresh tmp replaced it
    with open(path, encoding="utf-8") as handle:
        assert handle.read() == "two"


def test_fsync_mode_syncs_file_and_parent_dir(tmp_path, monkeypatch):
    synced = []
    real_fsync = os.fsync
    monkeypatch.setattr(os, "fsync",
                        lambda fd: (synced.append(fd),
                                    real_fsync(fd))[1])
    monkeypatch.setenv("REPRO_DURABILITY", "fsync")
    durability.atomic_write_text(str(tmp_path / "doc.json"), "x")
    assert len(synced) == 2  # tmp file, then the parent directory
    synced.clear()
    durability.append_jsonl(str(tmp_path / "log.jsonl"), {"n": 1})
    assert len(synced) == 1
    monkeypatch.setenv("REPRO_DURABILITY", "atomic")
    synced.clear()
    durability.atomic_write_text(str(tmp_path / "doc.json"), "y")
    assert synced == []


@pytest.mark.parametrize("active", durability.MODES)
def test_atomic_write_gives_the_umask_mode_in_every_mode(tmp_path,
                                                          monkeypatch,
                                                          active):
    # a plain open() would give 0o666 & ~umask; mkstemp's 0600 must
    # not leak onto the target, neither fresh nor over an existing file
    umask = os.umask(0)
    os.umask(umask)
    expected = 0o666 & ~umask
    monkeypatch.setenv("REPRO_DURABILITY", active)
    fresh = str(tmp_path / "fresh.json")
    durability.atomic_write_text(fresh, "x")
    assert os.stat(fresh).st_mode & 0o777 == expected
    existing = str(tmp_path / "existing.json")
    with open(existing, "w", encoding="utf-8") as handle:
        handle.write("old")
    assert os.stat(existing).st_mode & 0o777 == expected
    durability.atomic_write_text(existing, "new")
    assert os.stat(existing).st_mode & 0o777 == expected


def test_genuine_write_error_cleans_up_tmp(tmp_path, monkeypatch):
    real_replace = os.replace

    def explode(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "replace", explode)
    with pytest.raises(OSError, match="disk gone"):
        durability.atomic_write_text(str(tmp_path / "doc.json"), "x")
    monkeypatch.setattr(os, "replace", real_replace)
    assert os.listdir(tmp_path) == []


# -- checksummed records and journaled streams -------------------------------


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**31, 2**31)
    | st.text(max_size=12),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8)


def _legacy_line(record: dict) -> str:
    """A results line as v1.18.0 wrote it: the record sealed with its
    CRC as a dict key, then serialized a second time with whitespace
    and ``_crc`` in sorted position."""
    payload = {key: value for key, value in record.items()
               if key != "_crc"}
    crc = zlib.crc32(durability.canonical_json(payload).encode("utf-8"))
    payload["_crc"] = f"{crc & 0xffffffff:08x}"
    return json.dumps(payload, sort_keys=True) + "\n"


@settings(max_examples=80, deadline=None)
@given(record=st.dictionaries(
    # "", "0", "A" and "Z" sort before "_crc"; "a" and "~" after it
    st.sampled_from(["", "0", "A", "Z", "_", "_crc_", "a", "seed", "~"])
    | st.text(max_size=8),
    json_values, max_size=5),
       stale_crc=st.none() | st.text(max_size=8))
@example(record={}, stale_crc=None)
@example(record={}, stale_crc="deadbeef")
@example(record={"A": 1, "seed": 2}, stale_crc="00000000")
def test_record_line_roundtrip(record, stale_crc):
    if stale_crc is not None:
        record = dict(record, _crc=stale_crc)
    line = durability.record_line(record)
    assert line.endswith("\n") and "\n" not in line[:-1]
    payload = {key: value for key, value in record.items()
               if key != "_crc"}
    canonical = durability.canonical_json(payload)
    crc = f"{zlib.crc32(canonical.encode('utf-8')):08x}"
    assert line.startswith(f'{{"_crc":"{crc}"')
    parsed = json.loads(line)
    assert parsed["_crc"] == crc
    assert durability.validate_record(parsed) == json.loads(canonical)
    # the v1.18.0 encoding of the same record verifies to the same dict
    assert durability.validate_record(json.loads(_legacy_line(record))) \
        == json.loads(canonical)


def test_append_writes_one_canonical_line_encoded_once(tmp_path,
                                                        monkeypatch):
    record = {"seed": 7, "status": "ok", "A": [1, {"z": None}]}
    dumps = []
    real_dumps = json.dumps
    monkeypatch.setattr(json, "dumps",
                        lambda *args, **kwargs: (dumps.append(args),
                                                 real_dumps(*args,
                                                            **kwargs))[1])
    path = str(tmp_path / "log.jsonl")
    durability.append_jsonl(path, record)
    assert len(dumps) == 1
    monkeypatch.setattr(json, "dumps", real_dumps)
    canonical = durability.canonical_json(record)
    crc = zlib.crc32(canonical.encode("utf-8"))
    with open(path, encoding="utf-8") as handle:
        line = handle.read()
    assert line == f'{{"_crc":"{crc:08x}",' + canonical[1:] + "\n"
    assert durability.replay_jsonl(path) == [(1, record)]


def test_validate_rejects_bitflips_accepts_legacy():
    sealed = json.loads(durability.record_line({"seed": 3,
                                                "status": "ok"}))
    corrupt = dict(sealed)
    corrupt["status"] = "failed"          # flipped after sealing
    assert durability.validate_record(corrupt) is None
    assert durability.validate_record({"seed": 3}) == {"seed": 3}
    assert durability.validate_record("not-a-dict") is None


def test_append_replay_roundtrip_and_newline_guard(tmp_path):
    path = str(tmp_path / "log.jsonl")
    durability.append_jsonl(path, {"n": 1})
    durability.append_jsonl(path, {"n": 2})
    # a dead writer tore the tail mid-line
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"n": 3, "status"')
    # the guard starts a fresh line, so record 4 survives the residue
    durability.append_jsonl(path, {"n": 4})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        replayed = durability.replay_jsonl(path)
    assert [record["n"] for _lineno, record in replayed] == [1, 2, 4]


def test_resume_reads_legacy_and_new_lines_alike(tmp_path):
    """A results file v1.18.0 started and this encoder continues:
    both kinds of line verify, so resume re-runs only the seed that
    is missing and the findings digest is the uninterrupted one."""
    def config(name, **overrides):
        return CampaignConfig(nr_seeds=3, seed_base=1, jobs=1,
                              mutations_per_seed=2, scale=SCALE,
                              trace_events=8, output=str(tmp_path / name), **overrides)

    run_campaign(config("base.jsonl"))
    base = load_records(str(tmp_path / "base.jsonl"))
    mixed = str(tmp_path / "mixed.jsonl")
    with open(mixed, "w", encoding="utf-8") as handle:
        handle.write(_legacy_line(base[1]))
        handle.write(durability.record_line(base[2]))
    assert load_records(mixed) == {1: base[1], 2: base[2]}
    resumed = []
    summary = run_campaign(config("mixed.jsonl", resume=True),
                           progress=resumed.append)
    assert [record["seed"] for record in resumed] == [3]
    assert summary.nr_ok == 3
    assert findings_digest(load_records(mixed)) == findings_digest(base)


def test_replay_heals_torn_tail_with_one_warning(tmp_path):
    path = str(tmp_path / "log.jsonl")
    durability.append_jsonl(path, {"n": 1})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"n": 2, "trunc')
    bad = []
    with pytest.warns(UserWarning, match="torn trailing line"):
        rows = durability.replay_jsonl(
            path, warn=True,
            on_bad_line=lambda lineno, line: bad.append(lineno))
    assert [record["n"] for _lineno, record in rows] == [1]
    assert bad == [2]


def test_replay_skips_checksum_corrupt_line(tmp_path):
    path = str(tmp_path / "log.jsonl")
    durability.append_jsonl(path, {"n": 1})
    durability.append_jsonl(path, {"n": 2})
    with open(path, encoding="utf-8") as handle:
        lines = handle.readlines()
    body = json.loads(lines[0])
    body["n"] = 99                        # bit-flip; stale _crc stays
    lines[0] = json.dumps(body, sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(lines)
    rows = durability.replay_jsonl(path)
    assert [record["n"] for _lineno, record in rows] == [2]


# -- residue GC --------------------------------------------------------------


def test_collect_stale_tmp_only_eats_aged_durability_files(tmp_path):
    old = tmp_path / f"{durability.TMP_PREFIX}dead{durability.TMP_SUFFIX}"
    young = tmp_path / f"{durability.TMP_PREFIX}live{durability.TMP_SUFFIX}"
    foreign = tmp_path / "results.tmp"
    for path in (old, young, foreign):
        path.write_text("x")
    ancient = time.time() - 3600
    os.utime(old, (ancient, ancient))
    os.utime(foreign, (ancient, ancient))
    removed = durability.collect_stale_tmp(str(tmp_path))
    assert removed == [str(old)]
    assert young.exists() and foreign.exists()
    # max_age_s=0 force-collects in-flight residue too (crashtest mode)
    assert durability.collect_stale_tmp(str(tmp_path),
                                        max_age_s=0.0) == [str(young)]


def test_stale_claim_gc_on_merge(tmp_path):
    from repro.campaign import CampaignConfig
    from repro.campaign.shard import (Shard, collect_stale_claims,
                                      try_claim)
    config = CampaignConfig(nr_seeds=4, seed_base=1,
                            output=str(tmp_path / "results.jsonl"))
    shard_dir = str(tmp_path / "queue")
    os.makedirs(shard_dir)
    for index in (0, 1):
        claim = try_claim(shard_dir, Shard(index, 1 + 2 * index, 2))
        assert claim is not None
    # shard 1 finished; shard 0's owner died silently
    (tmp_path / "queue" / "done-1.json").write_text("{}")
    stale = tmp_path / "queue" / "claim-0.json"
    body = json.loads(stale.read_text())
    body["claimed_at"] = time.time() - 1000.0
    stale.write_text(json.dumps(body))
    messages = []
    collected = collect_stale_claims(shard_dir, config, shard_size=2,
                                     stale_after_s=60.0,
                                     on_collect=messages.append)
    assert collected == [0]
    assert not stale.exists()
    assert (tmp_path / "queue" / "claim-1.json").exists()
    assert len(messages) == 1 and "claim-0.json" in messages[0]


def test_torn_claim_counts_as_stale(tmp_path):
    from repro.campaign import CampaignConfig
    from repro.campaign.shard import collect_stale_claims
    config = CampaignConfig(nr_seeds=2, seed_base=1,
                            output=str(tmp_path / "results.jsonl"))
    shard_dir = str(tmp_path / "queue")
    os.makedirs(shard_dir)
    torn = tmp_path / "queue" / "claim-0.json"
    torn.write_text('{"owner": "h')
    ancient = time.time() - 1000.0
    os.utime(torn, (ancient, ancient))
    messages = []
    assert collect_stale_claims(shard_dir, config, shard_size=2,
                                stale_after_s=60.0,
                                on_collect=messages.append) == [0]
    assert "unknown" in messages[0]
    # aged by its mtime, like the steal path ages it
    age = int(messages[0].split("silent ")[1].split("s,")[0])
    assert 1000 <= age < 1100


def test_fresh_unreadable_claim_survives_gc_and_steal(tmp_path):
    """A claim created a moment ago with no body yet belongs to a live
    winner between its O_EXCL create and its body write: neither the
    merge GC nor another runner's steal may take it."""
    from repro.campaign import CampaignConfig
    from repro.campaign.shard import (Shard, collect_stale_claims,
                                      try_claim)
    config = CampaignConfig(nr_seeds=2, seed_base=1,
                            output=str(tmp_path / "results.jsonl"))
    shard_dir = str(tmp_path / "queue")
    os.makedirs(shard_dir)
    fresh = tmp_path / "queue" / "claim-0.json"
    fresh.write_text("")
    messages = []
    assert collect_stale_claims(shard_dir, config, shard_size=2,
                                stale_after_s=60.0,
                                on_collect=messages.append) == []
    assert fresh.exists() and not messages
    assert try_claim(shard_dir, Shard(0, 1, 2), stale_after_s=60.0) is None
    assert fresh.read_text() == ""


# -- truncate-at-every-byte-offset recovery ----------------------------------


def test_coverage_map_survives_truncation_at_every_offset(tmp_path):
    cover = CoverageMap()
    cover.observe(1, {"digest": "d1", "features": {"dma:map": 2}})
    cover.observe(2, {"digest": "d2", "features": {"iommu:fault": 1}},
                  lane="strict")
    path = str(tmp_path / "map.json")
    cover.save(path)
    size = os.path.getsize(path)
    torn = str(tmp_path / "torn.json")
    for offset in range(size + 1):
        with open(path, "rb") as handle:
            data = handle.read()
        with open(torn, "wb") as handle:
            handle.write(data)
        durability.truncate_file(torn, offset)
        if offset >= size - 1:
            # full file, or only the trailing newline lost
            assert CoverageMap.load(torn).digest == cover.digest
            continue
        # anything shorter must fail loudly, never half-load
        with pytest.raises(CampaignError):
            CoverageMap.load(torn)


def test_journal_truncation_yields_clean_prefix_at_every_offset(
        tmp_path):
    path = str(tmp_path / "log.jsonl")
    records = [{"n": index, "payload": "x" * index}
               for index in range(3)]
    for record in records:
        durability.append_jsonl(path, record)
    with open(path, "rb") as handle:
        pristine = handle.read()
    newlines = [index for index, byte in enumerate(pristine)
                if byte == ord("\n")]
    for offset in range(len(pristine) + 1):
        with open(path, "wb") as handle:
            handle.write(pristine)
        durability.truncate_file(path, offset)
        replayed = durability.replay_jsonl(path)
        # exactly the records whose content survived the cut (losing
        # only the newline is recoverable) -- never a half-record
        expected = sum(1 for position in newlines
                       if position <= offset)
        assert [record["n"] for _lineno, record in replayed] \
            == [record["n"] for record in records[:expected]]
        # and the stream stays appendable after healing
        durability.append_jsonl(path, {"n": 99})
        tail = durability.replay_jsonl(path)[-1][1]
        assert tail["n"] == 99


# -- crash points ------------------------------------------------------------


def test_parse_crash_env_validates():
    site, nth = durability.parse_crash_env("durability.mid_append@3")
    assert (site, nth) == ("durability.mid_append", 3)
    for bad in ("durability.mid_append", "mem.slab.kmalloc@1",
                "durability.mid_append@0", "durability.nope@1"):
        with pytest.raises(ValueError):
            durability.parse_crash_env(bad)


@pytest.mark.parametrize("site", durability.CRASH_SITES)
def test_fault_plans_cannot_arm_crash_points(site):
    assert site not in faults.SITES
    with pytest.raises(FaultError, match=f"REPRO_CRASH={site}@<N>"):
        SiteRule(site, at_steps=(0,))
    # a v1.18.0 plan file, ``action`` key and all
    with pytest.raises(FaultError, match="REPRO_CRASH"):
        FaultSpec.from_json({"rules": [{"site": site, "at_steps": [0],
                                        "action": "kill"}]})


_CRASH_SCRIPT = """
import sys
from repro import durability
durability.atomic_write_json(sys.argv[1] + "/first.json", {"n": 1})
durability.atomic_write_json(sys.argv[1] + "/second.json", {"n": 2})
durability.append_jsonl(sys.argv[1] + "/log.jsonl", {"n": 3})
print("SURVIVED")
"""


def test_repro_crash_census_counts_every_poke(tmp_path):
    census_path = str(tmp_path / "census.json")
    done = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT, str(tmp_path)],
        env=_env(REPRO_CRASH_CENSUS=census_path),
        stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == 0 and "SURVIVED" in done.stdout
    with open(census_path, encoding="utf-8") as handle:
        census = json.load(handle)
    assert census == {"durability.mid_append": 1,
                      "durability.post_append": 1,
                      "durability.post_replace": 2,
                      "durability.post_write": 2,
                      "durability.pre_replace": 2}


def test_repro_crash_kills_at_the_nth_poke(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT, str(tmp_path)],
        env=_env(REPRO_CRASH="durability.pre_replace@2"),
        stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == durability.CRASH_EXIT_STATUS
    assert "SURVIVED" not in done.stdout
    assert (tmp_path / "first.json").exists()    # poke 1 completed
    assert not (tmp_path / "second.json").exists()
    residue = [name for name in os.listdir(tmp_path)
               if name.startswith(durability.TMP_PREFIX)]
    assert len(residue) == 1              # second.json's orphaned tmp


def test_mid_append_kill_leaves_genuinely_torn_line(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", _CRASH_SCRIPT, str(tmp_path)],
        env=_env(REPRO_CRASH="durability.mid_append@1"),
        stdout=subprocess.PIPE, text=True, timeout=60)
    assert done.returncode == durability.CRASH_EXIT_STATUS
    path = str(tmp_path / "log.jsonl")
    with open(path, encoding="utf-8") as handle:
        torn = handle.read()
    assert torn and not torn.endswith("\n")
    with pytest.raises(ValueError):
        json.loads(torn)
    assert durability.replay_jsonl(path) == []   # healed to empty


# -- the crashtest harness ---------------------------------------------------


def test_pick_steps_first_last_and_spread():
    from repro.durability.crashtest import _pick_steps
    assert _pick_steps(2, 4) == [1, 2]
    assert _pick_steps(9, 1) == [1]
    assert _pick_steps(9, 2) == [1, 9]
    assert _pick_steps(9, 3) == [1, 5, 9]
    assert _pick_steps(0, 2) == []


def test_torn_offsets_spread_and_bounds():
    from repro.durability.crashtest import _torn_offsets
    for size in (2, 17, 4096):
        offsets = _torn_offsets(size, 4)
        assert offsets == sorted(set(offsets))
        assert all(0 < offset < size for offset in offsets)
    assert _torn_offsets(1, 4) == []
    assert _torn_offsets(100, 0) == []


def test_crashtest_matrix_recovers_a_real_campaign(tmp_path):
    """One kill point per append site plus one torn offset per
    artifact -- the bounded lane CI runs; the full matrix is the
    ``repro-dma crashtest`` default."""
    from repro.durability.crashtest import (CrashtestConfig,
                                            format_crashtest_report,
                                            run_crashtest)
    report = run_crashtest(
        CrashtestConfig(seeds=1, scale=SCALE, mutations=2,
                        max_per_site=1, torn_offsets=1,
                        sites=("durability.mid_append",
                               "durability.pre_replace")),
        str(tmp_path))
    rendered = format_crashtest_report(report)
    assert report.ok, rendered
    assert len(report.points) == 2
    assert {point.site for point in report.points} == {
        "durability.mid_append", "durability.pre_replace"}
    assert all(point.killed and point.resumed_ok
               for point in report.points)
    assert report.torn and all(torn.ok for torn in report.torn)
    assert "crashtest verdict: PASS" in rendered


def test_crashtest_cli_rejects_unknown_site(capsys):
    from repro.cli import main
    assert main(["crashtest", "--sites", "durability.bogus"]) == 2
    assert "unknown crash site" in capsys.readouterr().err
