"""Campaign seeds and the shared cache: a seed makes no lookups.

Every seed analyzes a corpus derived for it alone, as a delta of the
base corpus's analysis that parses its changed files through an
in-process memo, and the campaign puts the base corpus's parse trees on
disk once, before the first seed. These tests pin what follows from
that: the disk tier holds the base corpus's entries however many seeds
ran, the memory tier holds nothing per seed, and every record is
byte-identical to an uncached run -- across processes, worker pools
and backends.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro import perfcache
from repro.campaign.mutate import CorpusMutator
from repro.campaign.results import findings_digest, load_records
from repro.campaign.runner import CampaignConfig, run_campaign
from repro.core.spade.cparse import PARSER_VERSION

SCALE = 0.08
BASE_SEED = 2021
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


@pytest.fixture(autouse=True)
def _fresh_default_cache(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    perfcache.reset_default()
    yield
    perfcache.reset_default()


def _is_source(path: str) -> bool:
    return path.endswith(".c") or path.endswith(".h")


def _entry_files(cache_dir: str) -> set[str]:
    """Every entry file under the cache namespaces, relative paths."""
    out = set()
    for namespace in perfcache.NAMESPACES:
        root = os.path.join(cache_dir, namespace)
        for dirpath, _dirs, names in os.walk(root):
            out |= {os.path.relpath(os.path.join(dirpath, name), cache_dir)
                    for name in names if name.endswith(".json")}
    return out


def _base_entry_files() -> set[str]:
    """The entry files of the base corpus: its generated corpus and
    one parse tree per source file."""
    mutator = CorpusMutator(BASE_SEED, scale=SCALE)
    tree = mutator.base_view()[0]
    keys = [("corpus", mutator.base_key())]
    keys += [("parse", perfcache.content_key(
        "parse", str(PARSER_VERSION), path,
        perfcache.file_digest(tree.files[path])))
        for path in tree.paths() if _is_source(path)]
    return {os.path.join(namespace, key[:2], f"{key}.json")
            for namespace, key in keys}


def test_disk_tier_holds_only_the_base_corpus(tmp_path):
    base_entries = _base_entry_files()
    entries = {}
    for nr_seeds in (3, 9):
        config = CampaignConfig(
            nr_seeds=nr_seeds, jobs=1, scale=SCALE, base_seed=BASE_SEED,
            trace_events=0,
            output=str(tmp_path / f"seeds-{nr_seeds}.jsonl"),
            cache_dir=str(tmp_path / f"cache-{nr_seeds}"))
        assert run_campaign(config).all_ok
        nr_memory = perfcache.default_cache().nr_memory_entries
        perfcache.reset_default()
        entries[nr_seeds] = _entry_files(config.cache_dir)
        # the generated corpus and the base parse trees, nothing the
        # seeds derived
        assert nr_memory == len(base_entries)
    assert entries[3] == entries[9] == base_entries


def _campaign(cwd, output: str, *args: str, env: dict | None = None,
              script: str | None = None) -> subprocess.CompletedProcess:
    """``repro-dma campaign`` on 3 seeds in a fresh process (*script*,
    if given, runs first in that process)."""
    argv = ["campaign", "--seeds", "3", "--scale", str(SCALE),
            "--mutations", "3", "--output", output, *args]
    code = (script or "") + (
        "import sys\nfrom repro.cli import main\n"
        f"sys.exit(main({argv!r}))\n")
    proc_env = dict(os.environ)
    proc_env["PYTHONPATH"] = os.pathsep.join(
        [SRC, proc_env.get("PYTHONPATH", "")])
    proc_env.pop("REPRO_CACHE_DIR", None)
    proc_env.update(env or {})
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=proc_env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc


def _identity(path: str) -> tuple[str, dict]:
    """What must be byte-identical: the findings digest and every
    seed's coverage digest."""
    records = load_records(path)
    assert len(records) == 3
    return (findings_digest(records),
            {seed: record["coverage"]["digest"]
             for seed, record in records.items()})


# prints the parse trees the process computed, as (path, sha256),
# whole files apart from per-declaration pieces
_RECORD_PARSES = """\
import atexit, json
from repro import perfcache
from repro.core.spade import cindex
parsed = {"whole": set(), "piece": set()}
_parse_file = cindex.parse_file
def _recording(path, content, *, piece=False):
    parsed["piece" if piece else "whole"].add(
        (path, perfcache.file_digest(content)))
    return _parse_file(path, content, piece=piece)
cindex.parse_file = _recording
atexit.register(lambda: print("PARSED", json.dumps(
    {kind: sorted(pairs) for kind, pairs in parsed.items()})))
"""


def test_seed_records_identical_across_cache_states(tmp_path):
    off = {"REPRO_CACHE": "off"}
    _campaign(tmp_path, "off.jsonl", "--cache-dir", "", env=off)
    _campaign(tmp_path, "cold.jsonl", "--cache-dir", "shared")
    warm = _campaign(tmp_path, "warm.jsonl", "--cache-dir", "shared",
                     script=_RECORD_PARSES)
    _campaign(tmp_path, "jobs2.jsonl", "--cache-dir", "pooled",
              "--jobs", "2")
    _campaign(tmp_path, "lanes.jsonl", "--cache-dir", "lanes",
              "--backends", "intel-vtd,arm-smmuv3")
    _campaign(tmp_path, "arm-off.jsonl", "--cache-dir", "", "--backend",
              "arm-smmuv3", env=off)

    expected = _identity(str(tmp_path / "off.jsonl"))
    for name in ("cold", "warm", "jobs2", "lanes.intel-vtd"):
        assert _identity(str(tmp_path / f"{name}.jsonl")) == expected, name
    # lane 2 recomputes each seed's findings instead of reading lane 1's
    assert _identity(str(tmp_path / "lanes.arm-smmuv3.jsonl")) == \
        _identity(str(tmp_path / "arm-off.jsonl"))

    # the second process found every base-corpus tree on disk, and
    # parsed its seeds' changed files per declaration
    parsed = json.loads(warm.stdout.split("PARSED")[-1])
    whole = {tuple(pair) for pair in parsed["whole"]}
    base = CorpusMutator(BASE_SEED, scale=SCALE).base_view()[0].files
    assert parsed["piece"]
    assert not {(path, perfcache.file_digest(text))
                for path, text in base.items()} & whole


@pytest.mark.parametrize("state", ["cold", "warm"])
def test_pool_campaign_persists_the_lookups_of_an_inline_one(tmp_path,
                                                             state):
    """Pool workers inherit the parent's base analysis, so a jobs=2
    campaign makes exactly a jobs=1 campaign's lookups, all in the
    parent, which persists them once."""
    start = tmp_path / "start"
    if state == "warm":
        assert run_campaign(CampaignConfig(
            nr_seeds=2, seed_base=100, scale=SCALE, base_seed=BASE_SEED,
            mutations_per_seed=3, output=None,
            cache_dir=str(start))).all_ok
        perfcache.reset_default()
        shutil.rmtree(start / perfcache.STATS_DIR)
    else:
        start.mkdir()
    totals = {}
    for jobs in (1, 2):
        cache_dir = tmp_path / f"jobs{jobs}"
        shutil.copytree(start, cache_dir)
        assert run_campaign(CampaignConfig(
            nr_seeds=4, jobs=jobs, scale=SCALE, base_seed=BASE_SEED,
            mutations_per_seed=3,
            output=str(tmp_path / f"jobs{jobs}.jsonl"),
            cache_dir=str(cache_dir))).all_ok
        perfcache.reset_default()
        totals[jobs] = perfcache.PerfCache(
            str(cache_dir)).aggregate_persisted_stats()
    assert totals[1].lookups > 0
    assert totals[2] == totals[1]


@pytest.mark.parametrize("jobs", [1, 2])
def test_repro_cache_off_turns_off_a_campaign_cache_dir(tmp_path,
                                                        monkeypatch, jobs):
    def campaign(name: str) -> CampaignConfig:
        config = CampaignConfig(
            nr_seeds=3, jobs=jobs, scale=SCALE, base_seed=BASE_SEED,
            mutations_per_seed=3,
            output=str(tmp_path / f"{name}.jsonl"),
            cache_dir=str(tmp_path / f"{name}-cache"))
        assert run_campaign(config).all_ok
        perfcache.reset_default()
        return config

    cached = campaign("cached")
    assert _entry_files(cached.cache_dir)
    monkeypatch.setenv("REPRO_CACHE", "off")
    off = campaign("off")
    # no entries, stats or marker: the directory never appears
    assert not os.path.exists(off.cache_dir)
    assert _identity(off.output) == _identity(cached.output)
