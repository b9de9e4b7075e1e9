"""Flight recorder across the stack: kernel workloads, D-KASAN
cross-references, trace-derived Figure-6 windows, campaign capture,
and the ``repro-dma trace`` CLI."""

import hashlib
import io
import json

import pytest

from repro import metrics, trace
from repro.cli import main
from repro.sim.kernel import Kernel
from repro.trace import derive_invalidation_windows, event_counts


@pytest.fixture(autouse=True)
def _recorder_slot_clean():
    assert trace.active() is None
    yield
    trace.uninstall()


def _traced_workload(seed: int, *, rounds: int = 5, **session_kwargs):
    from repro.sim.workload import run_compile_and_ping

    with trace.session(**session_kwargs) as recorder:
        kernel = Kernel(seed=seed, phys_mb=256, boot_jitter_pages=0,
                        boot_jitter_blocks=0)
        nic = kernel.add_nic("eth0")
        run_compile_and_ping(kernel, nic, rounds=rounds)
    return recorder


# -- cross-layer coverage ---------------------------------------------------------


def test_workload_emits_across_categories():
    with metrics.session() as registry:
        recorder = _traced_workload(7)
        samples = registry.samples()
    counts = event_counts(recorder.events)
    categories = {cat for cat, _name in counts}
    assert {"sim", "dma", "iommu", "net", "mem"} <= categories
    assert counts[("sim", "boot")] == 1
    for key in (("dma", "map"), ("dma", "unmap"), ("net", "rx_post"),
                ("net", "skb_alloc"), ("mem", "kmalloc"),
                ("iommu", "fq_defer")):
        assert counts[key] > 0, key
    # nothing dropped at default capacity, so the DMA API's pulled
    # counters must agree with the on-ring event counts
    assert recorder.dropped == 0
    pulled = {sample.name: sample.value for sample in samples
              if sample.subsystem == "dma" and sample.kind == "counter"}
    assert pulled["maps"] == counts[("dma", "map")]
    assert pulled["unmaps"] == counts[("dma", "unmap")]


def test_boot_event_carries_kernel_identity():
    with trace.session(categories=("sim",)) as recorder:
        Kernel(seed=11, boot_index=3, phys_mb=256,
               iommu_mode="strict", boot_jitter_pages=0,
               boot_jitter_blocks=0)
    (boot,) = recorder.events
    assert boot.name == "boot"
    assert boot.args["seed"] == 11
    assert boot.args["boot_index"] == 3
    assert boot.args["iommu_mode"] == "strict"


def test_disabled_tracing_workload_has_no_recorder():
    from repro.sim.workload import run_compile_and_ping

    kernel = Kernel(seed=7, phys_mb=256, boot_jitter_pages=0,
                    boot_jitter_blocks=0)
    nic = kernel.add_nic("eth0")
    run_compile_and_ping(kernel, nic, rounds=3)
    assert trace.active() is None


# -- determinism -------------------------------------------------------------------


def test_same_seed_gives_byte_identical_jsonl():
    streams = []
    for _ in range(2):
        recorder = _traced_workload(13, rounds=4)
        stream = io.StringIO()
        trace.write_jsonl(recorder, stream)
        streams.append(stream.getvalue())
    assert streams[0] == streams[1]
    assert streams[0]  # non-trivial: events were captured


def test_different_seed_gives_different_stream():
    first = io.StringIO()
    trace.write_jsonl(_traced_workload(13, rounds=4), first)
    second = io.StringIO()
    trace.write_jsonl(_traced_workload(14, rounds=4), second)
    assert first.getvalue() != second.getvalue()


# -- D-KASAN cross-reference -------------------------------------------------------


def test_dkasan_events_cross_reference_trigger_tracepoint():
    from repro.core.dkasan import DKasan
    from repro.sim.workload import run_compile_and_ping

    with trace.session() as recorder:
        dkasan = DKasan(256 << 20)
        kernel = Kernel(seed=9, phys_mb=256, sink=dkasan,
                        boot_jitter_pages=0, boot_jitter_blocks=0)
        nic = kernel.add_nic("eth0")
        run_compile_and_ping(kernel, nic, rounds=8)
    by_seq = {e.seq: e for e in recorder.events}
    dkasan_events = [e for e in recorder.events if e.category == "dkasan"]
    assert dkasan_events, "workload produced no D-KASAN findings"
    assert len(dkasan_events) == len(dkasan.events)
    for event in dkasan_events:
        trigger_seq = event.args["trigger_seq"]
        assert trigger_seq is not None and trigger_seq < event.seq
        trigger = by_seq.get(trigger_seq)
        assert trigger is not None, "trigger event fell off the ring"
        # findings are raised while handling allocator / DMA / device
        # activity (or chained off an earlier finding from the same
        # operation) -- never out of the attack machinery itself
        assert trigger.category != "attack"


# -- Figure-6 window from the trace ------------------------------------------------


def test_trace_recomputes_deferred_window():
    with trace.session(categories=("iommu", "dma")) as recorder:
        kernel = Kernel(seed=3, phys_mb=128, iommu_mode="deferred",
                        boot_jitter_pages=0, boot_jitter_blocks=0)
        kernel.iommu.attach_device("dev0")
        kva = kernel.slab.kmalloc(512)
        iova = kernel.dma.dma_map_single("dev0", kva, 512,
                                         "DMA_FROM_DEVICE")
        kernel.dma.dma_unmap_single("dev0", iova, 512,
                                    "DMA_FROM_DEVICE")
        kernel.advance_time_ms(10.5)  # one full flush period
    windows = derive_invalidation_windows(recorder.events)
    assert windows.nr_windows == 1
    assert windows.nr_unpaired == 0
    # the unmap happened within the first flush period, so the stale
    # window closes at the first 10 ms timer tick
    assert 5.0 <= windows.max_ms <= 10.0


def test_trace_strict_mode_shows_only_sync_invalidations():
    with trace.session(categories=("iommu",)) as recorder:
        kernel = Kernel(seed=3, phys_mb=128, iommu_mode="strict",
                        boot_jitter_pages=0, boot_jitter_blocks=0)
        kernel.iommu.attach_device("dev0")
        kva = kernel.slab.kmalloc(512)
        iova = kernel.dma.dma_map_single("dev0", kva, 512,
                                         "DMA_TO_DEVICE")
        kernel.dma.dma_unmap_single("dev0", iova, 512, "DMA_TO_DEVICE")
    windows = derive_invalidation_windows(recorder.events)
    assert windows.nr_sync >= 1
    assert windows.max_ms == 0.0
    counts = event_counts(recorder.events)
    assert counts[("iommu", "fq_defer")] == 0


# -- campaign capture --------------------------------------------------------------


def test_campaign_disagreements_carry_trace_tail():
    from repro.campaign import CorpusMutator, run_differential

    tree, manifest = CorpusMutator(2021, scale=0.1).base()
    result = run_differential(tree, manifest, seed=11, trace_events=16)
    assert trace.active() is None  # the oracle cleans up its recorder
    assert result.disagreements  # base corpus carries dkasan-miss sites
    assert 0 < len(result.trace_tail) <= 16
    for record in result.trace_tail:
        assert record["cat"] in ("dma", "iommu", "dkasan")
    json.dumps(result.trace_tail)  # JSONL-safe


def test_campaign_tracing_off_by_default():
    from repro.campaign import CorpusMutator, run_differential

    tree, manifest = CorpusMutator(2021, scale=0.1).base()
    result = run_differential(tree, manifest, seed=11)
    assert result.trace_tail == []


# sha256 over 12 seeds' records (minus duration_s) at scale 0.06, pinned
# from the recorder before events became tuples: any change to a
# trace_tail, coverage vector or finding shows
_RECORD_DIGESTS = {
    None: "d28e317e5854ca34f5ff2564ba4418b6193328f0574b6f54c5e98ed293b97dcd",
    "arm-smmuv3":
        "fd91b8fc0d92ff45539a6bfc3f22b85589e8ad34f3075653495ed0cabd5392d4",
}


def _record_without_duration(seed, **kwargs):
    from repro.campaign.runner import run_seed

    record = run_seed(seed, scale=0.06, **kwargs)
    record.pop("duration_s")
    return record


@pytest.mark.parametrize("backend", [None, "arm-smmuv3"])
def test_campaign_records_are_pinned(backend):
    digest = hashlib.sha256()
    for seed in range(1, 13):
        record = _record_without_duration(seed, backend=backend)
        assert record["trace_tail"]
        digest.update(json.dumps(record, sort_keys=True).encode())
    assert digest.hexdigest() == _RECORD_DIGESTS[backend]


@pytest.mark.parametrize("outer", [None, {}, {"categories": ("dma",)},
                                   {"capacity": 8}],
                         ids=["none", "unfiltered", "dma-only",
                              "capacity-8"])
def test_seed_record_ignores_an_outer_trace_session(outer):
    """A seed replays under its own recorder: a session the caller
    left installed neither changes the record nor sees the replay."""
    expected = _record_without_duration(7)
    assert expected["coverage"]["digest"].startswith("805dfe42a713")
    recorder = None if outer is None \
        else trace.install(trace.TraceRecorder(**outer))
    emitted = None if recorder is None else recorder.nr_emitted
    assert _record_without_duration(7) == expected
    assert trace.active() is recorder
    if recorder is not None:
        assert recorder.nr_emitted == emitted


def test_result_record_surfaces_trace_tail():
    from repro.campaign.oracle import (DetectorScore, DifferentialResult)
    from repro.campaign.results import result_record

    tail = [{"seq": 1, "ts_us": 2.0, "cat": "dma", "name": "map",
             "ph": "i", "args": {}}]
    result = DifferentialResult(5, 10, DetectorScore(), DetectorScore(),
                                [], trace_tail=tail)
    record = result_record(result, [])
    assert record["trace_tail"] == tail


# -- CLI --------------------------------------------------------------------------


def test_cli_trace_compile_ping_exports(tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    code = main(["trace", "--workload", "compile-ping", "--rounds", "3",
                 "--categories", "iommu,dma",
                 "--output", str(jsonl), "--chrome", str(chrome),
                 "--summary", "--timeline", "--last", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace:" in out and "invalidation windows" in out
    events, summary = trace.load_jsonl(str(jsonl))
    assert events and summary is not None
    assert {e.category for e in events} <= {"iommu", "dma"}
    doc = json.loads(chrome.read_text())
    assert doc["traceEvents"]


# sha256 of the `repro-dma trace` JSONL event lines (every line but the
# summary) and of the chrome document without its "C" counter rows,
# both taken from the recorder that still kept its own counters
_EXPORT_DIGESTS = {
    "compile-ping": (
        "32c63c86c7dd06dff3cfe0af2ff0c89d7b5b5fa7c5e5944385541ffcd99e1b46",
        "ab32c137e0213859a716e87149dee541b3179cc948708b97fbec10fe83e7435a"),
    "storage": (
        "2221aa0e65134ad9bbd20ca4f4863a73f4efd51ca8189626dfd5d86bd5c21c49",
        "52b885339d2b3400ae028b69b5a6e345c840fec0026746cde6617e5a4318c445"),
}


@pytest.mark.parametrize("argv", [
    ["--workload", "compile-ping"],
    ["--workload", "storage", "--iommu-mode", "deferred",
     "--capacity", "64"]], ids=["compile-ping", "storage"])
def test_cli_trace_exports_are_pinned(argv, tmp_path, capsys):
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    assert main(["trace", *argv, "--output", str(jsonl),
                 "--chrome", str(chrome)]) == 0
    *event_lines, summary_line = jsonl.read_bytes().splitlines(
        keepends=True)
    doc = json.loads(chrome.read_text())
    doc["traceEvents"] = [row for row in doc["traceEvents"]
                          if row["ph"] != "C"]
    digests = (hashlib.sha256(b"".join(event_lines)).hexdigest(),
               hashlib.sha256(json.dumps(doc, sort_keys=True)
                              .encode()).hexdigest())
    assert digests == _EXPORT_DIGESTS[argv[1]]
    summary = json.loads(summary_line)
    assert set(summary) == {"type", "nr_events", "nr_emitted", "dropped",
                            "counters"}
    assert summary["dropped"] == \
        summary["nr_emitted"] - summary["nr_events"]
    # only the 64-event ring overflows, so the derived count is exercised
    assert (summary["dropped"] > 0) == ("--capacity" in argv)


@pytest.mark.parametrize("argv", [
    ["--workload", "compile-ping"],
    ["--workload", "storage", "--iommu-mode", "deferred"]],
    ids=["compile-ping", "storage"])
def test_cli_trace_counters_are_the_metrics_counters(argv, tmp_path,
                                                      capsys):
    """The trace summary's counters are the traced kernel's counter
    samples, exactly as `repro-dma metrics` exports them."""
    jsonl = tmp_path / "trace.jsonl"
    chrome = tmp_path / "trace.json"
    exported = tmp_path / "metrics.json"
    assert main(["trace", *argv, "--output", str(jsonl),
                 "--chrome", str(chrome)]) == 0
    assert main(["metrics", *argv, "--format", "json",
                 "--output", str(exported)]) == 0
    summary = json.loads(jsonl.read_text().splitlines()[-1])
    # the metrics run also publishes its D-KASAN and the perfcache,
    # which a trace run does not attach: compare the kernel's own
    expected = {}
    for record in json.loads(exported.read_text())["metrics"]:
        if record["kind"] == "counter" and \
                record["subsystem"] in ("dma", "iommu", "net", "mem"):
            labels = ",".join(f"{key}={value}" for key, value
                              in sorted(record["labels"].items()))
            name = f"{record['subsystem']}/{record['name']}"
            expected[name + (f"{{{labels}}}" if labels else "")] = \
                record["value"]
    assert expected["dma/maps"] > 0
    assert summary["counters"] == expected
    rows = {(row["cat"], row["name"]): row["args"]["value"]
            for row in json.loads(chrome.read_text())["traceEvents"]
            if row["ph"] == "C"}
    assert {f"{cat}/{name}": value for (cat, name), value
            in rows.items()} == expected


def test_cli_trace_unknown_category_exits_2(capsys):
    code = main(["trace", "--categories", "dma,warp"])
    assert code == 2
    assert "unknown trace categories" in capsys.readouterr().err


def test_cli_trace_empty_capture_exits_1(capsys):
    # the attack category never fires during a plain workload
    code = main(["trace", "--workload", "compile-ping", "--rounds", "2",
                 "--categories", "attack"])
    assert code == 1
    assert "no events captured" in capsys.readouterr().err


def test_cli_trace_ringflood_chrome_and_window(tmp_path, capsys):
    jsonl = tmp_path / "rf.jsonl"
    code = main(["trace", "--workload", "ringflood", "--seed", "5",
                 "--profile-boots", "4", "--categories", "iommu,dma,attack",
                 "--output", str(jsonl), "--summary"])
    assert code == 0
    events, _summary = trace.load_jsonl(str(jsonl))
    counts = event_counts(events)
    assert counts[("attack", "ringflood:kaslr-break")] == 2  # B + E
    windows = derive_invalidation_windows(events)
    # the victim runs in deferred mode: unmaps enter the flush queue
    # and no synchronous invalidations ever appear
    assert windows.nr_windows + windows.nr_unpaired >= 1
    assert windows.nr_sync == 0
