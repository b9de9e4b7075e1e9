"""Command-line interface: ``repro-dma`` (or ``python -m repro``).

Subcommands mirror the paper's workflow:

* ``audit``     -- run SPADE over the generated driver tree (Table 2)
* ``sanitize``  -- run D-KASAN under the compile+ping workload (Fig 3)
* ``attack``    -- run one attack against a configurable victim
* ``matrix``    -- the attack-vs-defense matrix (sections 7-9)
* ``oscompare`` -- the Windows/macOS/FreeBSD scenarios (section 7)
* ``campaign``  -- parallel differential fuzzing: SPADE vs D-KASAN
  over many mutated corpora, scored against ground truth
* ``trace``     -- run a workload or attack under the flight recorder
  and export its events (JSONL, chrome://tracing, text timeline); the
  exports' counters are the traced kernel's stats, as ``metrics``
  reports them
* ``coverage``  -- report, diff, merge, or rank the persistent
  campaign coverage maps (deterministic trace-derived signatures)
* ``metrics``   -- run a workload under the metrics registry and
  export the aggregate counters (Prometheus text, JSON, /proc-style)
* ``cache``     -- inspect, clear, or differentially verify the
  analysis cache
* ``bench``     -- tracked perf benchmarks with a JSONL history and a
  rolling-median regression gate
* ``chaos``     -- run the named workloads and a differential
  campaign under a deterministic fault-injection plan; exit nonzero
  only on faults the stack failed to recover from
* ``crashtest`` -- kill a campaign at every reachable write, resume
  it, and prove findings and coverage recover byte-identically
* ``backends``  -- list or show the pluggable IOMMU backend models

Exit codes are uniform across subcommands: 0 success, 1 the
experiment ran but its claim failed (attack blocked, seeds failed),
2 bad input (argparse-style, message on stderr).
"""

from __future__ import annotations

import argparse
import os
import sys


def _fail(message: str) -> int:
    """Uniform bad-input path: argparse-style stderr message, exit 2."""
    print(f"repro-dma: error: {message}", file=sys.stderr)
    return 2


def _resolve_backend(value):
    """Validate a ``--backend`` value against the registry.

    Returns ``(canonical_name_or_None, error_message_or_None)`` --
    every ``--backend`` consumer funnels unknown names through this
    one path so they all fail identically (exit 2, same message).
    """
    if value is None:
        return None, None
    from repro import backends
    from repro.errors import BackendError
    try:
        return backends.get_backend(value).name, None
    except BackendError as exc:
        return None, str(exc)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_victim_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--boot-index", type=int, default=0)
    parser.add_argument("--iommu-mode", choices=("deferred", "strict"),
                        default="deferred")
    parser.add_argument("--forwarding", action="store_true")
    parser.add_argument("--pointer-blinding", action="store_true")
    parser.add_argument("--bounce-buffers", action="store_true")
    parser.add_argument("--damn", action="store_true")
    parser.add_argument("--randomize-layout", action="store_true")
    parser.add_argument("--cet", action="store_true",
                        help="enable CET IBT + shadow stack")
    parser.add_argument("--unmap-order",
                        choices=("unmap_first", "skb_first"),
                        default="unmap_first")


def _add_workload_args(parser: argparse.ArgumentParser, *,
                       backend_note: str) -> None:
    """The named-workload options ``trace`` and ``metrics`` share."""
    from repro.sim.workload import NAMED_WORKLOADS
    parser.add_argument("--workload", choices=tuple(NAMED_WORKLOADS),
                        default="compile-ping")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--iommu-mode", choices=("deferred", "strict"),
                        default="deferred")
    parser.add_argument("--rounds", type=_positive_int, default=20,
                        help="compile-ping workload rounds")
    parser.add_argument("--commands", type=_positive_int, default=48,
                        help="storage workload commands")
    parser.add_argument("--profile-boots", type=_positive_int, default=8,
                        help="ringflood replica boots (run before the "
                             "workload is observed)")
    parser.add_argument("--backend", metavar="NAME",
                        help="IOMMU backend model (see 'repro-dma "
                             "backends list'; default: intel-vtd); "
                             + backend_note)


def _build_victim(args):
    from repro.sim.kernel import Kernel
    kernel = Kernel(seed=args.seed, boot_index=args.boot_index,
                    iommu_mode=args.iommu_mode,
                    forwarding=args.forwarding,
                    pointer_blinding=args.pointer_blinding,
                    bounce_buffers=args.bounce_buffers,
                    damn=args.damn,
                    randomize_struct_layout=args.randomize_layout,
                    cet_ibt=args.cet, cet_shadow_stack=args.cet,
                    zerocopy_threshold=512 if args.pointer_blinding
                    else None)
    kernel.add_nic("eth0", unmap_order=args.unmap_order)
    return kernel


def cmd_audit(args) -> int:
    from repro import backends as backend_registry
    from repro.core.spade import Spade, Table2Stats
    from repro.core.spade.report import (format_finding_trace,
                                         format_table2)
    from repro.corpus import CorpusGenerator
    from repro.corpus.generate import SourceTree

    backend, error = _resolve_backend(args.backend)
    if error:
        return _fail(error)
    if backend_registry.backend_label(backend):
        # SPADE never boots a kernel; findings cannot depend on the
        # IOMMU model. Accept the flag (uniform UX with the dynamic
        # subcommands) but say so instead of silently ignoring it.
        print(f"backend {backend}: SPADE is static analysis; "
              f"findings are backend-independent")

    if args.tree:
        if not os.path.isdir(args.tree):
            return _fail(f"--tree {args.tree}: not a directory")
        tree = SourceTree.from_dir(args.tree)
        manifest = None
        if not tree.files:
            return _fail(f"--tree {args.tree}: no C sources found")
        print(f"loaded {len(tree.paths(suffix='.c'))} C files from "
              f"{args.tree}")
    else:
        if args.scale != 1.0:
            from repro.corpus.linux50 import scaled_composition
            tree, manifest = CorpusGenerator(
                seed=args.corpus_seed,
                composition=scaled_composition(args.scale)).generate()
        else:
            tree, manifest = CorpusGenerator(
                seed=args.corpus_seed).generate()
    if args.dump_tree:
        tree.write_to_dir(args.dump_tree)
        print(f"corpus written to {args.dump_tree}")
    spade = Spade(tree)
    findings = spade.analyze()
    print(format_table2(Table2Stats.from_findings(findings)))
    if args.findings_json:
        from repro import durability
        from repro.perfcache.codec import encode_findings
        durability.atomic_write_text(
            args.findings_json,
            durability.canonical_json(encode_findings(findings)) + "\n")
        print(f"wrote findings to {args.findings_json}")
    if args.trace:
        matched = [f for f in findings if args.trace in f.file]
        for finding in matched:
            print()
            print(format_finding_trace(finding))
        if not matched:
            print(f"no findings in files matching {args.trace!r}")
    if manifest is not None:
        validation = spade.validate(findings, manifest)
        print(f"\nvalidation: precision {validation.precision:.3f}, "
              f"recall {validation.recall:.3f}")
    if spade.index.parse_errors:
        print(f"({len(spade.index.parse_errors)} files failed to parse "
              f"and were skipped)")
    return 0


def cmd_sanitize(args) -> int:
    from repro.core.dkasan import DKasan, format_report
    from repro.sim.workload import run_named_workload

    kernel, detail = run_named_workload("compile-ping", args,
                                        make_sink=DKasan)
    print(f"workload: {detail}\n")
    print(format_report(kernel.sink))
    return 0


def cmd_attack(args) -> int:
    from repro.core.attacks.ringflood import make_attacker
    victim = _build_victim(args)
    nic = victim.nics["eth0"]
    device = make_attacker(victim, "eth0")

    if args.name == "ringflood":
        from repro.core.attacks.ringflood import (profile_replica_boots,
                                                  run_ringflood)
        print(f"profiling {args.profile_boots} replica boots...")
        profile = profile_replica_boots(args.profile_boots,
                                        seed=args.seed, nr_slots=48)
        report = run_ringflood(victim, nic, device, profile,
                               nr_slots=12)
    elif args.name == "poisoned-tx":
        from repro.core.attacks.poisoned_tx import run_poisoned_tx
        report = run_poisoned_tx(victim, nic, device)
    elif args.name == "forward":
        from repro.core.attacks.forward import run_forward_thinking
        report = run_forward_thinking(victim, nic, device)
    elif args.name == "blinding-bypass":
        from repro.core.attacks.blinding_bypass import run_blinding_bypass
        report = run_blinding_bypass(victim, nic, device)
    elif args.name == "single-step":
        from repro.core.attacks.singlestep import (LegacyCmdDriver,
                                                   run_single_step)
        driver = LegacyCmdDriver(victim)
        fw_device = make_attacker(victim, "fw0")
        report = run_single_step(victim, driver, fw_device)
    elif args.name == "stale-reuse":
        from repro.core.attacks.stale_reuse import run_stale_reuse
        stale = run_stale_reuse(victim, device)
        for line in stale.stage_log:
            print(f"  {line}")
        print(f"victim object corrupted: {stale.victim_corrupted}")
        return 0 if stale.victim_corrupted else 1
    else:  # memdump
        from repro.core.attacks.kaslr_leak import break_kaslr_via_tx
        from repro.core.attacks.memdump import (CommandQueueDriver,
                                                run_memory_dump)
        driver = CommandQueueDriver(victim)
        hba_device = make_attacker(victim, "hba0")
        if break_kaslr_via_tx(victim, nic, device):
            hba_device.knowledge.page_offset_base = \
                device.knowledge.page_offset_base
        dump = run_memory_dump(victim, driver, hba_device, nr_pages=16)
        for line in dump.stage_log:
            print(f"  {line}")
        return 0 if dump.pages_dumped else 1

    for line in report.stage_log:
        print(f"  {line}")
    if hasattr(report, "attributes"):
        print(report.attributes.summary())
    print(f"escalated: {report.escalated} "
          f"(uid {victim.executor.creds.uid}); victim oopses: "
          f"{victim.stack.stats.oopses}")
    return 0 if report.escalated else 1


def _trace_counters(kernel, recorder) -> dict:
    """The traced kernel's stats-struct counters, as ``repro-dma
    metrics`` publishes them, for the categories *recorder* kept:
    ``{(subsystem, "name{label=value,...}"): value}``."""
    from repro import metrics

    registry = metrics.MetricsRegistry()
    metrics.publish_kernel(registry, kernel)
    return {(sample.subsystem, metrics.export.sample_key(sample)):
            sample.value
            for sample in registry.samples(collect=False)
            if sample.kind == "counter"
            and recorder.wants(sample.subsystem)}


def _prepare_workload(args):
    """Resolve ``--backend`` and prepare ``--workload`` for ``trace``
    and ``metrics``; returns ``(boot, error)``.

    A workload's set-up (ringflood's replica profiling boots dozens of
    throwaway kernels) runs here, before the caller installs its
    recorder or registry, so its clocks and allocator churn stay out
    of the victim's numbers. ``boot(make_sink=None)`` then boots the
    victim kernel and runs the workload on it through
    :func:`~repro.sim.workload.run_named_workload`, prints the
    workload's progress line and returns the kernel.
    """
    from repro.sim.workload import NAMED_WORKLOADS, run_named_workload

    backend, error = _resolve_backend(args.backend)
    if error:
        return None, error
    prepared = NAMED_WORKLOADS[args.workload].prepare(args)

    def boot(make_sink=None):
        kernel, detail = run_named_workload(
            args.workload, args, prepared, iommu_mode=args.iommu_mode,
            backend=backend, make_sink=make_sink)
        print(f"{args.workload}: {detail}")
        return kernel

    return boot, None


def cmd_trace(args) -> int:
    from repro import trace as tracing
    from repro.report import (render_invalidation_report,
                              render_timeline, render_trace_summary)

    categories = None
    if args.categories:
        requested = tuple(dict.fromkeys(
            c.strip() for c in args.categories.split(",") if c.strip()))
        unknown = sorted(set(requested) - set(tracing.CATEGORIES))
        if unknown:
            return _fail(
                f"unknown trace categories: {', '.join(unknown)} "
                f"(choose from {', '.join(tracing.CATEGORIES)})")
        if not requested:
            return _fail("--categories: empty category list")
        categories = requested
    if tracing.active() is not None:
        return _fail("a trace session is already active")

    boot, error = _prepare_workload(args)
    if error:
        return _fail(error)
    claim_ok = True
    with tracing.session(capacity=args.capacity,
                         categories=categories) as recorder:
        kernel = boot()

        counters = _trace_counters(kernel, recorder)
        summary = tracing.summary_record(recorder, counters=counters)
        events = list(recorder.events)
        print(f"trace: {recorder.nr_events} events retained, "
              f"{recorder.nr_emitted} emitted, "
              f"{recorder.dropped} dropped")
        if recorder.nr_emitted == 0:
            print("trace claim failed: no events captured "
                  "(category filter too narrow?)", file=sys.stderr)
            claim_ok = False

        if args.output:
            nr = tracing.dump_jsonl(recorder, args.output,
                                    counters=counters)
            print(f"wrote {nr} JSONL lines to {args.output}")
        if args.chrome:
            nr = tracing.dump_chrome_trace(recorder, args.chrome,
                                           counters=counters)
            print(f"wrote {nr} chrome trace events to {args.chrome}")

    if args.timeline:
        print()
        print(render_timeline(events, last=args.last))
    if args.summary:
        print()
        print(render_trace_summary(summary))
        windows = tracing.derive_invalidation_windows(events)
        print(render_invalidation_report(windows))
    return 0 if claim_ok else 1


def cmd_metrics(args) -> int:
    from repro import metrics
    from repro.core.dkasan import DKasan

    if metrics.active() is not None:
        return _fail("a metrics session is already active")

    boot, error = _prepare_workload(args)
    if error:
        return _fail(error)
    with metrics.session() as registry:
        boot(make_sink=DKasan)

        samples = registry.samples()
        present = registry.subsystems_present(collect=False)
        print(f"metrics: {len(samples)} instruments across "
              f"{len(present)} subsystems ({', '.join(present)})")

        if args.format == "proc":
            rendered = metrics.proc_text(registry, collect=False)
        elif args.format == "json":
            import json
            rendered = json.dumps(
                metrics.json_record(registry, collect=False,
                                    seed=args.seed),
                indent=2, sort_keys=True) + "\n"
        else:  # prometheus
            rendered = metrics.prometheus_text(registry, collect=False)

        if args.output:
            from repro import durability
            durability.atomic_write_text(args.output, rendered)
            print(f"wrote {args.format} metrics to {args.output}")
        else:
            print()
            print(rendered, end="" if rendered.endswith("\n") else "\n")

    if not samples:
        print("metrics claim failed: no instruments collected",
              file=sys.stderr)
        return 1
    return 0


def cmd_matrix(args) -> int:
    from repro.core.defenses.policy import evaluate_matrix, matrix_rows
    cells = evaluate_matrix(seed=args.seed)
    for row in matrix_rows(cells):
        print(row)
    print()
    for cell in cells:
        if not cell.escalated and cell.blocked_at:
            print(f"{cell.config:20s} {cell.attack:18s} "
                  f"{cell.blocked_at[:70]}")
    return 0


def cmd_oscompare(args) -> int:
    from repro.core.attacks.other_os import (run_freebsd_scenario,
                                             run_macos_scenario,
                                             run_windows_scenario)
    from repro.core.attacks.ringflood import make_attacker
    from repro.sim.kernel import Kernel

    for runner in (run_windows_scenario, run_macos_scenario,
                   run_freebsd_scenario):
        kernel = Kernel(seed=args.seed, phys_mb=256)
        device = make_attacker(kernel, "nic0")
        report = runner(kernel, device)
        compound = ("n/a" if report.compound_escalated is None
                    else report.compound_escalated)
        print(f"{report.os_name:36s} single-step="
              f"{report.single_step_escalated!s:5s} compound={compound}")
        if report.single_step_blocked_reason:
            print(f"{'':36s}   blocked: "
                  f"{report.single_step_blocked_reason}")
    return 0


def cmd_campaign(args) -> int:
    from repro.campaign import (CampaignConfig, CorpusMutator,
                                Disagreement, format_summary,
                                run_campaign, shrink_seed)
    from repro.campaign.mutate import Mutation
    from repro.errors import BackendError, FaultError

    backend_list = None
    if args.backends:
        if args.backend:
            return _fail("campaign: --backend and --backends are "
                         "mutually exclusive")
        if args.shrink:
            return _fail("campaign: --shrink is not supported with "
                         "--backends (shrink one backend's seed via "
                         "--backend instead)")
        from repro import backends as backend_registry
        try:
            backend_list = backend_registry.parse_backends(args.backends)
        except BackendError as exc:
            return _fail(str(exc))
    backend, error = _resolve_backend(args.backend)
    if error:
        return _fail(error)

    try:
        fault_spec = _load_fault_spec(args.fault_plan)
    except FaultError as exc:
        return _fail(str(exc))
    except (OSError, ValueError) as exc:
        return _fail(f"--fault-plan {args.fault_plan}: {exc}")

    config = CampaignConfig(
        backend=backend,
        nr_seeds=args.seeds, seed_base=args.seed_base, jobs=args.jobs,
        base_seed=args.base_seed,
        mutations_per_seed=args.mutations, timeout_s=args.timeout,
        scale=args.scale, output=args.output, resume=args.resume,
        trace_events=args.trace_events,
        cache_dir=args.cache_dir or None,
        retry=args.retry,
        fault_spec=fault_spec.to_json() if fault_spec else None)

    if config.output:
        try:
            parent = os.path.dirname(config.output)
            if parent:
                os.makedirs(parent, exist_ok=True)
            with open(config.output, "a", encoding="utf-8"):
                pass
        except OSError as exc:
            return _fail(f"--output {config.output}: "
                         f"{exc.strerror or exc}")

    from repro.coverage import SaturationTracker, format_saturation
    seen_features: set = set()
    saturation = SaturationTracker()

    def note_coverage(record: dict, resumed: bool = False) -> None:
        # the live saturation line: printed when a seed contributes a
        # new feature map-wide or when the plateau flag flips on, so a
        # long saturated campaign stays quiet instead of repeating
        # itself after every seed
        coverage = record.get("coverage")
        if record.get("status") != "ok" or not coverage:
            return
        novel = sum(1 for name in coverage.get("features", {})
                    if name not in seen_features)
        seen_features.update(coverage.get("features", {}))
        was_plateaued = saturation.plateaued
        saturation.feed(novel, resumed=resumed)
        if not resumed and (novel
                          or (saturation.plateaued and not was_plateaued)):
            print(format_saturation(saturation))

    def progress(record: dict, prefix: str = "") -> None:
        status = record["status"]
        extra = ""
        if status == "ok":
            extra = f" ({len(record['disagreements'])} disagreements)"
        print(f"{prefix}seed {record['seed']}: {status} "
              f"in {record['duration_s']:.2f}s{extra}")
        note_coverage(record)

    sharded = bool(args.shard_dir or args.merge)
    if sharded:
        if backend_list:
            return _fail("campaign: sharded mode composes with a "
                         "single --backend, not --backends")
        if args.shrink:
            return _fail("campaign: --shrink is not supported in "
                         "sharded mode (shrink from the merged "
                         "results instead)")
        if not config.output:
            return _fail("campaign: sharded mode needs --output")
    elif backend_list and not config.output:
        return _fail("campaign: --backends needs an --output stem "
                     "for the per-backend results files")

    try:
        if sharded:
            from repro.campaign.shard import (merge_shards,
                                              missing_seeds_message,
                                              pending_shards,
                                              run_sharded_campaign)
            from repro.errors import CampaignError
            try:
                if args.shard_dir:
                    nr_run = run_sharded_campaign(
                        config, args.shard_dir,
                        shard_size=args.shard_size,
                        stale_after_s=args.stale_claim,
                        progress=progress,
                        log=print)
                    pending = pending_shards(config, args.shard_dir,
                                             shard_size=args.shard_size)
                    print(f"sharded campaign: this runner completed "
                          f"{nr_run} shard(s); {len(pending)} still "
                          f"pending queue-wide")
                    if pending and not args.merge:
                        return 0
                    if pending and args.merge:
                        print("campaign: waiting shards remain; merging "
                              "what is done (re-run --merge later for "
                              "the rest)")
                summary = merge_shards(
                    config, shard_size=args.shard_size,
                    on_missing=lambda missing: print(
                        missing_seeds_message(missing), file=sys.stderr),
                    shard_dir=args.shard_dir or None,
                    stale_after_s=args.stale_claim)
            except CampaignError as exc:
                return _fail(f"campaign: {exc}")
        elif backend_list:
            from repro.campaign import run_multi_backend_campaign
            multi = run_multi_backend_campaign(
                config, list(backend_list),
                progress=lambda name, record: progress(record,
                                                       f"[{name}] "))
        else:
            if config.resume and config.output:
                # the resumed seeds' features are already in the map,
                # so the first new seed's are not all new
                from repro.campaign.results import load_records
                wanted = set(config.seeds)
                for seed, record in sorted(
                        load_records(config.output).items()):
                    if seed in wanted:
                        note_coverage(record, resumed=True)
            summary = run_campaign(config, progress=progress)
    finally:
        if config.cache_dir:
            # don't leak the campaign's disk-backed cache into the
            # process-wide default other subcommands/tests see
            from repro import perfcache
            perfcache.reset_default()

    if backend_list:
        from repro.campaign import format_multi_backend_summary
        for name in multi.backends:
            print()
            print(f"== backend {name} ==")
            print(format_summary(multi.summaries[name]))
        print()
        print(format_multi_backend_summary(multi))
        return 0 if multi.all_ok else 1
    print()
    print(format_summary(summary))

    if args.shrink and summary.disagreeing_seeds:
        from repro.campaign.results import load_records
        records = load_records(config.output) if config.output else {}
        seed = summary.disagreeing_seeds[0]
        record = records.get(seed)
        if record and record.get("disagreements"):
            # prefer a mutation-induced disagreement (spade-miss) over
            # the structural dkasan-miss/stack ones the base corpus
            # already carries -- shrinking the latter is vacuous
            raw = record["disagreements"]
            chosen = next((d for d in raw if d["verdict"] == "spade-miss"),
                          raw[0])
            target = Disagreement.from_json(chosen)
            mutations = [Mutation.from_json(m)
                         for m in record["mutations"]]
            mutator = CorpusMutator(config.base_seed,
                                    scale=config.scale)
            shrunk = shrink_seed(mutator, seed, mutations, target)
            print(f"\nshrunk seed {seed}: {len(mutations)} -> "
                  f"{len(shrunk.mutations)} mutation(s) in "
                  f"{shrunk.evaluations} evaluations "
                  f"(target: {target.verdict} @ {target.path})")
            if not shrunk.mutations:
                print("  disagreement exists in the unmutated base "
                      "corpus; no mutation is responsible")
            for mutation in shrunk.mutations:
                print(f"  {mutation.kind} {mutation.path} "
                      f"{mutation.detail}".rstrip())
    return 0 if summary.all_ok else 1


def cmd_cache(args) -> int:
    from repro import perfcache

    directory = args.cache_dir or os.environ.get("REPRO_CACHE_DIR")

    if args.action in ("stats", "clear"):
        if not directory:
            return _fail(f"cache {args.action}: no cache directory "
                         f"(--cache-dir or REPRO_CACHE_DIR)")
        cache = perfcache.PerfCache(directory)
        if not cache.is_cache_directory():
            return _fail(f"cache {args.action}: {directory} exists but "
                         f"is not a repro cache directory")

    if args.action == "stats":
        from repro import metrics
        from repro.report import render_cache_usage
        registry = metrics.MetricsRegistry()
        metrics.publish_perfcache(registry,
                                  cache.aggregate_persisted_stats())
        print(render_cache_usage(cache.disk_usage()))
        print(metrics.proc_text(registry, collect=False), end="")
        return 0

    if args.action == "clear":
        removed = cache.clear_disk()
        print(f"removed {removed} entries from {directory}")
        return 0

    # verify: the differential correctness gate -- every cached tier
    # ``repro-dma bench`` times must reproduce the uncached run's
    # findings and Table 2 byte for byte
    from repro.perfcache.bench import spade_tiers

    if args.scale <= 0:
        return _fail(f"cache verify: bad --scale {args.scale}")
    spade = spade_tiers(scale=args.scale, corpus_seed=args.corpus_seed,
                        cache_dir=directory)
    for mismatch in spade["mismatches"]:
        print(f"cache verify: FAIL -- {mismatch}: cached != uncached")
    if spade["mismatches"]:
        return 1
    print(f"cache verify: OK -- cached == uncached "
          f"({spade['nr_findings']} findings, Table 2 identical)")
    return 0


def cmd_coverage(args) -> int:
    from repro.coverage import CoverageMap
    from repro.errors import CampaignError

    def load_map(path: str) -> "CoverageMap":
        # both artifact kinds are accepted everywhere a map is read:
        # a saved .coverage.json, or a campaign results .jsonl folded
        # through the same per-record observation the runner uses
        if path.endswith(".jsonl"):
            return CoverageMap.from_results(path)
        return CoverageMap.load(path)

    try:
        if args.coverage_cmd == "merge":
            merged = CoverageMap()
            for path in args.inputs:
                merged.merge(load_map(path))
            merged.save(args.output)
            print(f"merged {len(args.inputs)} map(s) -> {args.output}: "
                  f"{merged.nr_features} features across "
                  f"{merged.nr_seeds} seed(s)")
            print(f"digest: {merged.digest}")
            return 0

        if args.coverage_cmd == "diff":
            left, right = load_map(args.left), load_map(args.right)
            left_set, right_set = left.feature_set(), right.feature_set()
            print(f"common features: {len(left_set & right_set)}")
            print(f"only in {args.left}: {len(left_set - right_set)}")
            for name in sorted(left_set - right_set):
                print(f"  + {name}")
            print(f"only in {args.right}: {len(right_set - left_set)}")
            for name in sorted(right_set - left_set):
                print(f"  + {name}")
            return 0

        cover = load_map(args.path)
    except CampaignError as exc:
        return _fail(f"coverage {args.coverage_cmd}: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(f"coverage {args.coverage_cmd}: {exc}")

    if args.coverage_cmd == "top":
        rows = cover.seed_ranking()[:args.limit]
        print(f"top {len(rows)} seed(s) by unique feature "
              f"contribution:")
        for row in rows:
            print(f"  seed {row['seed']:>6} [{row['lane']}]  "
                  f"unique={row['unique_features']:>3}  "
                  f"features={row['nr_features']}")
        return 0

    # report
    from repro.report import render_coverage_stats
    print(f"coverage report: {args.path}")
    print(f"digest: {cover.digest}")
    print()
    print(render_coverage_stats(cover))
    groups = sorted(cover.group_stats())
    print(f"subsystems represented: {len(groups)} "
          f"({', '.join(groups)})" if groups else
          "subsystems represented: 0")
    return 0


def _load_fault_spec(path: str | None):
    """The fault spec in the plan file at *path*, else None."""
    import json

    from repro import faults

    if not path:
        return None
    with open(path, encoding="utf-8") as handle:
        return faults.FaultSpec.from_json(json.load(handle))


def cmd_chaos(args) -> int:
    import tempfile

    from repro import faults, metrics
    from repro.errors import FaultError
    from repro.faults.chaos import format_chaos_report, run_chaos

    backend, error = _resolve_backend(args.backend)
    if error:
        return _fail(error)
    try:
        spec = _load_fault_spec(args.plan)
    except FaultError as exc:
        return _fail(str(exc))
    except (OSError, ValueError) as exc:
        return _fail(f"chaos: cannot load --plan {args.plan}: {exc}")
    if spec is None:
        spec = faults.standard_spec(args.plan_seed)
    if not spec.rules:
        return _fail("chaos: the fault plan has no rules")
    if metrics.active() is not None:
        return _fail("a metrics session is already active")

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as scratch, \
            metrics.session() as registry:
        report = run_chaos(spec, scratch, seed=args.seed,
                           rounds=args.rounds, commands=args.commands,
                           profile_boots=args.profile_boots,
                           campaign_seeds=args.campaign_seeds,
                           campaign_scale=args.campaign_scale,
                           jobs=args.jobs, retry=args.retry,
                           backend=backend)
        rendered = metrics.prometheus_text(registry, collect=False)

    print(format_chaos_report(report))
    if args.metrics_output:
        from repro import durability
        durability.atomic_write_text(args.metrics_output, rendered)
        print(f"wrote prometheus metrics to {args.metrics_output}")
    return 0 if report.ok else 1


def cmd_crashtest(args) -> int:
    from repro.durability import CRASH_SITES
    from repro.durability.crashtest import (CrashtestConfig,
                                            format_crashtest_report,
                                            run_crashtest)

    backend, error = _resolve_backend(args.backend)
    if error:
        return _fail(error)
    sites = None
    if args.sites:
        sites = tuple(site.strip() for site in args.sites.split(",")
                      if site.strip())
        unknown = [site for site in sites if site not in CRASH_SITES]
        if unknown:
            return _fail(f"crashtest: unknown crash site(s) "
                         f"{', '.join(unknown)} (valid: "
                         f"{', '.join(CRASH_SITES)})")
    config = CrashtestConfig(
        seeds=args.seeds, scale=args.scale, jobs=args.jobs,
        mutations=args.mutations, backend=backend,
        max_per_site=args.max_per_site, sites=sites,
        max_points=args.max_points,
        torn_offsets=max(0, args.torn_offsets),
        timeout_s=args.timeout)
    report = run_crashtest(config, log=print)
    print(format_crashtest_report(report))
    return 0 if report.ok else 1


def cmd_bench(args) -> int:
    from repro.perfcache import bench, history

    backend, error = _resolve_backend(args.backend)
    if error:
        return _fail(error)
    # scaling lanes: 1 (the baseline), 2 (the smallest parallel point)
    # and the requested top width; ``--jobs 1`` is the single lane
    jobs = tuple(sorted({1, min(2, args.jobs), args.jobs}))
    report = bench.run_benchmarks(
        scale=args.scale, campaign_seeds=args.campaign_seeds,
        campaign_scale=args.campaign_scale, jobs=jobs, backend=backend)
    bench.write_report(report, args.output)
    print(bench.format_report(report))
    print(f"wrote {args.output}")
    ok = report["ok"]

    record = history.history_record(report)
    # compare against prior runs of a comparable configuration only,
    # and *before* appending (a run never gates against itself)
    prior = history.load_history(args.history,
                                 signature=record["signature"])
    if args.check:
        regressions = history.check_regressions(record, prior)
        print(history.format_regressions(regressions))
        gate = history.parallel_ratio_gate(
            record, min_ratio=args.min_parallel_ratio)
        if gate:
            print(gate)
            ok = False
        else:
            warning = history.parallel_scaling_warning(record)
            if warning:
                # gate disabled (or no parallel lane): still surface
                # a slower-than-serial campaign every run
                print(warning)
        if regressions:
            ok = False
    if args.record:
        history.append_history(args.history, record)
        print(f"recorded run in {args.history} "
              f"({len(prior) + 1} comparable run(s) on record)")
    return 0 if ok else 1


def cmd_backends(args) -> int:
    import json

    from repro import backends
    from repro.errors import BackendError

    if args.action == "list":
        doc = {
            "default": backends.DEFAULT_BACKEND_NAME,
            "backends": {name: backends.get_backend(name).to_json()
                         for name in backends.backend_names()},
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    # show
    if not args.name:
        return _fail("backends show: a backend name is required")
    try:
        spec = backends.get_backend(args.name)
    except BackendError as exc:
        return _fail(str(exc))
    print(json.dumps(spec.to_json(), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro-dma",
        description="EuroSys '21 DMA-attack reproduction toolkit",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="environment:\n"
               "  REPRO_CACHE=off        disable the analysis cache "
               "process-wide\n"
               "  REPRO_CACHE_DIR=DIR    enable the shared on-disk "
               "cache tier at DIR\n"
               "  REPRO_DURABILITY=MODE  atomic|fsync: how every "
               "artifact is written (default atomic)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser("audit", help="SPADE static analysis")
    audit.add_argument("--tree", metavar="DIR",
                       help="analyze a real source directory instead "
                            "of the generated corpus")
    audit.add_argument("--corpus-seed", type=int, default=2021)
    audit.add_argument("--scale", type=_positive_float, default=1.0,
                       help="scale the generated corpus")
    audit.add_argument("--findings-json", metavar="PATH",
                       help="write the canonical findings JSON")
    audit.add_argument("--dump-tree", metavar="DIR")
    audit.add_argument("--trace", metavar="FILE_SUBSTR",
                       help="print Figure-2 traces for matching files")
    audit.add_argument("--backend", metavar="NAME",
                       help="IOMMU backend model (see 'repro-dma "
                            "backends list'); accepted for uniformity "
                            "-- SPADE findings are backend-independent")
    audit.set_defaults(func=cmd_audit)

    sanitize = sub.add_parser("sanitize", help="D-KASAN runtime run")
    sanitize.add_argument("--seed", type=int, default=9)
    sanitize.add_argument("--rounds", type=_positive_int, default=40)
    sanitize.set_defaults(func=cmd_sanitize)

    attack = sub.add_parser("attack", help="run one attack")
    attack.add_argument("name", choices=(
        "ringflood", "poisoned-tx", "forward", "blinding-bypass",
        "single-step", "stale-reuse", "memdump"))
    attack.add_argument("--profile-boots", type=_positive_int,
                        default=24)
    _add_victim_args(attack)
    attack.set_defaults(func=cmd_attack)

    campaign = sub.add_parser(
        "campaign",
        help="differential SPADE-vs-D-KASAN fuzzing campaign")
    campaign.add_argument("--seeds", type=_positive_int, default=20,
                          help="number of campaign seeds")
    campaign.add_argument("--seed-base", type=int, default=1,
                          help="first campaign seed value")
    campaign.add_argument("--jobs", type=_positive_int, default=1,
                          help="parallel worker processes")
    campaign.add_argument("--base-seed", type=int, default=2021,
                          help="repro.corpus seed the mutants derive "
                               "from")
    campaign.add_argument("--mutations", type=_positive_int, default=6,
                          help="mutations applied per seed")
    campaign.add_argument("--timeout", type=_positive_float,
                          default=120.0, metavar="SECONDS",
                          help="per-seed timeout (at --jobs > 1, a "
                               "seed running past half of it is named "
                               "on stderr)")
    campaign.add_argument("--scale", type=_positive_float, default=1.0,
                          help="corpus size factor (e.g. 0.1 for a "
                               "fast smoke campaign)")
    campaign.add_argument("--output", default="campaign/results.jsonl",
                          help="JSONL results path")
    campaign.add_argument("--resume", action="store_true",
                          help="skip seeds already recorded as ok in "
                               "--output")
    campaign.add_argument("--trace-events", type=int, default=64,
                          metavar="N",
                          help="attach the last N flight-recorder "
                               "events to disagreeing seeds "
                               "(0 disables tracing)")
    campaign.add_argument("--shrink", action="store_true",
                          help="ddmin the first disagreeing seed down "
                               "to a minimal mutation set")
    campaign.add_argument("--cache-dir", default="campaign/cache",
                          metavar="DIR",
                          help="shared on-disk analysis cache workers "
                               "warm from (pass '' to disable; "
                               "default: %(default)s)")
    campaign.add_argument("--retry", type=int, default=0, metavar="N",
                          help="re-run a failing seed (error, timeout, "
                               "crash, injected fault) up to N times")
    campaign.add_argument("--fault-plan", metavar="PLAN.json",
                          help="arm a repro.faults plan inside every "
                               "worker (stream=seed, attempt=retry "
                               "number)")
    campaign.add_argument("--backend", metavar="NAME",
                          help="IOMMU backend model for the dynamic "
                               "replay (see 'repro-dma backends "
                               "list'; default: intel-vtd)")
    campaign.add_argument("--backends", metavar="NAME,NAME[,...]",
                          help="cross-backend differential mode: run "
                               "every seed against each listed "
                               "backend and record backend-dependent "
                               "disagreements in "
                               "<output-stem>.cross.jsonl")
    campaign.add_argument("--shard-dir", metavar="DIR",
                          help="sharded work-queue mode: claim seed "
                               "ranges from DIR's atomic claim files "
                               "(run N independent processes with the "
                               "same command line to scale out); each "
                               "shard writes <stem>.shard-K.jsonl")
    campaign.add_argument("--shard-size", type=_positive_int,
                          default=25, metavar="N",
                          help="seeds per claimable shard "
                               "(default: %(default)s)")
    campaign.add_argument("--stale-claim", type=_positive_float,
                          default=300.0, metavar="SECONDS",
                          help="steal a claim untouched for this long "
                               "with no done marker (a killed "
                               "runner's range becomes re-claimable; "
                               "default: %(default)s)")
    campaign.add_argument("--merge", action="store_true",
                          help="combine the shard files into --output "
                               "with dedupe + torn-tail healing "
                               "(alone: merge only; with --shard-dir: "
                               "drain the queue, then merge)")
    campaign.set_defaults(func=cmd_campaign)

    trace = sub.add_parser(
        "trace",
        help="run a workload under the flight recorder")
    _add_workload_args(trace, backend_note="non-default backends tag "
                                           "their trace events with a "
                                           "'backend' field")
    trace.add_argument("--categories", metavar="CAT[,CAT...]",
                       help="comma-separated trace categories "
                            "(default: all)")
    trace.add_argument("--capacity", type=_positive_int,
                       default=65536,
                       help="ring capacity (drop-oldest beyond this)")
    trace.add_argument("--output", metavar="PATH",
                       help="write the event stream as JSONL")
    trace.add_argument("--chrome", metavar="PATH",
                       help="write a chrome://tracing JSON file")
    trace.add_argument("--timeline", action="store_true",
                       help="print a text timeline")
    trace.add_argument("--last", type=_positive_int, default=None,
                       help="limit the timeline to the last N events")
    trace.add_argument("--summary", action="store_true",
                       help="print event and drop counts, the "
                            "traced kernel's counters (as 'repro-dma "
                            "metrics' reports them), and the "
                            "trace-derived invalidation windows")
    trace.set_defaults(func=cmd_trace)

    coverage = sub.add_parser(
        "coverage",
        help="inspect, diff, merge, or rank campaign coverage maps")
    coverage_sub = coverage.add_subparsers(dest="coverage_cmd",
                                           required=True)
    cov_report = coverage_sub.add_parser(
        "report",
        help="summarize one coverage map (features, lanes, per-"
             "subsystem density)")
    cov_report.add_argument("path",
                            help="a .coverage.json map or a campaign "
                                 "results .jsonl")
    cov_report.set_defaults(func=cmd_coverage)
    cov_diff = coverage_sub.add_parser(
        "diff",
        help="feature-set diff between two maps (e.g. intel-vtd vs "
             "arm-smmuv3 lanes)")
    cov_diff.add_argument("left")
    cov_diff.add_argument("right")
    cov_diff.set_defaults(func=cmd_coverage)
    cov_merge = coverage_sub.add_parser(
        "merge",
        help="union maps into --output; merging shard maps is byte-"
             "identical to the unsharded map")
    cov_merge.add_argument("inputs", nargs="+",
                           help="maps or results files to union")
    cov_merge.add_argument("--output", required=True, metavar="PATH",
                           help="merged map destination")
    cov_merge.set_defaults(func=cmd_coverage)
    cov_top = coverage_sub.add_parser(
        "top",
        help="seeds ranked by features unique to them map-wide")
    cov_top.add_argument("path")
    cov_top.add_argument("--limit", type=_positive_int, default=10,
                         help="rows to print (default: %(default)s)")
    cov_top.set_defaults(func=cmd_coverage)

    cache = sub.add_parser(
        "cache",
        help="inspect, clear, or differentially verify the analysis "
             "cache")
    cache.add_argument("action", choices=("stats", "clear", "verify"))
    cache.add_argument("--cache-dir", metavar="DIR",
                       help="cache directory (default: "
                            "$REPRO_CACHE_DIR)")
    cache.add_argument("--corpus-seed", type=int, default=2021,
                       help="corpus seed for verify")
    cache.add_argument("--scale", type=float, default=0.25,
                       help="corpus scale for verify")
    cache.set_defaults(func=cmd_cache)

    bench = sub.add_parser(
        "bench",
        help="run the tracked perf benchmarks, write BENCH_perf.json")
    bench.add_argument("--output", default="BENCH_perf.json",
                       help="report path (default: %(default)s)")
    bench.add_argument("--scale", type=_positive_float, default=1.0,
                       help="SPADE corpus scale")
    bench.add_argument("--campaign-seeds", type=_positive_int,
                       default=16, help="seeds per campaign lane "
                       "(default: %(default)s)")
    bench.add_argument("--campaign-scale", type=_positive_float,
                       default=0.1, help="campaign corpus scale")
    bench.add_argument("--jobs", type=_positive_int, default=4,
                       help="widest campaign scaling lane; the bench "
                            "also runs jobs=1 and, when wider, jobs=2")
    bench.add_argument("--history", default="BENCH_history.jsonl",
                       metavar="PATH",
                       help="JSONL bench trajectory "
                            "(default: %(default)s)")
    bench.add_argument("--record", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="append this run to --history "
                            "(--no-record to skip)")
    bench.add_argument("--check", action="store_true",
                       help="fail (exit 1) when a tracked metric "
                            "regresses past the gate vs the rolling "
                            "median of comparable prior runs")
    bench.add_argument("--backend", metavar="NAME",
                       help="IOMMU backend model for the campaign "
                            "bench; per-backend runs "
                            "get their own history signature and "
                            "never cross-gate")
    bench.add_argument("--min-parallel-ratio", type=float, default=1.5,
                       metavar="RATIO",
                       help="--check fails when the jobs=N/jobs=1 "
                            "campaign throughput ratio drops below "
                            "this (0 disables; default: %(default)s)")
    bench.set_defaults(func=cmd_bench)

    chaos = sub.add_parser(
        "chaos",
        help="run the named workloads and a differential campaign "
             "under a deterministic fault-injection plan")
    chaos.add_argument("--plan", metavar="PLAN.json",
                       help="fault plan file (default: the built-in "
                            "recoverable plan)")
    chaos.add_argument("--plan-seed", type=int, default=0,
                       help="seed for the built-in plan's RNG streams")
    chaos.add_argument("--seed", type=int, default=5,
                       help="kernel seed for the phase-A workloads")
    chaos.add_argument("--rounds", type=_positive_int, default=40,
                       help="compile-ping workload rounds")
    chaos.add_argument("--commands", type=_positive_int, default=48,
                       help="storage workload commands")
    chaos.add_argument("--profile-boots", type=_positive_int, default=8,
                       help="ringflood replica boots (fault-free)")
    chaos.add_argument("--campaign-seeds", type=_positive_int,
                       default=2,
                       help="seeds for the phase-B differential "
                            "campaign")
    chaos.add_argument("--campaign-scale", type=_positive_float,
                       default=0.08,
                       help="corpus scale for the phase-B campaign")
    chaos.add_argument("--jobs", type=_positive_int, default=1,
                       help="phase-B campaign worker processes")
    chaos.add_argument("--retry", type=int, default=2,
                       help="phase-B per-seed retry budget")
    chaos.add_argument("--metrics-output", metavar="PATH",
                       help="write the run's Prometheus metrics "
                            "(including faults_injected counters) "
                            "to PATH")
    chaos.add_argument("--backend", metavar="NAME",
                       help="IOMMU backend model for the phase-A "
                            "workloads and phase-B campaign replay")
    chaos.set_defaults(func=cmd_chaos)

    crashtest = sub.add_parser(
        "crashtest",
        help="kill a campaign at every reachable write, resume it, "
             "and prove findings + coverage recover byte-identically")
    crashtest.add_argument("--seeds", type=_positive_int, default=2,
                           help="campaign seeds per run "
                                "(default: %(default)s)")
    crashtest.add_argument("--scale", type=_positive_float,
                           default=0.08,
                           help="corpus scale per run "
                                "(default: %(default)s)")
    crashtest.add_argument("--jobs", type=_positive_int, default=1,
                           help="campaign worker processes (jobs=1 is "
                                "the deterministic enumeration lane; "
                                "jobs>1 exercises the coordinator "
                                "under parallel load)")
    crashtest.add_argument("--mutations", type=_positive_int,
                           default=3,
                           help="mutations per seed "
                                "(default: %(default)s)")
    crashtest.add_argument("--max-per-site", type=_positive_int,
                           default=2, metavar="N",
                           help="kill points exercised per crash site "
                                "(first/last/spread; default: "
                                "%(default)s)")
    crashtest.add_argument("--max-points", type=_positive_int,
                           default=None, metavar="N",
                           help="hard cap on kill points across all "
                                "sites (default: no cap)")
    crashtest.add_argument("--sites", metavar="SITE[,SITE...]",
                           help="restrict to these durability.* crash "
                                "sites (default: every site the "
                                "census reports reachable)")
    crashtest.add_argument("--torn-offsets", type=int, default=4,
                           metavar="N",
                           help="byte offsets truncated per artifact "
                                "in the torn-write matrix (0 "
                                "disables; default: %(default)s)")
    crashtest.add_argument("--timeout", type=_positive_float,
                           default=600.0, metavar="SECONDS",
                           help="per-subprocess timeout "
                                "(default: %(default)s)")
    crashtest.add_argument("--backend", metavar="NAME",
                           help="IOMMU backend model for the "
                                "campaigns")
    crashtest.set_defaults(func=cmd_crashtest)

    metrics = sub.add_parser(
        "metrics",
        help="run a workload under the metrics registry and export "
             "the aggregate counters")
    _add_workload_args(metrics, backend_note="non-default backends "
                                             "label their iommu metric "
                                             "families with backend=NAME")
    metrics.add_argument("--format",
                         choices=("prometheus", "json", "proc"),
                         default="prometheus",
                         help="export format (proc = /proc-style "
                              "snapshot text)")
    metrics.add_argument("--output", metavar="PATH",
                         help="write the export to PATH instead of "
                              "stdout")
    metrics.set_defaults(func=cmd_metrics)

    matrix = sub.add_parser("matrix", help="defense matrix")
    matrix.add_argument("--seed", type=int, default=1)
    matrix.set_defaults(func=cmd_matrix)

    oscompare = sub.add_parser("oscompare",
                               help="section 7 OS comparison")
    oscompare.add_argument("--seed", type=int, default=81)
    oscompare.set_defaults(func=cmd_oscompare)

    backends_cmd = sub.add_parser(
        "backends",
        help="list or show the pluggable IOMMU backend models")
    backends_cmd.add_argument("action", choices=("list", "show"))
    backends_cmd.add_argument("name", nargs="?",
                              help="backend name (show only)")
    backends_cmd.set_defaults(func=cmd_backends)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout went away mid-print (e.g. `backends list | head`);
        # the downstream consumer got what it asked for
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
