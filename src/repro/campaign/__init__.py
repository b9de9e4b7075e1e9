"""repro.campaign: parallel differential fuzzing campaigns.

Pits SPADE (static) against D-KASAN (dynamic) over many mutated
corpora with per-call-site ground truth, at corpus scale:

* :class:`~repro.campaign.mutate.CorpusMutator` -- randomized driver
  trees derived from :mod:`repro.corpus`, manifests kept exact;
* :func:`~repro.campaign.oracle.run_differential` -- score both
  detectors against one tree's ground truth;
* :func:`~repro.campaign.runner.run_campaign` -- fan seeds out over
  warm worker processes sharing one base-corpus snapshot, with
  per-seed timeouts, crash capture, JSONL streaming, and resume;
* :func:`~repro.campaign.shard.run_sharded_campaign` -- scale past one
  process tree: independent runners claim seed ranges from a dir-based
  work queue and a merge step folds the shards back together;
* :func:`~repro.campaign.shrink.shrink_seed` -- ddmin a disagreeing
  seed's mutations down to a minimal reproducing tree.
"""

from repro.campaign.differential import (BACKEND_DISAGREEMENT_KINDS,
                                         MultiBackendSummary,
                                         backend_results_path,
                                         cross_backend_disagreements,
                                         cross_results_path,
                                         format_multi_backend_summary,
                                         run_multi_backend_campaign)
from repro.campaign.mutate import (MUTATION_KINDS, CorpusMutator,
                                   MutatedCorpus, Mutation)
from repro.campaign.oracle import (Disagreement, DetectorScore,
                                   DifferentialResult, run_differential)
from repro.campaign.results import (CampaignSummary, format_summary,
                                    load_records, summarize)
from repro.campaign.runner import CampaignConfig, run_campaign, run_seed
from repro.campaign.shard import (Shard, format_seed_ranges,
                                  merge_shards, missing_seeds_message,
                                  plan_shards, run_sharded_campaign,
                                  shard_results_path)
from repro.campaign.shrink import ShrinkResult, shrink_seed

__all__ = [
    "MUTATION_KINDS", "CorpusMutator", "MutatedCorpus", "Mutation",
    "Disagreement", "DetectorScore", "DifferentialResult",
    "run_differential", "CampaignSummary", "format_summary",
    "load_records", "summarize", "CampaignConfig", "run_campaign",
    "run_seed", "ShrinkResult", "shrink_seed",
    "BACKEND_DISAGREEMENT_KINDS", "MultiBackendSummary",
    "backend_results_path", "cross_backend_disagreements",
    "cross_results_path", "format_multi_backend_summary",
    "run_multi_backend_campaign", "Shard", "format_seed_ranges",
    "merge_shards", "missing_seeds_message",
    "plan_shards", "run_sharded_campaign", "shard_results_path",
]
