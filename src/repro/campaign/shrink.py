"""Delta-debugging shrinker for disagreeing seeds.

A campaign seed that produces a static-vs-dynamic disagreement
usually carries several mutations, most of them innocent noise. The
shrinker bisects the mutation list ddmin-style: it repeatedly tries
dropping complements of ever-finer chunks, keeping any subset that
still reproduces the target disagreement, until no single mutation can
be removed. The result is the minimal mutated tree that splits the
detectors -- the artifact you attach to a detector bug report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.campaign.mutate import CorpusMutator, MutatedCorpus, Mutation
from repro.campaign.oracle import Disagreement, run_differential
from repro.errors import CampaignError


@dataclass
class ShrinkResult:
    """A minimal reproducing mutation set and its derived tree."""

    mutations: list[Mutation]
    corpus: MutatedCorpus
    evaluations: int = 0
    history: list[int] = field(default_factory=list)  # sizes over time


def matches_target(disagreement: Disagreement, target: Disagreement
                   ) -> bool:
    """Same file, same in-file site, same verdict.

    Line numbers shift as mutations are dropped, so identity is the
    line-stable (path, site_index) pair, not the raw line.
    """
    return (disagreement.path == target.path
            and disagreement.site_index == target.site_index
            and disagreement.verdict == target.verdict)


def disagreement_predicate(mutator: CorpusMutator, seed: int,
                           target: Disagreement
                           ) -> Callable[[list[Mutation]], bool]:
    """True iff applying the subset still reproduces *target*."""

    def predicate(mutations: list[Mutation]) -> bool:
        mutated = mutator.apply(mutations)
        result = run_differential(mutated.tree, mutated.manifest,
                                  seed=seed, base=mutator.base_spade())
        return any(matches_target(d, target)
                   for d in result.disagreements)

    return predicate


def shrink_mutations(mutations: list[Mutation],
                     predicate: Callable[[list[Mutation]], bool], *,
                     max_evaluations: int = 128
                     ) -> tuple[list[Mutation], int, list[int]]:
    """ddmin: the shortest sublist on which *predicate* still holds."""
    if not predicate(list(mutations)):
        raise CampaignError(
            "shrink target does not reproduce under the full "
            "mutation list")
    # a disagreement already present in the unmutated base shrinks to
    # the empty set -- otherwise ddmin would converge to an arbitrary
    # singleton and falsely implicate an innocent mutation
    if mutations and predicate([]):
        return [], 2, [len(mutations), 0]
    current = list(mutations)
    history = [len(current)]
    granularity = 2
    evaluations = 1 + bool(mutations)
    while len(current) >= 2 and evaluations < max_evaluations:
        chunk = math.ceil(len(current) / granularity)
        reduced = False
        for start in range(0, len(current), chunk):
            complement = current[:start] + current[start + chunk:]
            if not complement:
                continue
            evaluations += 1
            if predicate(complement):
                current = complement
                history.append(len(current))
                granularity = max(granularity - 1, 2)
                reduced = True
                break
            if evaluations >= max_evaluations:
                break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    return current, evaluations, history


def shrink_seed(mutator: CorpusMutator, seed: int,
                mutations: list[Mutation], target: Disagreement, *,
                max_evaluations: int = 128) -> ShrinkResult:
    """Minimize one seed's mutations against one target disagreement."""
    predicate = disagreement_predicate(mutator, seed, target)
    minimal, evaluations, history = shrink_mutations(
        mutations, predicate, max_evaluations=max_evaluations)
    return ShrinkResult(minimal, mutator.apply(minimal),
                        evaluations=evaluations, history=history)
