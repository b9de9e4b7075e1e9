"""Delta SPADE is exact: a delta analysis == a full analysis.

``Spade(tree, base=...)`` re-classifies only the sites a seed's
mutations can have changed and reuses the base analysis's
findings for the rest. These tests hold its findings byte-equal
(``encode_findings``) to an uncached full ``Spade(tree)`` over planned
campaign seeds, random subsets of their mutations and edits chosen to
defeat a careless read set, and check that no seed alters the shared
base findings.
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import perfcache
from repro.campaign.mutate import CorpusMutator, MutatedCorpus, Mutation
from repro.campaign.runner import run_seed
from repro.core.spade import Spade, analyzer
from repro.corpus.generate import SourceTree
from repro.perfcache.codec import encode_findings

SCALE = 0.1
#: a driver whose dma-map site maps a parameter of a function called
#: only from its own file, and a driver in another directory
CALLEE_FILE = "drivers/scsi/yarzetwim/yarzetwim_main.c"
OTHER_FILE = "drivers/block/benvex/benvex_main.c"
#: a file whose first dma-map site is DMA_BIDIRECTIONAL, so a
#: swap-direction mutation of it rewrites nothing
BIDIRECTIONAL_FILE = "drivers/firewire/elhex/elhex_main.c"


def base_spade(mutator: CorpusMutator) -> Spade:
    spade = Spade(mutator.base_view()[0], cache=perfcache.PerfCache())
    spade.record_sites()
    return spade


@pytest.fixture(scope="module")
def mutator():
    return CorpusMutator(2021, scale=SCALE)


@pytest.fixture(scope="module")
def base(mutator):
    return base_spade(mutator)


def full(tree: SourceTree) -> list[dict]:
    return encode_findings(
        Spade(tree, cache=perfcache.PerfCache(enabled=False)).analyze())


def delta(base: Spade, corpus: MutatedCorpus) -> list[dict]:
    return encode_findings(Spade(corpus.tree, cache=perfcache.PerfCache(),
                                 base=base).analyze())


def edited(corpus: MutatedCorpus, path: str, text: str) -> MutatedCorpus:
    files = dict(corpus.tree.files)
    files[path] = text
    return MutatedCorpus(SourceTree(files), corpus.manifest,
                         corpus.mutations)


def test_delta_equals_full_over_200_seeds(mutator, base):
    for seed in range(200):
        corpus = mutator.derive(seed)
        assert delta(base, corpus) == full(corpus.tree), seed


def test_delta_equals_full_at_full_scale():
    mutator = CorpusMutator(2021, scale=1.0)
    base = base_spade(mutator)
    for seed in range(5):
        corpus = mutator.derive(seed)
        assert delta(base, corpus) == full(corpus.tree), seed


def cross_file_call(text: str) -> str:
    """A function that passes an on-stack buffer to another file's
    mapping helper: that file's site now maps the stack."""
    return text + """
static int benvex_cross(struct benvex_dev *xdev)
{
    u8 sbuf[64];

    yarzetwim_map_rsp(xdev, sbuf, 64);
    return 0;
}
"""


def shadow_header_structs(text: str) -> str:
    """Driver definitions of two header structs, which win over the
    headers' (``drivers/`` sorts first): skb-data sites lay out the new
    ``skb_shared_info``, and every struct that reaches a
    ``net_device`` through pointers counts other spoofable callbacks."""
    return text + """
struct skb_shared_info {
    u8 shadow;
    void (*shadow_cb)(void *arg);
};

struct net_device_ops {
    int (*ndo_open)(struct net_device *dev);
};
"""


def remove_first_map(text: str) -> str:
    return text.replace("dma_map_single(", "dma_unmapped_call(", 1)


def test_adversarial_edits_change_findings(mutator, base):
    """Each edit changes the findings of a site the delta must not
    reuse -- else the equality tests below prove nothing."""
    corpus = mutator.apply([])
    tree = corpus.tree
    cross = edited(corpus, OTHER_FILE, cross_file_call(
        tree.files[OTHER_FILE]))
    assert full(cross.tree) != full(tree)
    assert delta(base, cross) == full(cross.tree)
    shadow = edited(corpus, OTHER_FILE, shadow_header_structs(
        tree.files[OTHER_FILE]))
    changed = [(old, new) for old, new in zip(full(tree),
                                              full(shadow.tree))
               if old != new]
    assert {old["file"] for old, _new in changed} - {OTHER_FILE}
    assert delta(base, shadow) == full(shadow.tree)
    removed = edited(corpus, CALLEE_FILE, remove_first_map(
        tree.files[CALLEE_FILE]))
    assert len(full(removed.tree)) == len(full(tree)) - 1
    assert delta(base, removed) == full(removed.tree)
    # a rewrite to the same text is a new string: the delta treats the
    # file as changed, wider than the real change
    noop = mutator.apply([Mutation("swap-direction", BIDIRECTIONAL_FILE)])
    assert noop.tree.files == tree.files
    assert noop.tree.files[BIDIRECTIONAL_FILE] \
        is not tree.files[BIDIRECTIONAL_FILE]
    noop_spade = Spade(noop.tree, cache=perfcache.PerfCache(), base=base)
    assert BIDIRECTIONAL_FILE in noop_spade.index.dirty
    assert encode_findings(noop_spade.analyze()) == full(tree)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 10_000), data=st.data(),
       cross=st.booleans(), shadow=st.booleans(), remove=st.booleans(),
       noop=st.booleans())
def test_delta_equals_full_over_mutation_subsets(mutator, base, seed, data,
                                                 cross, shadow, remove,
                                                 noop):
    planned = mutator.plan(seed)
    subset = [mutation for mutation in planned if data.draw(st.booleans())]
    if noop:
        subset.append(Mutation("swap-direction", BIDIRECTIONAL_FILE))
    corpus = mutator.apply(subset)
    if cross:
        corpus = edited(corpus, OTHER_FILE, cross_file_call(
            corpus.tree.files[OTHER_FILE]))
    if shadow:
        corpus = edited(corpus, OTHER_FILE, shadow_header_structs(
            corpus.tree.files[OTHER_FILE]))
    if remove:
        path = data.draw(st.sampled_from(sorted(
            path for path, text in corpus.tree.files.items()
            if "dma_map_single(" in text and path.endswith(".c"))))
        corpus = edited(corpus, path, remove_first_map(
            corpus.tree.files[path]))
    assert delta(base, corpus) == full(corpus.tree)


def test_deltas_reuse_most_sites(mutator, base):
    classified = []
    classify = analyzer.Spade._classify_site

    def counted(self, *site):
        classified.append(site)
        return classify(self, *site)

    nr_sites = 0
    with mock.patch.object(analyzer.Spade, "_classify_site", counted):
        for seed in range(20):
            corpus = mutator.derive(seed)
            nr_sites += len(Spade(corpus.tree, base=base).analyze())
    assert len(classified) <= 0.3 * nr_sites, (len(classified), nr_sites)


def test_seeds_leave_the_base_findings_alone(monkeypatch):
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    perfcache.reset_default()
    try:
        mutator = CorpusMutator(2021, scale=SCALE)
        base = mutator.base_spade()
        tree = mutator.base_view()[0]

        def base_findings():
            return encode_findings(Spade(tree, base=base).analyze())

        before = base_findings()
        assert before == full(tree)
        for seed in range(50):
            run_seed(seed, scale=SCALE, mutator=mutator, trace_events=0,
                     coverage=False)
        assert base_findings() == before
    finally:
        perfcache.reset_default()


def test_cache_off_analyzes_in_full(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "off")
    perfcache.reset_default()
    try:
        assert CorpusMutator(2021, scale=SCALE).base_spade() is None
    finally:
        monkeypatch.delenv("REPRO_CACHE")
        perfcache.reset_default()
