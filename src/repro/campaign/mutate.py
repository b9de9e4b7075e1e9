"""Corpus mutation: many randomized driver trees per campaign.

A campaign does not fuzz raw bytes -- it perturbs the *generated*
corpus the way DICE and DyMA-Fuzz perturb DMA channels: struct layouts
shift, callback pointers move within their structs, dma-map call-site
shapes change, and extra benign call sites appear. Every mutation has
a known effect on ground truth, so the mutated tree always carries an
exact :class:`~repro.corpus.manifest.Manifest`:

``pad-struct``
    insert a padding field at the top of the file's first driver
    struct (layout perturbation; truth-preserving).
``move-callback``
    move a ``(*done)`` callback pointer to the end of its struct
    (callback placement; truth-preserving -- pahole still sees it).
``opaque-map-expr``
    reroute a struct-embedded mapped expression (``&op->rsp_iu``)
    through opaque pointer arithmetic at a mutated offset. The buffer
    -- and its co-located callbacks -- are still exposed, but the
    rewritten source defeats SPADE's backtracking: a *deliberate
    static false negative* that only the dynamic side still catches.
``swap-direction``
    flip DMA_TO_DEVICE <-> DMA_FROM_DEVICE at one call site
    (truth-preserving; exposure is about co-location, not direction).
``clone-benign``
    append an extra flat-kmalloc call site to a file (grows the
    benign population; the manifest gains a non-vulnerable site).

Mutations are planned deterministically per campaign seed and can be
re-applied in any subset -- the contract the shrinker's bisection
relies on.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro import perfcache
from repro.core.spade import Spade
from repro.corpus.generate import (GENERATOR_VERSION, CorpusGenerator,
                                   SourceTree)
from repro.corpus.linux50 import (LINUX50_COMPOSITION, CategorySpec,
                                  scaled_composition)
from repro.corpus.manifest import CallSiteTruth, Manifest
from repro.corpus.nvme_fc import NVME_FC_PATH
from repro.errors import CampaignError
from repro.sim.rng import DeterministicRng

MUTATION_KINDS = ("pad-struct", "move-callback", "opaque-map-expr",
                  "swap-direction", "clone-benign")

#: planning weights: truth-preserving noise dominates, with a steady
#: trickle of SPADE-defeating rewrites and corpus growth
_KIND_WEIGHTS = (("pad-struct", 4), ("move-callback", 2),
                 ("opaque-map-expr", 3), ("swap-direction", 3),
                 ("clone-benign", 2))

_MAP_LINE = "dma_map_single("
_STRUCT_MAP_RE = re.compile(r"&(\w+)->(\w+)")
_DONE_FIELD_RE = re.compile(r"^\s+void \(\*done\)")
_DRV_RE = re.compile(r"([a-z][a-z0-9]*)_main\.c$")


@dataclass(frozen=True)
class Mutation:
    """One planned perturbation of one file."""

    kind: str
    path: str
    index: int = 0       # which eligible site/struct within the file
    detail: str = ""     # kind-specific parameter (e.g. the offset)

    def to_json(self) -> dict:
        return {"kind": self.kind, "path": self.path,
                "index": self.index, "detail": self.detail}

    @classmethod
    def from_json(cls, record: dict) -> "Mutation":
        return cls(record["kind"], record["path"],
                   record.get("index", 0), record.get("detail", ""))


@dataclass
class MutatedCorpus:
    """One campaign seed's derived tree plus its exact ground truth."""

    tree: SourceTree
    manifest: Manifest
    mutations: list[Mutation] = field(default_factory=list)


def _map_line_indices(lines: list[str]) -> list[int]:
    return [i for i, line in enumerate(lines) if _MAP_LINE in line]


def _encode_base(pair: tuple[SourceTree, Manifest]) -> dict:
    tree, manifest = pair
    return {"files": tree.files,
            "sites": [[s.path, s.line, s.category, sorted(s.exposures)]
                      for s in manifest.sites]}


def _decode_base(payload: dict) -> tuple[SourceTree, Manifest]:
    tree = SourceTree(dict(payload["files"]))
    manifest = Manifest([
        CallSiteTruth(path, line, category, frozenset(exposures))
        for path, line, category, exposures in payload["sites"]])
    return tree, manifest


class CorpusMutator:
    """Derives mutated corpora from one base ``repro.corpus`` seed."""

    def __init__(self, base_seed: int = 2021, *, scale: float = 1.0,
                 composition: tuple[CategorySpec, ...] | None = None
                 ) -> None:
        self.base_seed = base_seed
        self.scale = scale
        self.composition = composition if composition is not None \
            else scaled_composition(scale, composition=LINUX50_COMPOSITION)
        #: the adopted canonical base pair (see :meth:`adopt_base`);
        #: ``None`` until the first base_view()/adopt_base() call
        self._base_pair: tuple[SourceTree, Manifest] | None = None
        self._base_spade: Spade | None = None

    # -- base corpus ---------------------------------------------------------

    def base_key(self) -> str:
        """Content key identifying this mutator's base corpus."""
        return perfcache.content_key("corpus", str(GENERATOR_VERSION),
                                     str(self.base_seed),
                                     repr(self.composition))

    def base_view(self) -> tuple[SourceTree, Manifest]:
        """The canonical base corpus, shared and **read-only**.

        This is the zero-copy path the campaign hot loop uses: every
        ``plan``/``apply`` call for every seed reads the very same
        tree and manifest objects, so the base is never re-copied per
        seed. Callers must not mutate the returned pair -- use
        :meth:`base` for a private copy.
        """
        if self._base_pair is None:
            self._base_pair = perfcache.default_cache().cached(
                "corpus", self.base_key(), self._generate_base,
                encode=_encode_base, decode=_decode_base)
        return self._base_pair

    def adopt_base(self, tree: SourceTree, manifest: Manifest) -> None:
        """Install an externally materialized base corpus.

        Warm campaign workers call this with the pair decoded from the
        shared on-disk snapshot (see :mod:`repro.campaign.snapshot`),
        skipping both regeneration and the per-entry disk-cache walk.
        The pair becomes the read-only canonical base; the caller must
        not mutate it afterwards.
        """
        self._base_pair = (tree, manifest)
        self._base_spade = None

    def base_spade(self) -> Spade | None:
        """The base corpus's SPADE analysis, the base of every seed's
        delta analysis (see :class:`~repro.core.spade.Spade`).

        Built once, through the process-wide cache, which is what puts
        the base corpus's parse trees in its disk tier. ``None`` while
        caching is off (``REPRO_CACHE=off``): seeds then analyze their
        trees in full, the uncached reference.
        """
        if not perfcache.default_cache().enabled:
            return None
        if self._base_spade is None:
            spade = Spade(self.base_view()[0])
            spade.record_sites()
            self._base_spade = spade
        return self._base_spade

    def base(self) -> tuple[SourceTree, Manifest]:
        """A private, mutable copy of the base corpus.

        Generation is deterministic, so the canonical pair is cached
        by (generator version, seed, composition); each call copies
        the file dict and site list (the file texts and the frozen
        :class:`CallSiteTruth` records themselves are shared).
        """
        tree, manifest = self.base_view()
        return (SourceTree(dict(tree.files)),
                Manifest(list(manifest.sites)))

    def _generate_base(self) -> tuple[SourceTree, Manifest]:
        return CorpusGenerator(seed=self.base_seed,
                               composition=self.composition).generate()

    def _eligible_paths(self, manifest: Manifest) -> dict[str, list[str]]:
        """kind -> file paths the kind can perturb (nvme_fc is
        handcrafted and left untouched)."""
        category_of: dict[str, str] = {}
        for site in manifest.sites:
            category_of.setdefault(site.path, site.category)
        generated = [p for p in sorted(category_of)
                     if p != NVME_FC_PATH and _DRV_RE.search(p)]
        callbacks = [p for p in generated
                     if category_of[p] in ("callback_direct",
                                           "callback_spoof")]
        direct = [p for p in generated
                  if category_of[p] == "callback_direct"]
        return {
            "pad-struct": generated,
            "move-callback": direct,
            "opaque-map-expr": callbacks,
            "swap-direction": generated,
            "clone-benign": generated,
        }

    # -- planning ------------------------------------------------------------

    def plan(self, seed: int, nr_mutations: int = 6) -> list[Mutation]:
        """A deterministic mutation list for one campaign seed."""
        if nr_mutations < 0:
            raise CampaignError(f"bad mutation count {nr_mutations}")
        _tree, manifest = self.base_view()
        eligible = self._eligible_paths(manifest)
        rng = DeterministicRng(seed, domain="campaign/plan")
        weighted = [kind for kind, weight in _KIND_WEIGHTS
                    for _ in range(weight)]
        mutations: list[Mutation] = []
        used: set[tuple[str, str]] = set()
        attempts = 0
        while len(mutations) < nr_mutations and attempts < 20 * (
                nr_mutations + 1):
            attempts += 1
            kind = rng.choice(weighted)
            paths = eligible[kind]
            if not paths:
                continue
            path = rng.choice(paths)
            if (kind, path) in used:
                continue
            used.add((kind, path))
            detail = ""
            if kind == "opaque-map-expr":
                detail = str(rng.choice((8, 16, 24, 32)))
            mutations.append(Mutation(kind, path, index=0, detail=detail))
        return mutations

    # -- application ---------------------------------------------------------

    def apply(self, mutations: list[Mutation]) -> MutatedCorpus:
        """Apply *mutations* (any subset, any order) to the base
        corpus with the manifest kept exactly in sync.

        Copy-on-write over :meth:`base_view`: only mutated files get
        new text; every untouched file's string is shared with the
        canonical base, so a seed's derivation never copies the
        corpus.
        """
        base_tree, manifest = self.base_view()
        by_path: dict[str, list[Mutation]] = {}
        for mutation in mutations:
            if mutation.kind not in MUTATION_KINDS:
                raise CampaignError(f"unknown mutation kind "
                                    f"{mutation.kind!r}")
            by_path.setdefault(mutation.path, []).append(mutation)

        old_sites: dict[str, list[CallSiteTruth]] = {}
        for site in manifest.sites:
            old_sites.setdefault(site.path, []).append(site)

        new_manifest = Manifest()
        mutated_files: dict[str, str] = {}
        for path, file_mutations in by_path.items():
            text = base_tree.read(path)
            appended = 0
            for mutation in file_mutations:
                text, grew = self._apply_one(text, mutation)
                appended += grew
            mutated_files[path] = text
            self._resync_file(new_manifest, path, text,
                              sorted(old_sites.get(path, []),
                                     key=lambda s: s.line), appended)
        for site in manifest.sites:
            if site.path not in by_path:
                new_manifest.add(site)
        merged = dict(base_tree.files)
        merged.update(mutated_files)
        return MutatedCorpus(SourceTree(merged), new_manifest,
                             list(mutations))

    def derive(self, seed: int, nr_mutations: int = 6) -> MutatedCorpus:
        return self.apply(self.plan(seed, nr_mutations))

    # -- individual mutations -------------------------------------------------

    def _apply_one(self, text: str, mutation: Mutation
                   ) -> tuple[str, int]:
        """Apply one mutation; returns (new text, #sites appended)."""
        handler = {
            "pad-struct": self._mutate_pad_struct,
            "move-callback": self._mutate_move_callback,
            "opaque-map-expr": self._mutate_opaque_map_expr,
            "swap-direction": self._mutate_swap_direction,
            "clone-benign": self._mutate_clone_benign,
        }[mutation.kind]
        return handler(text, mutation)

    def _mutate_pad_struct(self, text: str, mutation: Mutation
                           ) -> tuple[str, int]:
        lines = text.splitlines(keepends=True)
        opens = [i for i, line in enumerate(lines)
                 if re.match(r"struct \w+ \{$", line.rstrip())]
        if not opens:
            raise CampaignError(f"{mutation.path}: no struct to pad")
        at = opens[mutation.index % len(opens)]
        lines.insert(at + 1, f"    u32 mut_pad{mutation.index};\n")
        return "".join(lines), 0

    def _mutate_move_callback(self, text: str, mutation: Mutation
                              ) -> tuple[str, int]:
        lines = text.splitlines(keepends=True)
        done_at = next((i for i, line in enumerate(lines)
                        if _DONE_FIELD_RE.match(line)), None)
        if done_at is None:
            raise CampaignError(
                f"{mutation.path}: no (*done) callback to move")
        close_at = next((i for i in range(done_at + 1, len(lines))
                         if lines[i].startswith("};")), None)
        if close_at is None:
            raise CampaignError(f"{mutation.path}: unterminated struct")
        done_line = lines.pop(done_at)
        lines.insert(close_at - 1, done_line)
        return "".join(lines), 0

    def _mutate_opaque_map_expr(self, text: str, mutation: Mutation
                                ) -> tuple[str, int]:
        """Defeat SPADE's backtracking at one struct-embedded site.

        ``dma_map_single(dev, &op->rsp_iu, ...)`` becomes a map of a
        local ``u8 *`` derived via cast-plus-offset arithmetic -- the
        "complex constructs" class the paper's section 4.3 names as
        SPADE's false-negative source. Ground truth is unchanged: the
        device still sees the callback-bearing struct's page.
        """
        offset = int(mutation.detail or "16")
        lines = text.splitlines(keepends=True)
        candidates = [i for i in _map_line_indices(lines)
                      if _STRUCT_MAP_RE.search(lines[i])]
        if not candidates:
            raise CampaignError(
                f"{mutation.path}: no struct-embedded map expression "
                f"to make opaque")
        at = candidates[mutation.index % len(candidates)]
        match = _STRUCT_MAP_RE.search(lines[at])
        base_var = match.group(1)
        mut_var = f"mut_p{mutation.index}"
        indent = lines[at][:len(lines[at]) - len(lines[at].lstrip())]
        lines[at] = lines[at].replace(match.group(0), mut_var, 1)
        lines.insert(at, f"{indent}{mut_var} = (u8 *){base_var} + "
                         f"{offset};\n")
        lines.insert(at, f"{indent}u8 *{mut_var};\n")
        return "".join(lines), 0

    def _mutate_swap_direction(self, text: str, mutation: Mutation
                               ) -> tuple[str, int]:
        lines = text.splitlines(keepends=True)
        map_lines = _map_line_indices(lines)
        if not map_lines:
            raise CampaignError(f"{mutation.path}: no dma-map site")
        at = map_lines[mutation.index % len(map_lines)]
        for i in (at, at + 1):
            if i >= len(lines):
                break
            if "DMA_TO_DEVICE" in lines[i]:
                lines[i] = lines[i].replace("DMA_TO_DEVICE",
                                            "DMA_FROM_DEVICE", 1)
                return "".join(lines), 0
            if "DMA_FROM_DEVICE" in lines[i]:
                lines[i] = lines[i].replace("DMA_FROM_DEVICE",
                                            "DMA_TO_DEVICE", 1)
                return "".join(lines), 0
        return "".join(lines), 0  # DMA_BIDIRECTIONAL site: no-op

    def _mutate_clone_benign(self, text: str, mutation: Mutation
                             ) -> tuple[str, int]:
        match = _DRV_RE.search(mutation.path)
        if match is None:
            raise CampaignError(
                f"{mutation.path}: cannot derive driver name")
        drv = match.group(1)
        extra = f"""
static int {drv}_mut_extra_{mutation.index}(struct {drv}_dev *xdev,
                                            u32 len)
{{
    u8 *buf;
    dma_addr_t dma;

    buf = kmalloc(len, GFP_KERNEL);
    if (!buf)
        return -12;
    dma = dma_map_single(xdev->dma_dev, buf, len, DMA_TO_DEVICE);
    return 0;
}}
"""
        return text + extra, 1

    # -- manifest resynchronization -------------------------------------------

    def _resync_file(self, manifest: Manifest, path: str, text: str,
                     old: list[CallSiteTruth], appended: int) -> None:
        """Rebind a file's ground truth to its post-mutation lines.

        Mutations preserve the relative order of dma-map call sites
        and only ever *append* new (benign) ones, so the old truth
        records zip against the recomputed line numbers positionally.
        """
        new_lines = [i + 1 for i, line in enumerate(text.splitlines())
                     if _MAP_LINE in line]
        if len(new_lines) != len(old) + appended:
            raise CampaignError(
                f"{path}: {len(new_lines)} dma-map sites after "
                f"mutation, expected {len(old)} + {appended} appended")
        for site, line in zip(old, new_lines):
            manifest.add(CallSiteTruth(path, line, site.category,
                                       site.exposures))
        for line in new_lines[len(old):]:
            manifest.add(CallSiteTruth(path, line, "benign", frozenset()))
