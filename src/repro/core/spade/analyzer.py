"""The SPADE analysis (section 4.1.1).

"SPADE operates recursively starting from calls to the dma_map*
functions. From this initial set of calls, SPADE identifies the mapped
variables and backtracks their declarations and assignments. When a
data structure is identified as exposed, SPADE identifies the exposed
callback pointers or mapped heap pointers."

Detection rules (section 4.1's three types):

* **Type A** -- the mapped expression resolves to (a field of) a
  driver struct: the whole struct shares the mapped page; pahole
  reports its direct and spoofable callback pointers.
* **Type B** -- ``skb->data`` maps (skb_shared_info rides along) and
  ``build_skb`` users (the kernel embeds the struct into the buffer).
* **Type C** -- the buffer comes from the ``page_frag`` family
  (``netdev_alloc_skb``, ``napi_alloc_skb``, ``page_frag_alloc``,
  ``netdev_alloc_frag``): co-located buffers keep the page reachable.
* plus private-data APIs (``netdev_priv`` et al.) and on-stack
  buffers.

When the mapped variable is a function parameter, the analysis
recurses into every caller (Cscope-style), classifying the caller's
argument expression -- bounded by ``max_depth``.
"""

from __future__ import annotations

import time

from repro import metrics, perfcache
from repro.core.spade.cindex import CallerRecord, CodeIndex
from repro.core.spade.cparse import PARSER_VERSION, FunctionDef
from repro.core.spade.findings import Finding, ValidationResult
from repro.core.spade.pahole import PaholeDb
from repro.corpus.generate import SourceTree
from repro.corpus.manifest import Manifest
from repro.errors import AnalysisError
from repro.perfcache.codec import decode_findings, encode_findings

#: bump when classification rules change: cached findings keyed under
#: the old version miss in full and are re-derived
ANALYZER_VERSION = 1

#: map function -> index of the buffer-identifying argument
DMA_MAP_FUNCTIONS = {
    "dma_map_single": 1,   # (dev, ptr, size, dir)
    "dma_map_page": 1,     # (dev, page, offset, size, dir)
    "dma_map_sg": 1,       # (dev, sg, nents, dir)
}

PRIV_APIS = {"netdev_priv", "aead_request_ctx", "scsi_cmd_priv"}
PAGE_FRAG_APIS = {"page_frag_alloc", "netdev_alloc_frag"}
SKB_PAGE_FRAG_ALLOCS = {"netdev_alloc_skb", "napi_alloc_skb"}
HEAP_APIS = {"kmalloc", "kzalloc"}

DEFAULT_MAX_DEPTH = 4


class Spade:
    """Static Sub-Page Analysis for DMA Exposure over a source tree.

    ``Spade(tree, base=...)`` analyzes *tree* as a delta of *base*, a
    :class:`Spade` over another tree (for a campaign seed: the base
    corpus its mutations were applied to). The index is built from
    the base's (see :class:`~repro.core.spade.cindex.CodeIndex`, which
    works out which files changed), and :meth:`analyze` re-classifies
    only the sites that sit in a changed file or whose read set meets
    the index's ``dirty`` names; every other site reuses the base's
    finding object, in the same order, so callers must not mutate the
    findings a delta returns. The findings equal a full analysis of
    *tree*.
    """

    def __init__(self, tree: SourceTree, *,
                 max_depth: int = DEFAULT_MAX_DEPTH,
                 cache: "perfcache.PerfCache | None" = None,
                 base: "Spade | None" = None) -> None:
        self._cache = perfcache.default_cache() if cache is None else cache
        self._max_depth = max_depth
        self._base = base
        if base is None:
            self.index = CodeIndex(tree, cache=self._cache)
        else:
            if base._max_depth != max_depth:
                raise AnalysisError("a delta analysis needs its base's "
                                    "max_depth")
            base.record_sites()
            self.index = CodeIndex(tree, cache=self._cache,
                                   base=base.index)
        self.pahole = PaholeDb(self.index.structs)
        #: id(CallerRecord) -> (finding or None, read set), per site;
        #: filled by :meth:`record_sites`
        self._sites: dict[int, tuple[Finding | None, frozenset[str]]] \
            | None = None

    # -- entry point -----------------------------------------------------------

    def corpus_digest(self) -> str:
        """Content digest of the whole analysis input.

        Covers every file's SHA-256, the parser and analyzer versions,
        and the recursion bound -- everything the finding list is a
        pure function of. Equal digests mean byte-identical findings,
        which is what lets a warm Table 2 / Figure 2 re-run skip the
        analysis entirely.
        """
        lines = [f"{path}\x00{digest}"
                 for path, digest in sorted(self.index.file_hashes.items())]
        return perfcache.content_key(
            "findings", str(PARSER_VERSION), str(ANALYZER_VERSION),
            str(self._max_depth), *lines)

    def analyze(self) -> list[Finding]:
        """One finding per dma-map call site in the tree (cached; a
        delta analysis is not looked up, see the class docstring)."""
        started = time.perf_counter()
        if self._base is None:
            findings = self._cache.cached(
                "findings", self.corpus_digest(), self._analyze_uncached,
                encode=encode_findings, decode=decode_findings)
        else:
            findings = self._analyze_delta()
        metrics.observe("spade", "analyze_seconds",
                        time.perf_counter() - started)
        metrics.count("spade", "analyses")
        metrics.count("spade", "findings", len(findings))
        return findings

    def record_sites(self) -> None:
        """Classify every site in full and keep, per site, the finding
        and its read set for the deltas built on this analysis.

        Bypasses the findings cache. The read set holds the files
        whose functions the classification read, every name it passed
        to ``callers_of``, and every struct name pahole looked up
        (:meth:`~repro.core.spade.pahole.PaholeDb.reads`). Runs once;
        later calls return at once.
        """
        if self._sites is not None:
            return
        sites = {}
        for site in self._site_records():
            reads: set[str] = set()
            finding = self._classify_site(*site, reads)
            sites[id(site[2])] = (finding, frozenset(reads))
        self._sites = sites

    def _site_records(self):
        """(map function, buffer argument index, call record) for every
        call of a dma-map function, in findings order."""
        for map_fn, arg_index in DMA_MAP_FUNCTIONS.items():
            for record in self.index.callers_of(map_fn):
                yield map_fn, arg_index, record

    def _analyze_uncached(self) -> list[Finding]:
        findings = (self._classify_site(*site)
                    for site in self._site_records())
        return [finding for finding in findings if finding is not None]

    def _analyze_delta(self) -> list[Finding]:
        base_sites = self._base._sites
        dirty = self.index.dirty
        findings = []
        for site in self._site_records():
            # a changed file's records are new objects: never known
            known = base_sites.get(id(site[2]))
            if known is not None and known[1].isdisjoint(dirty):
                finding = known[0]
            else:
                finding = self._classify_site(*site)
            if finding is not None:
                findings.append(finding)
        return findings

    def _classify_site(self, map_fn: str, arg_index: int,
                       record: CallerRecord,
                       reads: set[str] | None = None) -> Finding | None:
        """The finding of one dma-map call, None for a call that is not
        a site (a header prototype, too few arguments).

        *reads*, when given, collects the call's read set (see
        :meth:`record_sites`).
        """
        if reads is not None:
            reads.add(record.file)
        if record.file.endswith(".h"):
            return None  # prototypes live in headers
        if len(record.call.args) <= arg_index:
            return None
        expr = record.call.args[arg_index]
        finding = Finding(record.file, record.call.line, expr)
        finding.note(
            f"{record.file}:{record.call.line}: "
            f"{map_fn}(..., {expr}, ...) in "
            f"{record.caller.name}()")
        if map_fn == "dma_map_sg":
            self._classify_sg(record.file, record.caller, expr, finding,
                              reads)
        else:
            self._classify_expr(record.file, record.caller, expr,
                                finding, self._max_depth, reads)
        return finding

    def _classify_sg(self, file: str, func, expr: str,
                     finding: Finding, reads: set[str] | None) -> None:
        """Scatter/gather lists: classify each buffer fed into the sg.

        Drivers populate scatterlists with ``sg_set_buf(sg, ptr, len)``
        (or sg_set_page); the pointers given there are what the device
        sees, so each such call in the enclosing function is analyzed
        like a direct map of its buffer argument.
        """
        found_any = False
        for call in func.calls:
            if call.callee in ("sg_set_buf", "sg_set_page") \
                    and len(call.args) >= 2:
                found_any = True
                finding.note(
                    f"{file}:{call.line}: scatterlist entry "
                    f"{call.callee}(..., {call.args[1]}, ...)")
                self._classify_expr(file, func, call.args[1], finding,
                                    self._max_depth, reads)
        if not found_any:
            finding.note(
                "scatterlist populated outside this function "
                "(potential false negative)")

    # -- expression classification ------------------------------------------------

    def _classify_expr(self, file: str, func: FunctionDef, expr: str,
                       finding: Finding, depth: int,
                       reads: set[str] | None) -> None:
        if depth <= 0:
            finding.note("recursion limit reached; giving up "
                         "(potential false negative)")
            return
        tokens = expr.split()
        take_address = bool(tokens) and tokens[0] == "&"
        if take_address:
            tokens = tokens[1:]
        if len(tokens) == 3 and tokens[1] == "->":
            self._classify_field_deref(file, func, tokens[0], tokens[2],
                                       finding, reads)
        elif len(tokens) == 1:
            self._classify_identifier(file, func, tokens[0], finding,
                                      depth, take_address, reads)
        else:
            finding.note(f"unsupported mapped expression {expr!r} "
                         f"(potential false negative)")

    def _classify_field_deref(self, file: str, func: FunctionDef,
                              var: str, field_name: str,
                              finding: Finding,
                              reads: set[str] | None) -> None:
        resolved = func.find_var(var)
        if resolved is None:
            finding.note(f"cannot resolve {var!r} in {func.name}()")
            return
        kind, decl = resolved
        finding.note(f"{file}:{decl.line}: {var} is a {kind} declared "
                     f"as {decl.type}")
        if not decl.type.is_struct or decl.type.pointer_level == 0:
            finding.note(f"{var} is not a struct pointer; stopping")
            return
        if decl.type.base == "sk_buff" and field_name == "data":
            self._classify_skb_data(file, func, var, finding, reads)
            return
        # netdev_priv-style derivation?
        for assign in func.assignments_to(var):
            if assign.rhs_call is not None \
                    and assign.rhs_call.callee in PRIV_APIS:
                finding.exposures.add("private_data")
                finding.note(
                    f"{file}:{assign.line}: {var} = "
                    f"{assign.rhs_call.callee}(...): driver private data "
                    f"shares the page (section 4.1.3)")
        self._classify_struct_exposure(decl.type.base, finding, reads)

    def _classify_skb_data(self, file: str, func: FunctionDef, var: str,
                           finding: Finding,
                           reads: set[str] | None) -> None:
        finding.exposures.add("skb_shared_info")
        finding.exposed_struct = "skb_shared_info"
        if reads is not None:
            reads |= self.pahole.reads("skb_shared_info")
        layout = self.pahole.layout("skb_shared_info")
        callbacks = self.pahole.direct_callbacks("skb_shared_info")
        finding.note(
            f"{var}->data maps the skb data buffer: struct "
            f"skb_shared_info ({layout.size} bytes) is always embedded "
            f"at its tail and is mapped with the packet's permissions "
            f"(type (b), section 5.1); callback-bearing field(s): "
            + ", ".join(name for name, _c in callbacks))
        for assign in func.assignments_to(var):
            if assign.rhs_call is None:
                continue
            callee = assign.rhs_call.callee
            finding.allocation_source = callee
            if callee in SKB_PAGE_FRAG_ALLOCS:
                finding.exposures.add("type_c")
                finding.note(
                    f"{file}:{assign.line}: {var} = {callee}(...): "
                    f"page_frag-backed buffer; co-located buffers map "
                    f"the same page (type (c), section 5.2.2)")

    def _classify_identifier(self, file: str, func: FunctionDef,
                             var: str, finding: Finding, depth: int,
                             take_address: bool,
                             reads: set[str] | None) -> None:
        resolved = func.find_var(var)
        if resolved is None:
            finding.note(f"cannot resolve {var!r} in {func.name}()")
            return
        kind, decl = resolved
        finding.note(f"{file}:{decl.line}: {var} is a {kind} declared "
                     f"as {decl.type}")
        if kind == "local":
            if decl.type.array_len is not None \
                    and decl.type.pointer_level == 0:
                finding.exposures.add("stack")
                finding.note(
                    f"{var} is an on-stack array: the kernel stack page "
                    f"(return addresses included) is exposed")
                return
            if take_address and decl.type.is_struct \
                    and decl.type.pointer_level == 0:
                self._classify_struct_exposure(decl.type.base, finding,
                                               reads)
                return
            self._classify_local_pointer(file, func, var, finding)
            return
        # parameter: recurse into every caller's argument expression
        param_index = func.param_index(var)
        callers = self.index.callers_of(func.name)
        if reads is not None:
            reads.add(func.name)
            reads.update(record.file for record in callers)
        if not callers:
            if decl.type.is_struct:
                finding.note(
                    f"{var} arrives as a parameter with no visible "
                    f"caller; classifying by its declared type")
                self._classify_struct_exposure(decl.type.base, finding,
                                               reads)
            else:
                finding.note(f"no callers of {func.name}() found "
                             f"(potential false negative)")
            return
        for record in callers:
            if param_index is None \
                    or param_index >= len(record.call.args):
                continue
            arg = record.call.args[param_index]
            finding.note(
                f"{record.file}:{record.call.line}: caller "
                f"{record.caller.name}() passes {arg!r}")
            self._classify_expr(record.file, record.caller, arg,
                                finding, depth - 1, reads)

    def _classify_local_pointer(self, file: str, func: FunctionDef,
                                var: str, finding: Finding) -> None:
        assigns = func.assignments_to(var)
        if not assigns:
            finding.note(f"no assignment to {var!r} found "
                         f"(potential false negative)")
            return
        recognized = False
        for assign in assigns:
            if assign.rhs_call is None:
                continue
            recognized = True
            callee = assign.rhs_call.callee
            finding.allocation_source = callee
            finding.note(f"{file}:{assign.line}: {var} = {callee}(...)")
            if callee in PAGE_FRAG_APIS:
                finding.exposures.add("type_c")
                finding.note(
                    f"{callee} slices a shared page_frag chunk: "
                    f"multiple IOVAs will map this page (type (c))")
                self._check_build_skb(file, func, var, finding)
            elif callee in PRIV_APIS:
                finding.exposures.add("private_data")
                finding.note(f"{callee} returns driver private data "
                             f"co-located with OS state")
            elif callee in HEAP_APIS:
                finding.note(
                    f"{callee} heap buffer: statically clean; residual "
                    f"risk is random co-location (type (d), D-KASAN's "
                    f"domain)")
        if not recognized:
            # e.g. the value came through a function pointer or macro:
            # the complex constructs section 4.3 lists as SPADE's
            # false-negative sources.
            finding.note(
                f"assignment(s) to {var!r} use constructs the static "
                f"analysis cannot follow (potential false negative)")

    def _check_build_skb(self, file: str, func: FunctionDef, var: str,
                         finding: Finding) -> None:
        parsed = self.index.parsed.get(file)
        functions = parsed.functions.values() if parsed else [func]
        for candidate in functions:
            for call in candidate.calls:
                if call.callee == "build_skb" and call.args \
                        and call.args[0].split()[0] == var:
                    finding.exposures.add("build_skb")
                    finding.note(
                        f"{file}:{call.line}: build_skb({var}, ...) "
                        f"embeds skb_shared_info inside the mapped "
                        f"I/O buffer (type (b), section 9.1)")
                    return

    def _classify_struct_exposure(self, struct_name: str,
                                  finding: Finding,
                                  reads: set[str] | None) -> None:
        if reads is not None:
            reads |= self.pahole.reads(struct_name)
        if not self.pahole.has_struct(struct_name):
            finding.note(f"struct {struct_name} has no visible "
                         f"definition (potential false negative)")
            return
        layout = self.pahole.layout(struct_name)
        finding.exposed_struct = struct_name
        finding.note(
            f"the whole struct {struct_name} ({layout.size} bytes) "
            f"shares the mapped page with the buffer (type (a))")
        direct = self.pahole.direct_callbacks(struct_name)
        finding.direct_callbacks = sum(c for _n, c in direct)
        finding.direct_callback_names = [n for n, _c in direct]
        spoofable, via = self.pahole.spoofable_callbacks(struct_name)
        finding.spoofable_callbacks = spoofable
        if finding.direct_callbacks:
            finding.exposures.add("callback_direct")
            finding.note(
                f"EXPOSED {finding.direct_callbacks} callback "
                f"pointer(s) mapped in struct {struct_name}: "
                + ", ".join(finding.direct_callback_names))
        if spoofable:
            finding.exposures.add("callback_spoof")
            finding.note(
                f"SPOOFABLE {spoofable} callback pointer(s) reachable "
                f"via pointer fields ({len(via)} structs: "
                + ", ".join(via[:6])
                + ("..." if len(via) > 6 else "") + ")")

    # -- aggregation ----------------------------------------------------------------

    def validate(self, findings: list[Finding],
                 manifest: Manifest) -> ValidationResult:
        """Compare per-call-site exposure labels against ground truth."""
        truth = {(site.path, site.line): site.exposures
                 for site in manifest.sites}
        tp = fp = fn = 0
        per_label: dict[str, list[int]] = {}
        for finding in findings:
            expected = truth.get((finding.file, finding.line), frozenset())
            for label in finding.exposures | set(expected):
                errors = per_label.setdefault(label, [0, 0])
                if label in finding.exposures and label in expected:
                    tp += 1
                elif label in finding.exposures:
                    fp += 1
                    errors[0] += 1
                else:
                    fn += 1
                    errors[1] += 1
        return ValidationResult(
            tp, fp, fn,
            {label: (e[0], e[1]) for label, e in per_label.items()})
