"""Cross-reference index over a source tree (the Cscope role).

"To navigate the kernel code, SPADE uses Cscope" (section 4.1.1). The
index parses every file once and answers the two queries the analysis
needs: where is a struct/function defined, and who calls a function
(with what argument expressions) -- the latter drives the recursive
backtracking when a mapped variable turns out to be a parameter.

Parsing is the expensive half of a SPADE run, so a full index puts
every per-file parse tree through :mod:`repro.perfcache`, keyed by the
parser version, the path, and the SHA-256 of the file's text. A
campaign seed indexes its tree as a delta of the base corpus's index
(``base=``): only the files its mutations rewrote are parsed, and only
the definitions and callers lists those files touch are rebuilt;
everything else is the base index's, shared by reference.

A delta parses a changed file through one memo that lives as long as
the process, keyed by path and text, and makes no cache lookup. A file
the memo holds is one dict lookup. A new one is parsed a declaration
at a time (:func:`~repro.core.spade.cparse.split_declarations`),
because a mutation rewrites one of a file's top-level declarations and
leaves the others byte-identical, at most a line or two further down:
each piece goes through the same memo, and only unseen pieces are
parsed. The merged result equals a whole-file parse; where a piece
fails to parse, the whole file is parsed instead, every time. The memo
serves every delta of the process, whatever its base: ``parse_file``
is a pure function of path and text. Every parse, whole or piece, is a
call of this module's ``parse_file``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass

from repro import metrics, perfcache
from repro.core.spade.cparse import (PARSER_VERSION, CallSite, FunctionDef,
                                     ParsedFile, StructDef, parse_file,
                                     shift_lines, split_declarations)
from repro.corpus.generate import SourceTree
from repro.perfcache.codec import decode_parsed_file, encode_parsed_file


@dataclass(frozen=True)
class CallerRecord:
    """One call site of a function, with its enclosing context."""

    file: str
    caller: FunctionDef
    call: CallSite


def _is_source(path: str) -> bool:
    return path.endswith(".c") or path.endswith(".h")


#: (path, text) -> ``parse_file(path, text)`` for a changed file or
#: one of its pieces, or None where *text* does not parse as a piece
#: (a file stored so is parsed whole each time); see the module
#: docstring
_PARSES: dict[tuple[str, str], ParsedFile | None] = {}

#: the memo is emptied before an entry goes in once it holds this many:
#: a campaign's changed files and their pieces are a bounded set, so
#: only an unbounded stream of new texts gets there
_MAX_PARSES = 8192


def _memoize(key: tuple[str, str], parsed: ParsedFile | None) -> None:
    if len(_PARSES) >= _MAX_PARSES:
        _PARSES.clear()
    _PARSES[key] = parsed


def _parse_piece(path: str, text: str) -> ParsedFile | None:
    """*text* parsed as a piece, through the memo; None where it
    fails."""
    key = (path, text)
    if key not in _PARSES:
        try:
            parsed = parse_file(path, text, piece=True)
        except Exception:
            # whatever a piece raises, a whole-file parse decides the
            # result and the error text
            parsed = None
        _memoize(key, parsed)
    return _PARSES[key]


def _parse_by_declaration(path: str, source: str) -> ParsedFile:
    """``parse_file(path, source)`` through the memo, parsing only the
    pieces of *source* it has not seen."""
    key = (path, source)
    if key not in _PARSES:
        merged: ParsedFile | None = ParsedFile(path)
        line = 0
        for text in split_declarations(source):
            part = _parse_piece(path, text)
            if part is None:
                merged = None
                break
            part = shift_lines(part, line)
            # a later duplicate overwrites the value, keeping the first
            # position, as in a whole-file parse
            merged.structs.update(part.structs)
            merged.functions.update(part.functions)
            line += text.count("\n")
        _memoize(key, merged)
    parsed = _PARSES[key]
    return parse_file(path, source) if parsed is None else parsed


def _defined_and_called(parsed: ParsedFile | None
                        ) -> tuple[set[str], set[str], set[str]]:
    """(struct names, function names, callee names) of one file."""
    if parsed is None:
        return set(), set(), set()
    callees = {call.callee for func in parsed.functions.values()
               for call in func.calls}
    return set(parsed.structs), set(parsed.functions), callees


class CodeIndex:
    """Parsed view of the whole tree with symbol cross-references.

    A name defined in more than one file resolves to the first
    definition in sorted path order, so ``drivers/`` shadows
    ``include/``. ``callers_of`` lists call sites in the same order:
    by file, then function, then call.

    With *base*, an index of another tree, the result equals a full
    index of *tree* -- ``parsed`` in the same order, ``structs``,
    ``functions``, ``parse_errors`` and every ``callers_of`` list --
    but only the changed source files are hashed and parsed, through
    the process's parse memo and never through *cache* (see the module
    docstring). A file is changed unless *tree* holds the very string
    object *base*'s tree held at that path (as a copy-on-write
    derivation does for every file it left alone), so the changed set
    can be too wide, never too narrow. ``dirty`` then names what the
    delta may have changed for the analysis: the changed paths plus
    every struct and callee name in their old or new text.
    """

    def __init__(self, tree: SourceTree, *,
                 cache: "perfcache.PerfCache | None" = None,
                 base: "CodeIndex | None" = None) -> None:
        cache = perfcache.default_cache() if cache is None else cache
        self.parsed: dict[str, ParsedFile] = {}
        self.structs: dict[str, StructDef] = {}
        self.functions: dict[str, tuple[str, FunctionDef]] = {}
        self._callers: dict[str, list[CallerRecord]] = defaultdict(list)
        self.parse_errors: dict[str, str] = {}
        #: per-file content digests; the corpus-level digest (and the
        #: findings cache key) derives from these
        self.file_hashes: dict[str, str] = {}
        #: delta indexes only: see the class docstring
        self.dirty: frozenset[str] = frozenset()
        # the text each path held, what a delta on this index compares
        # its tree's files against (a copy: the tree may change later)
        self._files = dict(tree.files)
        started = time.perf_counter()
        if base is None:
            self._index_all(tree, cache)
        else:
            self._index_delta(tree, base)
        metrics.observe("spade", "index_seconds",
                        time.perf_counter() - started)
        metrics.count("spade", "files_indexed", len(self.parsed))

    def _parse(self, path: str, content: str, parse) -> None:
        """Hash one file and record ``parse()`` in ``parsed``, or what
        it raised in ``parse_errors``."""
        self.file_hashes[path] = perfcache.file_digest(content)
        try:
            self.parsed[path] = parse()
        except Exception as exc:  # a real tool logs and moves on
            self.parse_errors[path] = str(exc)

    def _index_all(self, tree: SourceTree, cache) -> None:
        for path in tree.paths():
            if not _is_source(path):
                continue
            content = tree.read(path)
            key = perfcache.content_key("parse", str(PARSER_VERSION), path,
                                        perfcache.file_digest(content))
            self._parse(path, content, lambda: cache.cached(
                "parse", key, lambda: parse_file(path, content),
                encode=encode_parsed_file, decode=decode_parsed_file))
        for path, parsed in self.parsed.items():
            for name, struct_def in parsed.structs.items():
                self.structs.setdefault(name, struct_def)
            for name, func in parsed.functions.items():
                self.functions.setdefault(name, (path, func))
                for call in func.calls:
                    self._callers[call.callee].append(
                        CallerRecord(path, func, call))

    def _index_delta(self, tree: SourceTree, base: "CodeIndex") -> None:
        changed = frozenset(
            path for path in self._files.keys() | base._files.keys()
            if _is_source(path)
            and self._files.get(path) is not base._files.get(path))
        self.file_hashes = {path: digest
                            for path, digest in base.file_hashes.items()
                            if path not in changed}
        for path in tree.paths():
            if not _is_source(path):
                continue
            if path in changed:
                content = tree.read(path)
                self._parse(path, content,
                            lambda: _parse_by_declaration(path, content))
            elif path in base.parsed:
                self.parsed[path] = base.parsed[path]
            else:
                self.parse_errors[path] = base.parse_errors[path]

        structs: set[str] = set()
        functions: set[str] = set()
        callees: set[str] = set()
        for path in changed:
            for parsed in (base.parsed.get(path), self.parsed.get(path)):
                defined, funcs, called = _defined_and_called(parsed)
                structs |= defined
                functions |= funcs
                callees |= called
        self.dirty = frozenset(changed | structs | callees)

        # unchanged names keep the base's entries; each touched name is
        # resolved again, first definition in path order
        self.structs = dict(base.structs)
        for name in sorted(structs):
            self.structs.pop(name, None)
            for parsed in self.parsed.values():
                if name in parsed.structs:
                    self.structs[name] = parsed.structs[name]
                    break
        self.functions = dict(base.functions)
        for name in sorted(functions):
            self.functions.pop(name, None)
            for path, parsed in self.parsed.items():
                if name in parsed.functions:
                    self.functions[name] = (path, parsed.functions[name])
                    break

        # a touched callee's list: the base's records from unchanged
        # files (the same objects) plus the changed files' records,
        # stably sorted back into path order
        self._callers = base._callers.copy()
        order = {path: i for i, path in enumerate(self.parsed)}
        fresh: dict[str, list[CallerRecord]] = defaultdict(list)
        for path in changed:
            parsed = self.parsed.get(path)
            if parsed is None:
                continue
            for func in parsed.functions.values():
                for call in func.calls:
                    fresh[call.callee].append(CallerRecord(path, func, call))
        for name in callees:
            records = [record for record in base._callers.get(name, ())
                       if record.file not in changed]
            records += fresh.get(name, ())
            records.sort(key=lambda record: order[record.file])
            if records:
                self._callers[name] = records
            else:
                self._callers.pop(name, None)

    def callers_of(self, name: str) -> list[CallerRecord]:
        return list(self._callers.get(name, ()))

    def calls_to(self, name: str, *, within: str | None = None
                 ) -> list[CallerRecord]:
        records = self.callers_of(name)
        if within is not None:
            records = [r for r in records if r.file == within]
        return records

    @property
    def nr_files(self) -> int:
        return len(self.parsed)

    @property
    def nr_functions(self) -> int:
        return len(self.functions)
