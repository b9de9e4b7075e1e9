"""Lightweight C parser for SPADE.

Extracts exactly what the analysis needs from kernel C: struct
definitions (with function-pointer fields), function definitions with
their parameters, local declarations, assignments, and call sites.
This mirrors the paper's tooling, which combined Cscope (symbol
cross-references) with pahole (struct layouts) rather than a full
compiler front end.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from repro.core.spade.ctokens import TokKind, Token, tokenize
from repro.errors import AnalysisError

#: bump when parsing behaviour changes: every cached parse tree keyed
#: under the old version silently misses and is re-derived
PARSER_VERSION = 1

#: identifiers that start a declaration
TYPE_KEYWORDS = {
    "struct", "void", "char", "int", "short", "long", "unsigned",
    "signed", "float", "double", "u8", "u16", "u32", "u64", "size_t",
    "dma_addr_t", "gfp_t", "atomic_t", "netdev_features_t",
}

_STMT_KEYWORDS = {"if", "else", "while", "for", "return", "sizeof",
                  "switch", "case", "break", "continue", "goto", "do"}

_QUALIFIERS = {"static", "const", "volatile", "inline", "extern",
               "__always_inline", "noinline"}

# The hot loops below test ``tok.text`` alone: a punctuator's text fixes
# its kind, since no identifier, number, literal or preprocessor line
# can spell ``(``, ``;`` or ``,``.
_OPENERS = frozenset("([")
_CLOSERS = frozenset(")]")


@dataclass(frozen=True)
class TypeRef:
    """A declared type: base name + pointer depth + array length."""

    base: str
    is_struct: bool
    pointer_level: int = 0
    array_len: int | None = None

    def __str__(self) -> str:
        text = f"struct {self.base}" if self.is_struct else self.base
        text += " " + "*" * self.pointer_level if self.pointer_level else ""
        if self.array_len is not None:
            text += f"[{self.array_len}]"
        return text

    @classmethod
    def intern(cls, base: str, is_struct: bool, pointer_level: int = 0,
               array_len: int | None = None) -> "TypeRef":
        """One shared instance per distinct declared type.

        A corpus declares the same handful of types tens of thousands
        of times; interning keeps one ``TypeRef`` per distinct
        (base, struct-ness, pointer depth, array length) instead of an
        object per declaration -- and makes cached parse trees cheap
        to decode.
        """
        key = (base, is_struct, pointer_level, array_len)
        ref = _TYPEREF_INTERN.get(key)
        if ref is None:
            ref = _TYPEREF_INTERN[key] = cls(base, is_struct,
                                             pointer_level, array_len)
        return ref


_TYPEREF_INTERN: dict[tuple, TypeRef] = {}


@dataclass(frozen=True)
class StructField:
    name: str
    line: int
    type: TypeRef | None = None       # None for function pointers
    is_func_ptr: bool = False
    func_ptr_count: int = 1           # >1 for arrays of function pointers


@dataclass
class StructDef:
    name: str
    fields: list[StructField]
    file: str
    line: int


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: TypeRef
    line: int


@dataclass(frozen=True)
class CallSite:
    callee: str
    args: tuple[str, ...]
    line: int


@dataclass(frozen=True)
class Assignment:
    lhs: str
    rhs_text: str
    rhs_call: CallSite | None
    line: int


@dataclass
class FunctionDef:
    name: str
    params: list[VarDecl]
    locals: list[VarDecl] = field(default_factory=list)
    assignments: list[Assignment] = field(default_factory=list)
    calls: list[CallSite] = field(default_factory=list)
    file: str = ""
    line: int = 0

    def find_var(self, name: str) -> tuple[str, VarDecl] | None:
        """('param'|'local', decl) for *name*, or None."""
        for decl in self.locals:
            if decl.name == name:
                return "local", decl
        for decl in self.params:
            if decl.name == name:
                return "param", decl
        return None

    def param_index(self, name: str) -> int | None:
        for i, decl in enumerate(self.params):
            if decl.name == name:
                return i
        return None

    def assignments_to(self, name: str) -> list[Assignment]:
        return [a for a in self.assignments if a.lhs == name]


@dataclass
class ParsedFile:
    path: str
    structs: dict[str, StructDef] = field(default_factory=dict)
    functions: dict[str, FunctionDef] = field(default_factory=dict)


def _join(tokens: list[Token]) -> str:
    return " ".join(t.text for t in tokens)


def _c_int(text: str) -> int:
    """Value of a C integer literal: ``16UL``, ``0x1f``, ``010`` (octal).

    Raises ``ValueError`` on anything else, as ``int`` does.
    """
    digits = text.rstrip("uUlL")
    if len(digits) > 1 and digits[0] == "0" and digits[1] in "01234567":
        return int(digits, 8)
    return int(digits, 0)


def _split_top_commas(tokens: list[Token]) -> list[list[Token]]:
    parts: list[list[Token]] = [[]]
    depth = 0
    for tok in tokens:
        text = tok.text
        if text in _OPENERS:
            depth += 1
        elif text in _CLOSERS:
            depth -= 1
        if text == "," and depth == 0:
            parts.append([])
        else:
            parts[-1].append(tok)
    return [p for p in parts if p]


def _parse_type_and_name(tokens: list[Token]) -> tuple[TypeRef, str] | None:
    """Parse ``struct X **name[N]``-style declarator tokens."""
    tokens = [t for t in tokens if t.text not in _QUALIFIERS]
    if not tokens:
        return None
    array_len = None
    if len(tokens) >= 3 and tokens[-1].text == "]":
        if tokens[-2].kind == TokKind.NUMBER and tokens[-3].text == "[":
            array_len = _c_int(tokens[-2].text)
            tokens = tokens[:-3]
    if not tokens or tokens[-1].kind != TokKind.IDENT:
        return None
    name = tokens[-1].text
    type_tokens = [t for t in tokens[:-1] if t.text != "*"]
    pointer_level = len(tokens) - 1 - len(type_tokens)
    if not type_tokens:
        return None
    if type_tokens[0].is_ident("struct"):
        if len(type_tokens) < 2 or type_tokens[1].kind != TokKind.IDENT:
            return None
        ref = TypeRef.intern(type_tokens[1].text, True, pointer_level,
                             array_len)
    else:
        if any(t.kind != TokKind.IDENT for t in type_tokens):
            return None
        ref = TypeRef.intern(" ".join(t.text for t in type_tokens), False,
                             pointer_level, array_len)
    return ref, name


def _parse_func_ptr_field(tokens: list[Token]) -> StructField | None:
    """``ret (*name)(args)`` or ``ret (*name[N])(args)``."""
    for i in range(len(tokens) - 3):
        if tokens[i].text == "(" and tokens[i + 1].text == "*" \
                and tokens[i + 2].kind == TokKind.IDENT:
            name = tokens[i + 2].text
            j = i + 3
            count = 1
            if j + 2 < len(tokens) and tokens[j].text == "[" \
                    and tokens[j + 1].kind == TokKind.NUMBER:
                count = _c_int(tokens[j + 1].text)
                j += 3  # skip "[ N ]"
            if j < len(tokens) and tokens[j].text == ")" \
                    and j + 1 < len(tokens) and tokens[j + 1].text == "(":
                return StructField(name, tokens[i].line, None,
                                   is_func_ptr=True, func_ptr_count=count)
    return None


def _parse_struct_fields(tokens: list[Token], path: str) -> list[StructField]:
    fields: list[StructField] = []
    statement: list[Token] = []
    depth = 0
    for tok in tokens:
        text = tok.text
        if text in _OPENERS:
            depth += 1
        elif text in _CLOSERS:
            depth -= 1
        if text == ";" and depth == 0:
            if statement:
                func_ptr = _parse_func_ptr_field(statement)
                if func_ptr is not None:
                    fields.append(func_ptr)
                else:
                    parsed = _parse_type_and_name(statement)
                    if parsed is not None:
                        ref, name = parsed
                        fields.append(StructField(name, statement[0].line,
                                                  ref))
            statement = []
        else:
            statement.append(tok)
    return fields


def _find_matching(tokens: list[Token], start: int, open_t: str,
                   close_t: str) -> int:
    """Index of the punctuator matching ``tokens[start]``."""
    depth = 0
    for i in range(start, len(tokens)):
        text = tokens[i].text
        if text == open_t:
            depth += 1
        elif text == close_t:
            depth -= 1
            if depth == 0:
                return i
    raise AnalysisError(f"unbalanced {open_t}{close_t} from token {start}")


def _extract_calls(statement: list[Token]) -> list[CallSite]:
    calls = []
    for paren in range(1, len(statement)):
        if statement[paren].text != "(":
            continue
        tok = statement[paren - 1]
        if tok.kind is TokKind.IDENT and tok.text not in _STMT_KEYWORDS \
                and tok.text not in TYPE_KEYWORDS \
                and (paren == 1 or statement[paren - 2].text != "->"):
            close = _find_matching(statement, paren, "(", ")")
            args = tuple(_join(part) for part in
                         _split_top_commas(statement[paren + 1:close]))
            calls.append(CallSite(tok.text, args, tok.line))
    return calls


def _parse_body(tokens: list[Token], func: FunctionDef) -> None:
    """Collect declarations, assignments, and calls from a body."""
    statement: list[Token] = []
    paren_depth = 0
    for tok in tokens:
        text = tok.text
        if text in _OPENERS:
            paren_depth += 1
        elif text in _CLOSERS:
            paren_depth -= 1
        elif text == "{" or text == "}":
            continue
        if text == ";" and paren_depth == 0:
            _parse_statement(statement, func)
            statement = []
        else:
            statement.append(tok)
    if statement:
        _parse_statement(statement, func)


def _parse_statement(statement: list[Token], func: FunctionDef) -> None:
    if not statement:
        return
    func.calls.extend(_extract_calls(statement))
    first = statement[0]
    # declaration (possibly with initializer)
    if first.kind == TokKind.IDENT and first.text in TYPE_KEYWORDS:
        eq_index = next((i for i, t in enumerate(statement)
                         if t.text == "="), None)
        decl_tokens = statement[:eq_index] if eq_index is not None \
            else statement
        parsed = _parse_type_and_name(decl_tokens)
        if parsed is not None:
            ref, name = parsed
            func.locals.append(VarDecl(name, ref, first.line))
            if eq_index is not None:
                _record_assignment(name, statement[eq_index + 1:],
                                   first.line, func)
        return
    # plain assignment to a simple identifier
    if len(statement) >= 3 and first.kind == TokKind.IDENT \
            and statement[1].is_punct("="):
        _record_assignment(first.text, statement[2:], first.line, func)


def _record_assignment(lhs: str, rhs: list[Token], line: int,
                       func: FunctionDef) -> None:
    rhs_call = None
    calls = _extract_calls(rhs)
    if calls and rhs and rhs[0].kind == TokKind.IDENT \
            and calls[0].callee == rhs[0].text:
        rhs_call = calls[0]
    func.assignments.append(Assignment(lhs, _join(rhs), rhs_call, line))


def parse_file(path: str, source: str, *,
               piece: bool = False) -> ParsedFile:
    """Parse one C file into structs + functions.

    With *piece*, *source* is one piece of a file as
    :func:`split_declarations` cuts it, parsed on its own: a
    ``typedef`` still open at its end raises :class:`AnalysisError`,
    because in the whole file it would run on into the next piece, and
    so does a literal that holds a newline, because the tokenizer does
    not count it, so the pieces after it would shift one line too far.
    """
    preproc = TokKind.PREPROC
    tokens = tokenize(source)
    if piece:
        for tok in tokens:
            # only a string or char literal can hold a newline
            if "\n" in tok.text:
                raise AnalysisError(f"literal at line {tok.line} spans "
                                    f"lines")
    tokens = [t for t in tokens if t.kind is not preproc]
    parsed = ParsedFile(path)
    i = 0
    n = len(tokens)
    while i < n:
        tok = tokens[i]
        # typedef ... ;
        if tok.is_ident("typedef"):
            while i < n and not tokens[i].is_punct(";"):
                i += 1
            if piece and i == n:
                raise AnalysisError(f"typedef at line {tok.line} runs "
                                    f"off the end of the piece")
            i += 1
            continue
        # struct NAME { ... } ;  |  struct NAME ;
        if tok.is_ident("struct") and i + 1 < n \
                and tokens[i + 1].kind == TokKind.IDENT:
            name = tokens[i + 1].text
            if i + 2 < n and tokens[i + 2].is_punct("{"):
                close = _find_matching(tokens, i + 2, "{", "}")
                fields = _parse_struct_fields(tokens[i + 3:close], path)
                parsed.structs[name] = StructDef(name, fields, path,
                                                 tok.line)
                i = close + 1
                if i < n and tokens[i].is_punct(";"):
                    i += 1
                continue
            if i + 2 < n and tokens[i + 2].is_punct(";"):
                i += 3  # forward declaration
                continue
        # function definition or prototype: ... NAME ( params ) { | ;
        if tok.kind == TokKind.IDENT and i + 1 < n \
                and tokens[i + 1].is_punct("(") \
                and tok.text not in TYPE_KEYWORDS \
                and tok.text not in _QUALIFIERS:
            close = _find_matching(tokens, i + 1, "(", ")")
            after = tokens[close + 1] if close + 1 < n else None
            if after is not None and after.is_punct("{"):
                body_close = _find_matching(tokens, close + 1, "{", "}")
                func = FunctionDef(tok.text, _parse_params(
                    tokens[i + 2:close]), file=path, line=tok.line)
                _parse_body(tokens[close + 2:body_close], func)
                parsed.functions[func.name] = func
                i = body_close + 1
                continue
            if after is not None and after.is_punct(";"):
                i = close + 2  # prototype
                continue
        i += 1
    return parsed


def _parse_params(tokens: list[Token]) -> list[VarDecl]:
    params = []
    for part in _split_top_commas(tokens):
        if len(part) == 1 and part[0].is_ident("void"):
            continue
        parsed = _parse_type_and_name(part)
        if parsed is not None:
            ref, name = parsed
            params.append(VarDecl(name, ref, part[0].line))
    return params


#: a column-0 line that is exactly ``}`` or ``};``: where a top-level
#: declaration of kernel-style C ends
_DECLARATION_END = re.compile(r"^\};?\n", re.MULTILINE)


def split_declarations(source: str) -> list[str]:
    """*source* cut after every line :data:`_DECLARATION_END` matches.

    The pieces join back into *source*. Parsing each with
    ``parse_file(path, piece, piece=True)``, moving its line numbers
    down by the lines before it (:func:`shift_lines`) and merging the
    results in order equals ``parse_file(path, source)`` whenever
    every piece parses: a comment, literal or brace pair that a cut
    splits makes a piece fail, and so do a typedef left open and a
    literal holding a newline.
    """
    pieces = []
    start = 0
    for match in _DECLARATION_END.finditer(source):
        pieces.append(source[start:match.end()])
        start = match.end()
    if start < len(source):
        pieces.append(source[start:])
    return pieces


def shift_lines(parsed: ParsedFile, lines: int) -> ParsedFile:
    """A copy of *parsed* with every line number *lines* further down
    (*parsed* itself when *lines* is 0)."""
    if not lines:
        return parsed

    def decls(items: list[VarDecl]) -> list[VarDecl]:
        return [VarDecl(d.name, d.type, d.line + lines) for d in items]

    def call(site: CallSite | None) -> CallSite | None:
        return None if site is None \
            else CallSite(site.callee, site.args, site.line + lines)

    out = ParsedFile(parsed.path)
    for name, struct in parsed.structs.items():
        out.structs[name] = StructDef(
            struct.name,
            [StructField(f.name, f.line + lines, f.type, f.is_func_ptr,
                         f.func_ptr_count) for f in struct.fields],
            struct.file, struct.line + lines)
    for name, func in parsed.functions.items():
        out.functions[name] = FunctionDef(
            func.name, decls(func.params), decls(func.locals),
            [Assignment(a.lhs, a.rhs_text, call(a.rhs_call),
                        a.line + lines) for a in func.assignments],
            [call(c) for c in func.calls], func.file, func.line + lines)
    return out
