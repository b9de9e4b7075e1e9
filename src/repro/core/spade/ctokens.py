"""C tokenizer for SPADE.

Comments are dropped, preprocessor lines are captured as single
``PREPROC`` tokens, and every token carries its 1-based source line so
findings can cite exact locations (as the paper's tool does).

The whole lexer is one compiled regular expression: each match skips
any whitespace and comments, then captures one token in the named
group of its kind. Lines are counted with ``str.count`` between token
starts; a newline inside a string or char literal does not advance the
line.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import AnalysisError


class TokKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    CHAR = "char"
    PUNCT = "punct"
    PREPROC = "preproc"


class Token(NamedTuple):
    """One token. A tuple, so the lexer builds it in one C call."""

    kind: TokKind
    text: str
    line: int

    def is_punct(self, text: str) -> bool:
        return self.kind == TokKind.PUNCT and self.text == text

    def is_ident(self, text: str | None = None) -> bool:
        return self.kind == TokKind.IDENT and \
            (text is None or self.text == text)


#: one alternative per token kind, in a group named after its TokKind;
#: the lower-case groups go to :func:`_lex_other`. ``open_comment``
#: precedes PUNCT, so an unterminated ``/*`` is an error and not ``/``,
#: and punctuators are listed longest first. Identifier and number
#: *starts* are ASCII: a non-ASCII ``isalpha()``/``isdigit()`` start
#: lands in ``other``, because ``\w``/``\d`` draw those classes
#: differently. Their tails use ``\w``, which is exactly
#: ``isalnum() or "_"``.
_TOKEN_RE = re.compile(r"""
    (?: [ \t\r\n]+ | //[^\n]* | /\*.*?\*/ )*
    (?:
        (?P<IDENT> [A-Za-z_]\w* )
      | (?P<open_comment> /\* )
      | (?P<PUNCT> -> | <<= | >>= | == | != | <= | >= | && | \|\|
                 | << | >> | \+= | -= | \*= | /= | \|= | &= | \^=
                 | \+\+ | -- | \.\.\. | [{}()\[\];,*&=<>!+\-/%|^~?:.] )
      | (?P<NUMBER> [0-9][\w.]* )
      | (?P<STRING> "[^"\\]*(?:\\.[^"\\]*)*" )
      | (?P<CHAR> '[^'\\]*(?:\\.[^'\\]*)*' )
      | (?P<PREPROC> \#[^\n]* )
      | (?P<other> . )
      | \Z
    )
""", re.VERBOSE | re.DOTALL)

_IDENT_TAIL = re.compile(r"\w*")
_NUMBER_TAIL = re.compile(r"[\w.]*")

#: group name -> kind; ``None`` sends the match to :func:`_lex_other`
_KINDS = {kind.name: kind for kind in TokKind}
_KINDS.update(open_comment=None, other=None)

_new_token = tuple.__new__


def tokenize(source: str) -> list[Token]:
    """Tokenize C source; raises on unterminated constructs."""
    tokens: list[Token] = []
    append = tokens.append
    match = _TOKEN_RE.match
    count = source.count
    kinds = _KINDS
    line = 1
    pos = 0
    while True:
        m = match(source, pos)
        group = m.lastgroup
        if group is None:
            return tokens
        start, end = m.span(group)
        # only skipped whitespace and comments hold counted newlines:
        # no token but a literal spans lines, and a literal's don't count
        line += count("\n", pos, start)
        kind = kinds[group]
        if kind is None:
            kind, end = _lex_other(source, start, line)
        append(_new_token(Token, (kind, source[start:end], line)))
        pos = end


def _lex_other(source: str, start: int, line: int) -> tuple[TokKind, int]:
    """(kind, end) of a token the pattern could not classify, or raise."""
    ch = source[start]
    if ch.isalpha():
        return TokKind.IDENT, _IDENT_TAIL.match(source, start + 1).end()
    if ch.isdigit():
        return TokKind.NUMBER, _NUMBER_TAIL.match(source, start + 1).end()
    if source.startswith("/*", start):
        raise AnalysisError(f"unterminated comment at line {line}")
    if ch == '"' or ch == "'":
        raise AnalysisError(f"unterminated literal at line {line}")
    raise AnalysisError(f"unexpected character {ch!r} at line {line}")
