"""Source locations, the scanner and what a cache hit reads of its source.

`tokenize` is the one scanner of both input languages: MiniC, described
here by `_MINIC_TOKENS`, and the check language in `speclang`, each by one
regular expression.  A file the cache answers needs of its source only its
digest and the names and lines of its functions (`functions_at`), so this
module does not load the parser; `parse_bytes` imports it on first use.
"""

from __future__ import annotations

import hashlib
import re
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .frontend import TranslationUnit


class SourceLocation(NamedTuple):
    file: str
    line: int  # 1-based
    column: int  # 1-based

    def __str__(self) -> str:
        return f"{self.file}:{self.line}:{self.column}"


class LocatedError(Exception):
    """An error at a source location.  It pickles as (loc, message), so it
    crosses a process pool unchanged."""

    def __init__(self, loc: SourceLocation, message: str):
        super().__init__(f"{loc}: {message}")
        self.loc = loc
        self.message = message

    def __reduce__(self):
        return type(self), (self.loc, self.message)


class ParseError(LocatedError):
    """Syntax or subset violation, with the location it was detected at."""


class Token(NamedTuple):
    kind: str  # the name of the pattern group that matched, or 'eof'
    text: str
    loc: SourceLocation
    offset: int


def tokenize(pattern: re.Pattern, source: str, file: str) -> list[Token]:
    """Split `source` into tokens with `pattern`, an alternation of named groups.

    Each match becomes a token whose kind is the name of its group;
    matches of the group `skip` (whitespace and comments) are dropped.
    The pattern must match at every position, so it ends with a catch-all
    `error` group, and only `skip` matches may span lines.  Only a newline
    character breaks a line; columns count characters; both start at 1.
    The list ends with an `eof` token, or with the first `error` token:
    scanning stops there, and the caller reports it.
    """
    # tuple.__new__ builds the same Token and SourceLocation values as
    # their constructors, without a Python-level NamedTuple.__new__ call
    # for each one
    new = tuple.__new__
    tokens: list[Token] = []
    append = tokens.append
    line, line_start = 1, 0
    for m in pattern.finditer(source):
        kind = m.lastgroup
        start = m.start()
        if kind == "skip":
            text = m.group()
            newlines = text.count("\n")
            if newlines:
                line += newlines
                line_start = start + text.rindex("\n") + 1
        else:
            append(new(Token, (kind, m.group(),
                               new(SourceLocation, (file, line, start - line_start + 1)), start)))
            if kind == "error":
                return tokens
    end = len(source)
    append(Token("eof", "", SourceLocation(file, line, end - line_start + 1), end))
    return tokens


_KEYWORDS = {
    "int", "void", "if", "else", "while", "for", "return",
    "break", "continue", "NULL",
}

# Recognized so the error message can say *why* the input is rejected.
_UNSUPPORTED_KEYWORDS = {
    "struct", "union", "enum", "goto", "switch", "case", "default",
    "typedef", "char", "float", "double", "long", "short", "unsigned",
    "signed", "static", "extern", "const", "volatile", "do", "sizeof",
    "auto", "register", "inline",
}


def _words(words) -> str:
    """A pattern matching exactly one of `words` as a whole name."""
    return "(?:" + "|".join(sorted(words)) + ")(?![A-Za-z0-9_])"


# ASCII classes only: str.isdigit/isalpha and \d/\w also accept characters
# such as '²' that int() and the rest of the pipeline reject.  Keywords
# scan as their own kind.  An `error` match is the first character that
# starts no token, or one of the longer rejections: an unsupported keyword
# (`ident` declines it), an unterminated comment (the `/(?!\*)` keeps its
# `/*` from scanning as a division) and a number run into a name.  So
# scanning stops at the first rejected token, and `frontend._lex` reads
# only the last one.
_MINIC_TOKENS = re.compile(r"""
    (?P<skip> [ \t\n\r\f\v]+ | //[^\n]* | /\*.*?\*/ )
  | (?P<keyword> """ + _words(_KEYWORDS) + r""" )
  | (?P<ident> (?!""" + _words(_UNSUPPORTED_KEYWORDS) + r""")[A-Za-z_][A-Za-z0-9_]* )
  | (?P<int> [0-9]+(?![0-9A-Za-z_]) )
  | (?P<punct> <= | >= | == | != | && | \|\| | \+\+ | -- | /(?!\*) | [-+*%<>=!&|(){}\[\],;] )
  | (?P<error> /\* | [0-9]+[A-Za-z_] | [A-Za-z_][A-Za-z0-9_]* | . )
""", re.VERBOSE | re.DOTALL)


def source_digest(data: bytes) -> str:
    """The digest of a unit's bytes that the cache stores: the first 32
    hex characters of their sha256."""
    return hashlib.sha256(data).hexdigest()[:32]


def functions_at(source: str, offsets: list[int]) -> list[tuple[str, int]]:
    """The name and line `parse` gives each function whose `int`/`void`
    token starts at one of `offsets`, which increase: the first identifier
    scanned from the offset, and 1 plus the newlines before it."""
    found = []
    line, pos = 1, 0
    for offset in offsets:
        line += source.count("\n", pos, offset)
        pos = offset
        name = next(m[0] for m in _MINIC_TOKENS.finditer(source, offset)
                    if m.lastgroup == "ident")
        found.append((name, line))
    return found


def parse_bytes(data: bytes, file: str = "<input>") -> TranslationUnit:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(SourceLocation(file, 1, 1), f"input is not valid UTF-8: {exc.reason}") from None
    from .frontend import parse  # the parser loads only for a file to parse
    return parse(text, file)
