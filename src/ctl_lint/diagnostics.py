"""What the analysis engines and the reporters share, and all a cache hit needs of them."""

from __future__ import annotations

import os
from collections.abc import Sequence
from typing import NamedTuple

from .source import SourceLocation

SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}

CONFIRMED = "confirmed"
UNCONFIRMED = "unconfirmed"

DEAD_CODE = "dead-code"
BUFFER_OVERRUN = "buffer-overrun"
DIV_BY_ZERO = "div-by-zero"
_INTERVALS = "interval check (warning when only possible)"
# The checks that an analysis other than the model checker decides, by id:
# (severity, the analysis).  No spec check may take their ids.
ANALYSIS_CHECKS = {
    DEAD_CODE: ("info", "structural check (unreachable from the entry)"),
    BUFFER_OVERRUN: ("error", _INTERVALS),
    DIV_BY_ZERO: ("error", _INTERVALS),
}


class Diagnostic(NamedTuple):
    check_id: str
    severity: str  # error | warning | info
    loc: SourceLocation
    message: str
    function: str
    confidence: str = CONFIRMED
    trace: tuple[SourceLocation, ...] = ()

    def sort_key(self):
        return (self.loc.file, self.loc.line, self.loc.column, self.check_id,
                self.function, self.message)


def meets_min_severity(severity: str, min_severity: str) -> bool:
    return SEVERITY_RANK[severity] <= SEVERITY_RANK[min_severity]


def read_checkset(spec_paths: Sequence[str] = ()) -> tuple[list[tuple[str, str]], str]:
    """The (file, text) of the builtin checks and of each spec file, in
    order, and the text of all of them, which cache keys hash."""
    with open(os.path.join(os.path.dirname(__file__), "builtin.chk"), encoding="utf-8") as fh:
        sources = [("builtin.chk", fh.read())]
    for path in spec_paths:
        with open(path, "r", encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    return sources, "\n\x00\n".join(text for _, text in sources)


class AnalysisError(Exception):
    """The unit is not analyzable (well-formedness failures)."""

    def __init__(self, errors):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = list(errors)

    def __reduce__(self):
        return type(self), (self.errors,)


class EngineConfig:
    __slots__ = ("checkset_text", "max_witnesses")

    def __init__(self, checkset_text: str = "", max_witnesses: int = 5):
        self.checkset_text = checkset_text
        self.max_witnesses = max_witnesses


class Counters:
    def __init__(self):
        self.functions = self.cache_hits = self.cache_misses = 0
        # content view: totals a fresh analysis of the same sources would report
        self.content_tasks = self.content_skipped = 0

    def merge_content(self, tasks: int, skipped: int) -> None:
        self.content_tasks += tasks
        self.content_skipped += skipped

    def add(self, other: Counters) -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
