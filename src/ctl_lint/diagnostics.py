"""What the analysis engines and the reporters share, and all a cache hit needs of them."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from importlib import resources

from .frontend import SourceLocation

_SEVERITY_RANK = {"error": 0, "warning": 1, "info": 2}

CONFIRMED = "confirmed"
UNCONFIRMED = "unconfirmed"


@dataclass(frozen=True)
class Diagnostic:
    check_id: str
    severity: str  # error | warning | info
    loc: SourceLocation
    message: str
    function: str
    confidence: str = CONFIRMED
    trace: tuple[SourceLocation, ...] = field(default_factory=tuple)

    def sort_key(self):
        return (self.loc.file, self.loc.line, self.loc.column, self.check_id,
                self.function, self.message)


def meets_min_severity(severity: str, min_severity: str) -> bool:
    return _SEVERITY_RANK[severity] <= _SEVERITY_RANK[min_severity]


def diagnostic_to_json_obj(d: Diagnostic) -> dict:
    """Fixed-key-order JSON object for the report format."""
    return {
        "check": d.check_id,
        "severity": d.severity,
        "file": d.loc.file,
        "line": d.loc.line,
        "column": d.loc.column,
        "message": d.message,
        "confidence": d.confidence,
        "trace": [{"line": t.line, "column": t.column} for t in d.trace],
    }


def read_checkset(spec_paths: Sequence[str] = ()) -> tuple[list[tuple[str, str]], str]:
    """The (file, text) of the builtin checks and of each spec file, in
    order, and the text of all of them, which cache keys hash."""
    sources = [("builtin.chk",
                resources.files(__package__).joinpath("builtin.chk").read_text("utf-8"))]
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


@dataclass
class EngineConfig:
    checkset_text: str = ""
    max_witnesses: int = 5


@dataclass
class Counters:
    functions: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    # content view: totals a fresh analysis of the same sources would report
    content_tasks: int = 0
    content_skipped: int = 0

    def merge_content(self, tasks: int, skipped: int) -> None:
        self.content_tasks += tasks
        self.content_skipped += skipped

    def add(self, other: Counters) -> None:
        for name, value in vars(other).items():
            setattr(self, name, getattr(self, name) + value)
