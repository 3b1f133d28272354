"""Diagnostic records shared by the analysis engines and the reporters."""

from __future__ import annotations

from dataclasses import dataclass, field

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
