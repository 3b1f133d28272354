"""Diagnostics read back from file records, for tests that assert on them."""

from __future__ import annotations

from ctl_lint.cli import render_row
from ctl_lint.diagnostics import CONFIRMED, UNCONFIRMED, Diagnostic
from ctl_lint.source import SourceLocation


def function_diagnostics(record: list, function: str, line: int, file: str) -> list[Diagnostic]:
    """The diagnostics function record `record` holds for `function`,
    starting at `line` of `file`, in record order."""
    return [Diagnostic(check, severity, SourceLocation(file, line + rel_line, column), message,
                       function, CONFIRMED if confirmed else UNCONFIRMED,
                       tuple(SourceLocation(file, line + trace[i], trace[i + 1])
                             for i in range(0, len(trace), 2)))
            for check, severity, rel_line, column, message, confirmed, trace in record[0]]


def diagnostics_of(tu, record: list) -> list[Diagnostic]:
    """The diagnostics the file record `record` of unit `tu` holds, sorted
    as the report lists them."""
    return sorted([d for f, (_, function) in zip(tu.functions, record[2], strict=True)
                   for d in function_diagnostics(function, f.name, f.loc.line, tu.file)],
                  key=Diagnostic.sort_key)


def rows_of(ds: list[Diagnostic], fmt: str = "text") -> list[tuple]:
    """The report rows of `ds`, each rendered from its own fields."""
    return [render_row(fmt, d.loc.file, d.function, 0, d.check_id, d.severity, d.loc.line,
                       d.loc.column, d.message, d.confidence == CONFIRMED,
                       [n for t in d.trace for n in (t.line, t.column)]) for d in ds]
