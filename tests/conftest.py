from __future__ import annotations

import pytest

from ctl_lint import frontend
from ctl_lint.cache import file_key
from ctl_lint.engine import Counters, EngineConfig, analyze_unit
from ctl_lint.speclang import load_checkset
from unit_results import diagnostics_of


@pytest.fixture(scope="session")
def builtin_checks():
    return load_checkset()[0]


@pytest.fixture
def pools(monkeypatch):
    """The worker count of each process pool the test's in-process runs start."""
    import concurrent.futures
    started: list[int] = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            started.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    return started


@pytest.fixture
def analyze(builtin_checks):
    """Parse and analyze a source snippet with the builtin catalog."""

    def run(source: str, file: str = "test.c", db=None, max_witnesses: int = 5,
            counters: Counters | None = None):
        tu = frontend.parse(source, file)
        config = EngineConfig(checkset_text="builtin", max_witnesses=max_witnesses)
        record = analyze_unit(tu, builtin_checks, db, config, counters)
        if db is not None:
            db.put(file_key(file, config.checkset_text, max_witnesses), record)
        return diagnostics_of(tu, record)

    return run
