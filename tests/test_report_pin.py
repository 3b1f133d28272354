"""Whole reports, pinned byte for byte.

Each case runs `ctl-lint analyze --format json --no-cache --jobs 1` over
the 48 bug fixtures and the first 50 generated programs at one witness
budget and compares the sha256 of its stdout.  A change that is meant to
leave every diagnostic as it is (a performance or design change) must
leave these digests alone; a change that alters diagnostics on purpose
updates them and says why.
"""

from __future__ import annotations

import hashlib

import pytest

from ctl_lint.cli import main
from fixtures_bugs import FIXTURES
from program_gen import generate_program

GENERATED = 50

# max_witnesses -> (sha256 of stdout, its length in characters)
DIGESTS = {
    0: ("a564e94dbd9a6ca58596876330529398651a86bbbe8954f1b3c5455d3f7d1fb2", 29911),
    5: ("834947fb0211e59767df19e45312b902bd6512c57c506092df4ef1118fde4bc4", 26788),
    300: ("30f0d6f094f6ad3e748de20038973e4c2f3944a0745f81d863ad2a2aff662ec6", 28185),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Relative paths of the inputs, in a module-wide directory; reports
    name files by the path given, so each run starts there."""
    root = tmp_path_factory.mktemp("pin")
    paths = []
    for name, source in ([(fx.name, fx.source) for fx in FIXTURES]
                         + [(f"gen{seed}", generate_program(seed))
                            for seed in range(GENERATED)]):
        (root / f"{name}.c").write_text(source)
        paths.append(f"{name}.c")
    return root, paths


@pytest.mark.parametrize("max_witnesses", sorted(DIGESTS))
def test_report_digest(corpus, capsys, monkeypatch, max_witnesses):
    root, paths = corpus
    monkeypatch.chdir(root)
    code = main(["analyze", "--format", "json", "--no-cache", "--jobs", "1",
                 "--max-witnesses", str(max_witnesses), *paths])
    out = capsys.readouterr().out
    assert code == 1
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert (digest, len(out)) == DIGESTS[max_witnesses]
