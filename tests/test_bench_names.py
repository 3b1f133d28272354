"""The names the traced benchmark wraps still exist in this tree.

`perfbench/traced.py` wraps, from outside the program, the module-level
names and methods in its LAYERS table.  A name that no longer resolves is
only noted as an absent layer, and its metrics silently drop out of the
result line, so this test reads the table (with `ast`, without importing
the harness) and checks it against the tree and against the per-layer
metrics `BENCHMARK.json` declares.
"""

from __future__ import annotations

import ast
import importlib
import json
from pathlib import Path

from ctl_lint import cache, cli, engine

ROOT = Path(__file__).resolve().parents[1]
# the metrics traced.py reports besides its spans and counters
FIXED = {"cli.import_s", "trace.unattributed_s", "trace.overhead_s"}


def _traced_tables() -> tuple[list[tuple[str, str, str]], dict[str, str]]:
    """(module, attribute, span name) of each LAYERS row, and COUNTERS."""
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text("utf-8"))
    values = {node.targets[0].id: node.value for node in tree.body
              if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
    layers = [tuple(ast.literal_eval(e) for e in row.elts[:3]) for row in values["LAYERS"].elts]
    return layers, ast.literal_eval(values["COUNTERS"])


def test_every_wrapped_name_resolves():
    layers, _ = _traced_tables()
    missing = []
    for module, attr, _ in layers:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []
    # the class whose methods are wrapped is the one the CLI stores with
    assert engine.CacheDb is cache.CacheDb is cli.CacheDb


def test_traced_metrics_are_the_declared_ones():
    layers, counters = _traced_tables()
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))["per_layer"]]
    traced = {f"{span}_s" for _, _, span in layers} | set(counters) | FIXED
    assert len(declared) == 39
    assert traced == set(declared)
    assert set(counters.values()) <= {span for _, _, span in layers}
