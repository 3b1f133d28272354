"""Nothing in `src/` is kept only for tests.

Every top-level function and class of `src/ctl_lint/*.py`, and every
method whose name is not a dunder, must be referenced somewhere in `src/`
outside its own definition.  A top-level name counts as referenced where
its module uses it, where another module imports it and uses the imported
name, or where a module alias reaches it (`ast.walk`); a method counts as
referenced wherever its name is read as an attribute.  Code that only the
tests use belongs in `tests/`.

Likewise every name a module imports must be read in that module, unless
`perfbench/traced.py` wraps it there or its line says why it is imported
(`# noqa: F401` and a reason).
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from pathlib import Path

import ctl_lint
from test_bench_names import _traced_tables

SRC = Path(ctl_lint.__file__).parent
# the console-script entry point, which pyproject.toml names
ENTRY_POINTS = {"cli.main"}

_DEFS = (ast.FunctionDef, ast.ClassDef)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced() -> list[str]:
    modules = {p.stem: ast.parse(p.read_text("utf-8"), str(p)) for p in sorted(SRC.glob("*.py"))}
    # reference key -> the ids of the definitions enclosing each reference;
    # keys are "module.name" for top-level names and ".name" for attributes
    refs: dict[str, list[set[int]]] = defaultdict(list)
    for module, tree in modules.items():
        bound = {}  # local name -> "module.name" it stands for
        aliases = {}  # local name -> module it stands for
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for a in node.names:
                    if node.module:
                        bound[a.asname or a.name] = f"{node.module}.{a.name}"
                    else:
                        aliases[a.asname or a.name] = a.name

        def visit(node: ast.AST, enclosing: set[int]) -> None:
            if isinstance(node, ast.Name):
                refs[bound.get(node.id, f"{module}.{node.id}")].append(enclosing)
            elif isinstance(node, ast.Attribute):
                refs[f".{node.attr}"].append(enclosing)
                if isinstance(node.value, ast.Name) and node.value.id in aliases:
                    refs[f"{aliases[node.value.id]}.{node.attr}"].append(enclosing)
            if isinstance(node, _DEFS):
                enclosing = enclosing | {id(node)}
            for child in ast.iter_child_nodes(node):
                visit(child, enclosing)

        visit(tree, set())

    def used(key: str, definition: ast.AST) -> bool:
        return any(id(definition) not in enclosing for enclosing in refs.get(key, ()))

    out: list[str] = []
    for module, tree in modules.items():
        for top in tree.body:
            if not isinstance(top, _DEFS):
                continue
            name = f"{module}.{top.name}"
            if name not in ENTRY_POINTS and not used(name, top):
                out.append(name)
            if isinstance(top, ast.ClassDef):
                out += [f"{name}.{item.name}" for item in top.body
                        if isinstance(item, ast.FunctionDef) and not _is_dunder(item.name)
                        and not used(f".{item.name}", item)]
    return out


def test_every_src_definition_is_used_in_src():
    assert unreferenced() == []


# an import kept for its side effect or for a wrapper, with the reason
_NOQA = re.compile(r"# noqa: F401\b.*\w")


def unused_imports() -> list[str]:
    wrapped = {(module, attr.split(".")[0]) for module, attr, _ in _traced_tables()[0]}
    out: list[str] = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text("utf-8")
        lines = text.splitlines()
        tree = ast.parse(text, str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.Import)
                   or isinstance(node, ast.ImportFrom) and node.module != "__future__"]
        for node in imports:
            for a in node.names:
                name = (a.asname or a.name).split(".")[0]
                if (name not in read and (f"ctl_lint.{path.stem}", name) not in wrapped
                        and not _NOQA.search(lines[a.lineno - 1])):
                    out.append(f"{path.stem}.{name}")
    return out


def test_every_src_import_is_read():
    assert unused_imports() == []
