"""Seeded MiniC corpus for the ctl-lint benchmark.

Every file holds one initialized configuration global, a pointer family
(may-null allocator, free wrapper, dereferencing helper and callers that
use them with NULL checks, correlated guards and unreachable code) and
randomly generated integer chunks in the style of the test suite's
program generator: branchy arithmetic, counted loops, arrays with
occasional out-of-range indices, malloc/free in correct and buggy
arrangements, uninitialized reads and cross-function calls.

The output depends on the seed alone.  Nothing iterates a set or another
hash-ordered container, so two processes with different PYTHONHASHSEED
values produce byte-identical files.  The generator stays inside the
analyzer's approximation boundaries: no pointer is copied into another
variable (no aliasing), and no name is declared twice (no shadowing).

Programs keep execution discipline so the concrete interpreter
terminates: loop counters are never written in their loop body, call
graphs are acyclic, products multiply by literals only, and malloc sizes
are small literals or bounded parameter expressions.

Usage:
    python3 perfbench/corpus.py --seed N       # print the corpus md5
    python3 perfbench/corpus.py --self-check   # hash-seed independence
"""

from __future__ import annotations

import argparse
import hashlib
import os
import random
import re
import shutil
import subprocess
import sys

N_FILES = 100
CHUNK_LINES = 45  # random-chunk lines per file, before the pointer family
MAX_FUNCS = 2  # functions per random unit
STMT_BUDGET = 12  # statements per generated function body


# ---------------------------------------------------------------------------
# Random integer chunks


class _ChunkGen:
    """One random unit: 0-2 globals and 1-2 functions, names suffixed."""

    def __init__(self, rng: random.Random, suffix: str):
        self.rng = rng
        self.suffix = suffix
        self.fresh = 0
        self.funcs: list[tuple[str, int]] = []
        self.global_scalars: list[str] = []
        self.global_arrays: list[tuple[str, int]] = []

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}{self.suffix}"

    def unit(self) -> str:
        rng = self.rng
        parts: list[str] = []
        for _ in range(rng.randint(0, 2)):
            g = self.name("g")
            if rng.random() < 0.3:
                size = rng.randint(2, 8)
                self.global_arrays.append((g, size))
                parts.append(f"int {g}[{size}];")
            elif rng.random() < 0.5:
                self.global_scalars.append(g)
                parts.append(f"int {g} = {rng.randint(-9, 9)};")
            else:
                self.global_scalars.append(g)
                parts.append(f"int {g};")
        for _ in range(rng.randint(1, MAX_FUNCS)):
            fname = self.name("f")
            arity = rng.randint(0, 3)
            params = [self.name("a") for _ in range(arity)]
            body = _BodyGen(self, params).body()
            self.funcs.append((fname, arity))
            sig = ", ".join(f"int {p}" for p in params)
            parts.append(f"int {fname}({sig}) {{\n{body}}}\n")
        return "\n".join(parts) + "\n"


class _BodyGen:
    def __init__(self, gen: _ChunkGen, params: list[str]):
        self.g = gen
        self.rng = gen.rng
        self.ints: list[str] = list(params) + list(gen.global_scalars)
        self.uninit: list[str] = []
        self.arrays: list[tuple[str, int]] = list(gen.global_arrays)
        self.pointers: list[str] = []
        self.counters: list[str] = []  # active loop counters, innermost last
        self.budget = STMT_BUDGET

    def body(self) -> str:
        lines = self.stmts(0, 0, "  ")
        lines.append(f"  return {self.int_expr(1)};")
        return "\n".join(lines) + "\n"

    def stmts(self, depth: int, loop_depth: int, indent: str) -> list[str]:
        out: list[str] = []
        for _ in range(self.rng.randint(2, 5)):
            if self.budget <= 0:
                break
            self.budget -= 1
            out.extend(self.stmt(depth, loop_depth, indent))
        return out

    def scoped(self, depth: int, loop_depth: int, indent: str) -> list[str]:
        """A nested block; its declarations go out of scope after it."""
        marks = (len(self.ints), len(self.uninit), len(self.arrays), len(self.pointers))
        out = self.stmts(depth, loop_depth, indent)
        del self.ints[marks[0]:]
        del self.uninit[marks[1]:]
        del self.arrays[marks[2]:]
        del self.pointers[marks[3]:]
        return out

    def stmt(self, depth: int, loop_depth: int, indent: str) -> list[str]:
        rng = self.rng
        roll = rng.random()
        if roll < 0.22:
            v = self.g.name("v")
            if rng.random() < 0.8:
                init = self.int_expr(2)
                self.ints.append(v)
                return [f"{indent}int {v} = {init};"]
            self.uninit.append(v)
            return [f"{indent}int {v};"]
        if roll < 0.40 and self.ints:
            target = self.writable_int()
            if target is None:
                target = self.g.name("w")
                init = self.int_expr(2)
                self.ints.append(target)
                return [f"{indent}int {target} = {init};"]
            return [f"{indent}{target} = {self.int_expr(2)};"]
        if roll < 0.50 and depth < 2:
            cond = self.cond_expr()
            then = self.scoped(depth + 1, loop_depth, indent + "  ")
            if rng.random() < 0.5:
                other = self.scoped(depth + 1, loop_depth, indent + "  ")
                return ([f"{indent}if ({cond}) {{"] + then + [f"{indent}}} else {{"]
                        + other + [f"{indent}}}"])
            return [f"{indent}if ({cond}) {{"] + then + [f"{indent}}}"]
        if roll < 0.60 and depth < 2 and loop_depth < 2:
            i = self.g.name("i")
            trip = rng.randint(0, 12)
            self.ints.append(i)
            self.counters.append(i)
            body = self.scoped(depth + 1, loop_depth + 1, indent + "  ")
            self.counters.pop()
            if rng.random() < 0.7:
                head = f"{indent}for ({i} = 0; {i} < {trip}; {i}++) {{"
                return [f"{indent}int {i};", head] + body + [f"{indent}}}"]
            return ([f"{indent}int {i} = {trip};", f"{indent}while ({i} > 0) {{"] + body
                    + [f"{indent}  {i} = {i} - 1;", f"{indent}}}"])
        if roll < 0.68:
            v = self.g.name("d")
            divisor = self.int_expr(1) if rng.random() < 0.3 else str(rng.randint(1, 9))
            dividend = self.int_expr(1)
            op = rng.choice(("/", "%"))
            self.ints.append(v)
            return [f"{indent}int {v} = {dividend} {op} ({divisor});"]
        if roll < 0.78:
            if rng.random() < 0.6 or not self.arrays:
                a = self.g.name("arr")
                size = rng.randint(2, 10)
                self.arrays.append((a, size))
                return [f"{indent}int {a}[{size}];"]
            a, size = rng.choice(self.arrays)
            idx = self.index_expr(size)
            if rng.random() < 0.5:
                return [f"{indent}{a}[{idx}] = {self.int_expr(1)};"]
            v = self.g.name("r")
            self.ints.append(v)
            return [f"{indent}int {v} = {a}[{idx}];"]
        if roll < 0.88:
            return self.pointer_stmt(indent)
        if roll < 0.94 and self.g.funcs:
            fname, arity = rng.choice(self.g.funcs)
            args = ", ".join(self.int_expr(1) for _ in range(arity))
            v = self.g.name("c")
            self.ints.append(v)
            return [f"{indent}int {v} = {fname}({args});"]
        if self.uninit and rng.random() < 0.5:
            v = self.g.name("u")
            self.ints.append(v)
            return [f"{indent}int {v} = {rng.choice(self.uninit)};"]
        target = self.writable_int()
        if target is None:
            return [f"{indent}int {self.g.name('x')} = 0;"]
        return [f"{indent}{target} = {target} + {rng.randint(-3, 3)};"]

    def pointer_stmt(self, indent: str) -> list[str]:
        rng = self.rng
        p = self.g.name("p")
        self.pointers.append(p)
        lines = [f"{indent}int *{p} = malloc({rng.randint(1, 6)});"]
        if rng.random() < 0.75:
            lines.append(f"{indent}*{p} = {self.int_expr(1)};")
        if rng.random() < 0.8:
            lines.append(f"{indent}free({p});")
            if rng.random() < 0.12:
                lines.append(f"{indent}free({p});")  # seeded double free
        return lines

    def writable_int(self) -> str | None:
        options = [v for v in self.ints if v not in self.counters]
        return self.rng.choice(options) if options else None

    def int_atom(self) -> str:
        rng = self.rng
        if self.ints and rng.random() < 0.7:
            return rng.choice(self.ints)
        return str(rng.randint(-9, 9))

    def int_expr(self, depth: int) -> str:
        rng = self.rng
        if depth == 0 or rng.random() < 0.45:
            return self.int_atom()
        op = rng.choice(("+", "-", "*", "+", "-"))
        if op == "*":
            # literal factors only: variable products inside loops grow
            # doubly exponentially under mathematical integers
            return f"{self.int_expr(depth - 1)} * {rng.randint(-4, 4)}"
        return f"{self.int_expr(depth - 1)} {op} {self.int_atom()}"

    def index_expr(self, size: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return str(rng.randint(0, size - 1))
        if roll < 0.70:
            return str(rng.randint(size, size + 3))  # seeded overrun
        if self.counters and roll < 0.9:
            return rng.choice(self.counters)
        return self.int_atom()

    def cond_expr(self) -> str:
        rng = self.rng
        left = self.int_atom()
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        right = self.int_atom() if rng.random() < 0.4 else str(rng.randint(-9, 9))
        base = f"{left} {op} {right}"
        if rng.random() < 0.25:
            conj = rng.choice(("&&", "||"))
            return f"{base} {conj} {self.int_atom()} {rng.choice(('<', '>'))} {rng.randint(-5, 5)}"
        if rng.random() < 0.1:
            return f"!({base})"
        return base


# ---------------------------------------------------------------------------
# Pointer family

# The dereferencing helper's two bodies.  The summary-changing edit swaps
# them, which flips the helper's derefs-parameter-unchecked summary bit.
RD_UNCHECKED = "  return *{q};\n"
RD_CHECKED = "  if ({q} == NULL) {{\n    return 0;\n  }}\n  return *{q};\n"

# Caller scenarios.  Each takes the two int parameters {a} and {b}, a fresh
# pointer {p}, a fresh int {v} and thresholds {c}/{d}; the comment names the
# runtime behaviour for some arguments in [-8, 8].
_SCENARIOS = (
    # may-null result dereferenced unchecked (null-deref when {a} + 3 < {k})
    "  int *{p} = {mk}({a} + 3);\n  *{p} = {b};\n  {rel}({p});\n",
    # may-null result behind a NULL check (clean)
    "  int *{p} = {mk}({b} + 4);\n  if ({p} != NULL) {{\n    *{p} = {a};\n"
    "    {v} = {rd}({p});\n    {rel}({p});\n  }}\n",
    # NULL-initialized, allocated on one branch (null-deref otherwise)
    "  int *{p} = NULL;\n  if ({a} > {c}) {{\n    {p} = malloc(2);\n  }}\n"
    "  *{p} = {b};\n  free({p});\n",
    # wrapper free, then a guarded second free (double free)
    "  int *{p} = malloc(3);\n  *{p} = {a};\n  {rel}({p});\n"
    "  if ({b} > {c}) {{\n    free({p});\n  }}\n",
    # use after a wrapper free
    "  int *{p} = malloc(2);\n  *{p} = {b};\n  {rel}({p});\n"
    "  if ({a} < {c}) {{\n    {v} = {rd}({p});\n  }}\n",
    # freed on one branch only (leak otherwise)
    "  int *{p} = malloc(4);\n  *{p} = {b};\n  if ({a} > {c}) {{\n"
    "    {rel}({p});\n  }}\n",
    # exclusive correlated guards: each path frees exactly once, and every
    # double-free or leak witness is infeasible (refinement suppresses)
    "  int *{p} = malloc(2);\n  *{p} = 0;\n  if ({a} > {c}) {{\n    free({p});\n  }}\n"
    "  if ({a} <= {c}) {{\n    free({p});\n  }}\n",
    # overlapping correlated guards: a feasible double free
    "  int *{p} = malloc(2);\n  *{p} = 1;\n  if ({a} > {c}) {{\n    free({p});\n  }}\n"
    "  if ({a} > {d}) {{\n    free({p});\n  }}\n",
    # unreachable code after a return inside a branch
    "  int *{p} = malloc(1);\n  if ({b} < {c}) {{\n    free({p});\n    return {a};\n"
    "    {v} = {v} + 1;\n  }}\n  {v} = {rd}({p});\n  free({p});\n",
    # NULL-initialized, dereferenced through the helper after a NULL check
    "  int *{p} = NULL;\n  if ({b} >= {c}) {{\n    {p} = malloc(1);\n    *{p} = {a};\n  }}\n"
    "  if ({p} != NULL) {{\n    {v} = {v} + {rd}({p});\n    free({p});\n  }}\n",
)
# Every file's first caller also passes a possibly-NULL pointer to the
# dereferencing helper unchecked.  Its null-deref finding exists only while
# the helper dereferences unchecked, so the summary-changing edit changes
# a caller's findings, not just its cache key.
_HELPER_CALL = ("  int *{p} = NULL;\n  if ({a} > {c}) {{\n    {p} = malloc(1);\n"
                "    *{p} = {b};\n  }}\n  {v} = {v} + {rd}({p});\n  free({p});\n")


def _family(rng: random.Random, fi: int) -> str:
    """Helpers and 3 callers for file `fi`; every scenario kind appears in
    at least one file of every 4 consecutive files."""
    mk, rel, rd = f"hmk_{fi}", f"hrel_{fi}", f"hrd_{fi}"
    k = rng.randint(-2, 6)
    parts = [
        f"int *{mk}(int hn_{fi}) {{\n  if (hn_{fi} < {k}) {{\n    return NULL;\n  }}\n"
        f"  int *hm_{fi} = malloc(hn_{fi});\n  return hm_{fi};\n}}\n",
        f"void {rel}(int *hf_{fi}) {{\n  free(hf_{fi});\n}}\n",
        f"int {rd}(int *hq_{fi}) {{\n" + RD_UNCHECKED.format(q=f"hq_{fi}") + "}\n",
    ]
    kinds = [(fi * 3 + j) % len(_SCENARIOS) for j in range(3)]
    for j in range(3):
        a, b, v = f"ha_{fi}_{j}", f"hb_{fi}_{j}", f"hv_{fi}_{j}"
        lines = [f"int huse_{fi}_{j}(int {a}, int {b}) {{\n", f"  int {v} = {b} - 1;\n"]
        scenarios = [_SCENARIOS[kinds[j]], _SCENARIOS[rng.randrange(len(_SCENARIOS))]]
        if j == 0:
            scenarios.append(_HELPER_CALL)
        for s, scenario in enumerate(scenarios):
            c = rng.randint(-4, 4)
            lines.append(scenario.format(
                p=f"hp_{fi}_{j}_{s}", a=a, b=b, v=v, c=c, d=c + rng.randint(1, 3),
                k=k, mk=mk, rel=rel, rd=rd))
        lines.append(f"  return {v};\n}}\n")
        parts.append("".join(lines))
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Corpus


def generate(seed: int) -> list[tuple[str, str]]:
    """(file name, source) pairs; the same seed gives the same corpus."""
    rng = random.Random(seed)
    files = []
    for fi in range(N_FILES):
        parts = [f"int gcfg_{fi} = {rng.randint(-9, 9)};\n", _family(rng, fi)]
        lines = 0
        j = 0
        while lines < CHUNK_LINES:
            chunk = _ChunkGen(rng, f"_{fi}_{j}").unit()
            j += 1
            parts.append(chunk)
            lines += chunk.count("\n")
        files.append((f"corpus_{fi:03d}.c", "\n".join(parts)))
    return files


def corpus_md5(files: list[tuple[str, str]]) -> str:
    h = hashlib.md5()
    for name, text in files:
        h.update(name.encode() + b"\0" + text.encode() + b"\0")
    return h.hexdigest()


def write_corpus(files: list[tuple[str, str]], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, text in files:
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# Edits for the edit-session workload

BODY, SUMMARY, GLOBAL = "body-only", "summary-changing", "global-initializer"
# The edits of one step, each on its own file.  With one edit per step a
# session missed about 5 of 993 functions per invocation and grew the cache
# by 4%, so a growing cache file could not show in the metrics.  Every step
# has the same mix, so every invocation of a session does similar work and
# the median invocation does not jump between edit kinds.
STEP_MIX = (BODY, BODY, SUMMARY, SUMMARY, GLOBAL, GLOBAL)
EDIT_STEPS = 12  # steps per session

_FUNC_HEAD = re.compile(r"^(?:int|void|int \*)\s*(\w+)\(.*\) \{$", re.M)


def edit_plan(seed: int) -> list[list[tuple[str, int, int]]]:
    """One session's EDIT_STEPS steps, each a list of (kind, file index,
    pick): the kinds of STEP_MIX on distinct seeded files.  `pick` selects
    the function of a body-only edit."""
    rng = random.Random(seed * 7919 + 17)
    plan = []
    for _ in range(EDIT_STEPS):
        targets = rng.sample(range(N_FILES), len(STEP_MIX))
        plan.append([(kind, fi, rng.randrange(1 << 30)) for kind, fi in zip(STEP_MIX, targets)])
    return plan


def apply_edit(text: str, kind: str, fi: int, pick: int, step: int) -> str:
    """One-function edit of corpus file `fi`; `step` makes its content new.

    body-only: a fresh int declaration at the top of one function, which
    changes no summary.  summary-changing: the dereferencing helper swaps
    between its unchecked and NULL-checked body (plus a fresh declaration),
    so its callers' summary environment changes.  global-initializer: a
    new value for the file's configuration global, which is part of every
    function's cache key in the file.
    """
    fresh = f"  int ed{step}_{fi} = {step};\n"
    if kind == BODY:
        heads = list(_FUNC_HEAD.finditer(text))
        m = heads[pick % len(heads)]
        return text[:m.end() + 1] + fresh + text[m.end() + 1:]
    if kind == SUMMARY:
        q = f"hq_{fi}"
        head = f"int hrd_{fi}(int *{q}) {{\n"
        start = text.index(head) + len(head)
        end = text.index("\n}\n", start) + 1
        body = text[start:end]
        checked = RD_CHECKED.format(q=q) in body
        new_body = fresh + (RD_UNCHECKED if checked else RD_CHECKED).format(q=q)
        return text[:start] + new_body + text[end:]
    if kind == GLOBAL:
        return re.sub(rf"^int gcfg_{fi} = -?\d+;$", f"int gcfg_{fi} = {100 + step};",
                      text, count=1, flags=re.M)
    raise ValueError(kind)


def session_steps(corpus_dir: str, edit_dir: str, names: list[str], seed: int):
    """Copy the corpus into `edit_dir`, then apply the seed's edit plan in
    place, yielding (step, names of the edited files) after each step.  Every replay of one seed's session edits the same files the
    same way."""
    os.makedirs(edit_dir, exist_ok=True)
    for name in names:
        shutil.copyfile(os.path.join(corpus_dir, name), os.path.join(edit_dir, name))
    for step, edits in enumerate(edit_plan(seed)):
        edited = []
        for kind, fi, pick in edits:
            name = f"corpus_{fi:03d}.c"
            path = os.path.join(edit_dir, name)
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(apply_edit(text, kind, fi, pick, step))
            edited.append(name)
        yield step, edited


# ---------------------------------------------------------------------------
# Command line


def _self_check() -> int:
    """Generate seed 1 in two processes with different hash seeds."""
    digests = []
    for hash_seed in ("0", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, os.path.abspath(__file__), "--seed", "1"],
                             env=env, capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    same = digests[0] == digests[1]
    print(f"PYTHONHASHSEED=0: {digests[0]}\nPYTHONHASHSEED=2: {digests[1]}\n"
          f"{'identical' if same else 'DIFFERENT'}")
    return 0 if same else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--self-check", action="store_true",
                   help="check that the corpus does not depend on PYTHONHASHSEED")
    ns = p.parse_args(argv)
    if ns.self_check:
        return _self_check()
    print(corpus_md5(generate(ns.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
