"""Seeded-bug fixture corpus.

Each fixture names the checks that must be reported (`must`, true
positives: recall is asserted) and the checks that must produce no
confirmed diagnostic (`clean`, true negatives: anything confirmed there is
a false positive).  Other checks firing on a fixture are neither required
nor forbidden; fixtures only pin down the behavior they were written for.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BugFixture:
    name: str
    source: str
    must: frozenset[str] = frozenset()
    clean: frozenset[str] = frozenset()
    # acyclic with only linear guards: eligible for the suppression oracle
    oracle_args: tuple[tuple[int, ...], ...] | None = None
    entry: str = "f"


def fx(name, source, must=(), clean=(), oracle_args=None, entry="f"):
    return BugFixture(name, source, frozenset(must), frozenset(clean),
                      oracle_args, entry)


FIXTURES = [
    # ---- null-deref: true positives
    fx("null-deref-direct",
       "int f() { int *p = 0; return *p; }",
       must=["null-deref"],
       oracle_args=((),)),
    fx("null-deref-reassigned-null",
       "int f(int *p) { p = 0; int x = *p; return x; }",
       must=["null-deref"]),
    fx("null-deref-summary-mediated",
       "int *mk() { return 0; }\n"
       "int f() { int *p = mk(); return *p; }",
       must=["null-deref"]),
    # ---- null-deref: true negatives
    fx("null-deref-reassigned-before-use",
       "int f() { int *p = 0; p = malloc(4); int x = *p; free(p); return x; }",
       clean=["null-deref"]),
    fx("null-deref-guarded",
       "int f() { int *p = 0; if (p != 0) { return *p; } return 0; }",
       clean=["null-deref"]),
    fx("null-deref-never-null",
       "int f(int *p) { return *p; }",
       clean=["null-deref"]),

    # ---- memory-leak: true positives
    fx("leak-straight-line",
       "int f() { int *p = malloc(4); return 0; }",
       must=["memory-leak"],
       oracle_args=((),)),
    fx("leak-on-one-branch",
       "int f(int c) { int *p = malloc(4); if (c) { free(p); } return 0; }",
       must=["memory-leak"],
       oracle_args=((0,), (1,))),
    fx("leak-second-allocation",
       "int f() { int *p = malloc(4); int *q = malloc(8); free(q); return 0; }",
       must=["memory-leak"]),
    # ---- memory-leak: true negatives
    fx("leak-freed",
       "int f() { int *p = malloc(4); free(p); return 0; }",
       clean=["memory-leak"],
       oracle_args=((),)),
    fx("leak-wrapper-free",
       "void rel(int *q) { free(q); }\n"
       "int f() { int *p = malloc(4); rel(p); return 0; }",
       clean=["memory-leak"]),
    fx("leak-freed-on-all-branches",
       "int f(int c) { int *p = malloc(4); if (c) { free(p); } else { free(p); } return 0; }",
       clean=["memory-leak"],
       oracle_args=((0,), (1,))),

    # ---- use-after-free: true positives
    fx("uaf-deref",
       "int f() { int *p = malloc(4); free(p); return *p; }",
       must=["use-after-free"],
       oracle_args=((),)),
    fx("uaf-read-in-condition",
       "int f() { int *p = malloc(4); free(p); if (p != 0) { return 1; } return 0; }",
       must=["use-after-free"]),
    fx("uaf-wrapper-free",
       "void rel(int *q) { free(q); }\n"
       "int f() { int *p = malloc(4); rel(p); return *p; }",
       must=["use-after-free"]),
    # ---- use-after-free: true negatives
    fx("uaf-reassigned",
       "int f() { int *p = malloc(4); free(p); p = malloc(4); int x = *p; free(p); return x; }",
       clean=["use-after-free"]),
    fx("uaf-use-before-free",
       "int f() { int *p = malloc(4); int x = *p; free(p); return x; }",
       clean=["use-after-free"],
       oracle_args=((),)),
    fx("uaf-exclusive-branches",
       "int f(int c) { int *p = malloc(4); if (c) { free(p); return 0; } int x = *p; free(p); return x; }",
       clean=["use-after-free"],
       oracle_args=((0,), (1,))),

    # ---- double-free: true positives
    fx("df-straight-line",
       "int f() { int *p = malloc(4); free(p); free(p); return 0; }",
       must=["double-free"],
       oracle_args=((),)),
    fx("df-in-loop",
       "int f() { int *p = malloc(4); int i; for (i = 0; i < 2; i++) { free(p); } return 0; }",
       must=["double-free"]),
    fx("df-wrapper",
       "void rel(int *q) { free(q); }\n"
       "int f() { int *p = malloc(4); rel(p); free(p); return 0; }",
       must=["double-free"]),
    # ---- double-free: true negatives
    fx("df-free-reassign-free",
       "int f() { int *p = malloc(4); free(p); p = malloc(4); free(p); return 0; }",
       clean=["double-free"],
       oracle_args=((),)),
    fx("df-exclusive-branches",
       "int f(int c) { int *p = malloc(4); if (c) { free(p); } else { free(p); } return 0; }",
       clean=["double-free"],
       oracle_args=((0,), (1,))),
    fx("df-infeasible-guards",
       "int f(int x) { int *p = malloc(4); free(p);\n"
       "  if (x > 0) { if (x < 0) { free(p); } }\n"
       "  return 0; }",
       clean=["double-free"],
       oracle_args=((-2,), (0,), (1,), (5,))),

    # ---- uninit-read: true positives
    fx("uninit-direct",
       "int f() { int x; return x; }",
       must=["uninit-read"],
       oracle_args=((),)),
    fx("uninit-one-branch",
       "int f(int c) { int x; if (c) { x = 1; } return x; }",
       must=["uninit-read"],
       oracle_args=((0,), (1,))),
    fx("uninit-in-expression",
       "int f() { int x; int y = x + 1; return y; }",
       must=["uninit-read"]),
    # ---- uninit-read: true negatives
    fx("uninit-initialized",
       "int f() { int x = 0; return x; }",
       clean=["uninit-read"],
       oracle_args=((),)),
    fx("uninit-assigned-first",
       "int f() { int x; x = 5; return x; }",
       clean=["uninit-read"],
       oracle_args=((),)),
    fx("uninit-both-branches",
       "int f(int c) { int x; if (c) { x = 1; } else { x = 2; } return x; }",
       clean=["uninit-read"],
       oracle_args=((0,), (1,))),

    # ---- dead-code: true positives
    fx("dead-after-return",
       "int f() { int x = 0; return x; x = 1; return x; }",
       must=["dead-code"]),
    fx("dead-after-break",
       "int f(int c) { while (c) { break; c = c - 1; } return c; }",
       must=["dead-code"]),
    fx("dead-second-return",
       "int f() { return 0; return 1; }",
       must=["dead-code"]),
    # ---- dead-code: true negatives
    fx("dead-none-straight",
       "int f(int a) { a = a + 1; return a; }",
       clean=["dead-code"]),
    fx("dead-none-after-loop",
       "int f(int c) { while (c) { if (c > 3) { break; } c = c - 1; } return c; }",
       clean=["dead-code"]),
    fx("dead-none-if-else",
       "int f(int c) { if (c) { return 1; } else { return 2; } }",
       clean=["dead-code"]),

    # ---- buffer-overrun: true positives
    fx("overrun-constant",
       "int f() { int a[10]; a[12] = 0; return 0; }",
       must=["buffer-overrun"]),
    fx("overrun-loop-off-by-one",
       "int f() { int a[5]; int i; for (i = 0; i <= 5; i++) { a[i] = 0; } return 0; }",
       must=["buffer-overrun"]),
    fx("overrun-negative-index",
       "int f() { int a[3]; return a[0 - 1]; }",
       must=["buffer-overrun"]),
    # ---- buffer-overrun: true negatives
    fx("overrun-none-counted-loop",
       "int f() { int a[10]; int i; for (i = 0; i < 10; i++) { a[i] = 0; } return 0; }",
       clean=["buffer-overrun"]),
    fx("overrun-none-constant",
       "int f() { int a[4]; a[3] = 7; return a[3]; }",
       clean=["buffer-overrun"]),
    fx("overrun-none-guarded",
       "int f(int i) { int a[5]; if (i >= 0 && i < 5) { a[i] = 1; } return 0; }",
       clean=["buffer-overrun"]),

    # ---- div-by-zero: true positives
    fx("div-zero-literal",
       "int f(int x) { return x / 0; }",
       must=["div-by-zero"]),
    fx("div-zero-constant-var",
       "int f(int x) { int d = 0; return x / d; }",
       must=["div-by-zero"]),
    fx("div-zero-possible",
       "int f(int x, int c) { int d = 0; if (c) { d = 2; } return x / d; }",
       must=["div-by-zero"],
       oracle_args=((3, 0), (3, 1))),
    # ---- div-by-zero: true negatives
    fx("div-none-literal",
       "int f(int x) { return x / 2; }",
       clean=["div-by-zero"]),
    fx("div-none-modulo",
       "int f(int x) { int d = 5; return x % d; }",
       clean=["div-by-zero"]),
    fx("div-none-range",
       "int f(int x, int c) { int d = 2; if (c) { d = 4; } return x / d; }",
       clean=["div-by-zero"]),
]

# g(&x) and *q = 1 set x to 1, so p is freed twice in f and in h.  Kept out
# of FIXTURES: the pinned report digests cover that list.
ALIASING_SRC = """\
void g(int *q) { *q = 1; }
int f() { int x = 0; int *p = malloc(4); g(&x); if (x == 1) { free(p); } free(p); return 0; }
int h() { int x = 0; int *q = &x; int *p = malloc(4); *q = 1;
  if (x == 1) { free(p); } free(p); return 0; }
"""


def summary_mediated_names():
    return [f.name for f in FIXTURES if "wrapper" in f.name or "summary" in f.name]
