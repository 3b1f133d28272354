"""Random MiniC program generator for soundness and throughput corpora.

Programs are generated with execution discipline so the concrete
interpreter terminates: loops are counted with bounded trip counts and
their counters are never reassigned in the body, call graphs are acyclic,
and variable names are never shadowed (the analyzer identifies variables
by name within a function).  Everything else is fair game: branchy
arithmetic, division and modulo, arrays with occasionally out-of-range
indices, malloc/free in correct and buggy arrangements, address-taken
locals, and cross-function calls.
"""

from __future__ import annotations

import random


class ProgramGen:
    def __init__(self, seed: int, max_funcs: int = 3, stmt_budget: int = 14):
        self.rng = random.Random(seed)
        self.max_funcs = max_funcs
        self.stmt_budget = stmt_budget
        self.fresh = 0
        self.funcs: list[tuple[str, int]] = []  # (name, arity) defined so far

    def name(self, prefix: str) -> str:
        self.fresh += 1
        return f"{prefix}{self.fresh}"

    def unit(self) -> str:
        self.fresh = 0
        self.funcs = []
        self.global_scalars: list[str] = []
        self.global_arrays: list[tuple[str, int]] = []
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
        for _ in range(rng.randint(1, self.max_funcs)):
            parts.append(self.function())
        return "\n".join(parts) + "\n"

    def function(self) -> str:
        rng = self.rng
        fname = self.name("f")
        arity = rng.randint(0, 3)
        params = [self.name("a") for _ in range(arity)]
        body = _FuncGen(self, params).gen_body()
        self.funcs.append((fname, arity))
        sig = ", ".join(f"int {p}" for p in params)
        return f"int {fname}({sig}) {{\n{body}}}\n"


class _FuncGen:
    def __init__(self, gen: ProgramGen, params: list[str]):
        self.g = gen
        self.rng = gen.rng
        self.ints: list[str] = list(params)  # initialized int variables
        self.uninit: list[str] = []
        self.arrays: list[tuple[str, int]] = list(gen.global_arrays)
        self.pointers: list[str] = []
        self.locked: set[str] = set()  # active loop counters
        self.budget = gen.stmt_budget
        self.ints.extend(gen.global_scalars)

    def gen_body(self) -> str:
        lines = self.stmts(depth=0, loop_depth=0)
        lines.append(f"  return {self.int_expr(1)};")
        return "\n".join(lines) + "\n"

    def stmts(self, depth: int, loop_depth: int, indent: str = "  ") -> list[str]:
        out: list[str] = []
        for _ in range(self.rng.randint(2, 5)):
            if self.budget <= 0:
                break
            self.budget -= 1
            out.extend(self.stmt(depth, loop_depth, indent))
        return out

    def scoped_stmts(self, depth: int, loop_depth: int, indent: str) -> list[str]:
        """Generate a nested block; its declarations go out of scope after."""
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
            then = self.scoped_stmts(depth + 1, loop_depth, indent + "  ")
            if rng.random() < 0.5:
                other = self.scoped_stmts(depth + 1, loop_depth, indent + "  ")
                return ([f"{indent}if ({cond}) {{"] + then + [f"{indent}}} else {{"]
                        + other + [f"{indent}}}"])
            return [f"{indent}if ({cond}) {{"] + then + [f"{indent}}}"]
        if roll < 0.60 and depth < 2 and loop_depth < 2:
            i = self.g.name("i")
            trip = rng.randint(0, 12)
            self.ints.append(i)
            self.locked.add(i)
            body = self.scoped_stmts(depth + 1, loop_depth + 1, indent + "  ")
            self.locked.discard(i)
            if rng.random() < 0.7:
                head = f"{indent}for ({i} = 0; {i} < {trip}; {i}++) {{"
                return [f"{indent}int {i};", head] + body + [f"{indent}}}"]
            return [f"{indent}int {i} = {trip};",
                    f"{indent}while ({i} > 0) {{"] + body \
                + [f"{indent}  {i} = {i} - 1;", f"{indent}}}"]
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
        size = rng.randint(1, 6)
        lines = [f"{indent}int *{p} = malloc({size});"]
        if rng.random() < 0.75:
            lines.append(f"{indent}*{p} = {self.int_expr(1)};")
        freed = False
        if rng.random() < 0.8:
            lines.append(f"{indent}free({p});")
            freed = True
        if freed and rng.random() < 0.12:
            lines.append(f"{indent}free({p});")  # seeded double free
        return lines

    def writable_int(self) -> str | None:
        options = [v for v in self.ints if v not in self.locked]
        if not options:
            return None
        return self.rng.choice(options)

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
            # multiply by literals only: variable-by-variable products inside
            # loops make values grow doubly-exponentially under mathematical
            # integer semantics
            return f"{self.int_expr(depth - 1)} * {rng.randint(-4, 4)}"
        return f"{self.int_expr(depth - 1)} {op} {self.int_atom()}"

    def index_expr(self, size: int) -> str:
        rng = self.rng
        roll = rng.random()
        if roll < 0.55:
            return str(rng.randint(0, size - 1))
        if roll < 0.70:
            return str(rng.randint(size, size + 3))  # seeded overrun
        counters = sorted(self.locked)
        if counters and roll < 0.9:
            return rng.choice(counters)
        return self.int_atom()

    def cond_expr(self) -> str:
        rng = self.rng
        l = self.int_atom()
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        r = self.int_atom() if rng.random() < 0.4 else str(rng.randint(-9, 9))
        base = f"{l} {op} {r}"
        if rng.random() < 0.25:
            l2 = self.int_atom()
            conj = rng.choice(("&&", "||"))
            return f"{base} {conj} {l2} {rng.choice(('<', '>'))} {rng.randint(-5, 5)}"
        if rng.random() < 0.1:
            return f"!({base})"
        return base


def generate_program(seed: int, **kw) -> str:
    return ProgramGen(seed, **kw).unit()


def generate_corpus_file(seed: int, funcs: int = 6) -> str:
    """Larger unit for the end-to-end corpus (roughly 100 lines)."""
    return ProgramGen(seed, max_funcs=funcs, stmt_budget=10).unit()
