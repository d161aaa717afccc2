"""Seeded program generators for the benchmark, with expected values.

Nothing here imports hgmp. Every program's expected value is computed in
Python while the program is generated (fib by iteration, powers with
``**``, generated expressions by the generator's own evaluator), so the
oracle is independent of the implementation under test.

Sizes are drawn by stratified sampling: each kind's size range is cut into
equal strata and one size is drawn inside each stratum, with both ends of
the range always present. Two seeds thus give different programs with
nearly the same size distribution, which keeps the latency quantiles of a
run comparable across seeds.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Program:
    kind: str        # generator that made it, e.g. "fib" or "power-eval"
    size: int        # the kind's size parameter (n, k or node budget)
    source: str      # concrete syntax, one term
    mode: str        # "untyped" | "typed"
    expected: int    # the value the program must print
    trace: str = "none"  # trace-render only: "json" | "text"


def digest(programs: list[Program]) -> str:
    """SHA-256 over everything that defines the inputs, in list order."""
    h = hashlib.sha256()
    for p in programs:
        for part in (p.kind, str(p.size), p.mode, p.trace, p.source,
                     str(p.expected)):
            h.update(part.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def _strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`lo`, `hi`, and one integer drawn uniformly inside each of the
    `count` - 2 equal strata between them. Pinning the ends keeps the
    warm-up (smallest program of each kind) and the memory pass (largest)
    the same size for every seed."""
    width = (hi - lo) / (count - 1)
    return [lo] + [int(lo + width * (i + rng.random()))
                   for i in range(1, count - 1)] + [hi]


def _shaped(rng: random.Random, kind: str, lo: int, hi: int,
            count: int) -> list[tuple[int, random.Random]]:
    """Strata sizes of [lo, hi], each with the generator that shapes its
    program. The largest program, the one the memory pass runs, is shaped
    by a fixed generator, so it is the same for every seed."""
    sizes = _strata(rng, lo, hi, count)
    return [(n, rng) for n in sizes[:-1]] + [(hi, random.Random(kind))]


def _lit(v: int) -> str:
    """An integer in concrete syntax; negatives as a subtraction."""
    return str(v) if v >= 0 else f"(0 - {-v})"


### closed-form kinds

FIB_SOURCE = ("(rec fib n. if n == 0 then 0 else if n == 1 then 1 "
              "else fib (n - 1) + fib (n - 2)) {n}")
COUNT_SOURCE = "(rec count n. if n == 0 then 0 else 1 + count (n - 1)) {n}"

# Staged power, as in the paper: the exponent loop runs at compile time
# (letdown splice) or builds code that eval runs (eval{Int -> Int}).
POWER_GEN = ("letdown power = (\\n. [| \\x. $((rec p q. if q == 1 then [| x |] "
             "else [| x * $(p (q - 1)) |]) n) |]) in\n")
POWER_LETDOWN = POWER_GEN + "letdown pk = $(power {k}) in\npk {b}"
POWER_EVAL_TYPED = POWER_GEN + "let pk = eval{{Int -> Int}}(power {k}) in\npk {b}"
POWER_EVAL_UNTYPED = POWER_GEN + "let pk = eval(power {k}) in\npk {b}"

# The two worked examples of the paper's figure 3: a splice at compile
# time and an eval at run time, both of (\x.x) astInt(7).
FIG3 = (("fig3-top", "(\\x.x) $((\\x.x) astInt(7))", 7),
        ("fig3-bottom", "(\\x.x)(eval((\\x.x) astInt(7)))", 7))


def fib(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def fib_program(n: int, trace: str = "none") -> Program:
    return Program("fib", n, FIB_SOURCE.format(n=n), "untyped", fib(n), trace)


### higher-order let chains (untyped)

def _let_chain(rng: random.Random, target_rules: int) -> Program:
    """A chain of lets defining unary functions from earlier ones, then an
    iterated application of the last one.

    The iterated step only adds and subtracts, so values stay small. Each
    Python model returns the value and the number of run-time rules one
    call makes (3 for the application, plus its body), and the iteration
    count is chosen to spend about `target_rules` rules.
    """
    lines = ["let twice = \\f. \\x. f (f x) in",
             "let iter = rec it n. \\f. \\x. "
             "if n == 0 then x else it (n - 1) f (f x) in"]
    funcs: list[tuple[str, object]] = []  # name, model: int -> (value, rules)
    for i in range(rng.randint(4, 7)):
        choice = rng.randrange(4) if len(funcs) >= 2 else 0
        if choice == 0:
            c = rng.choice((1, -1)) * rng.randint(1, 9)
            src = f"\\x. x + {c}" if c > 0 else f"\\x. x - {-c}"
            fn = (lambda c: lambda x: (x + c, 6))(c)
        elif choice == 1:
            (a, fa), (b, fb) = rng.sample(funcs, 2)
            src = f"\\x. {a} ({b} x)"

            def fn(x, fa=fa, fb=fb):
                y, rb = fb(x)
                z, ra = fa(y)
                return z, ra + rb + 2
        elif choice == 2:
            a, fa = rng.choice(funcs[-2:])
            src = f"twice {a}"

            def fn(x, fa=fa):
                y, r1 = fa(x)
                z, r2 = fa(y)
                return z, r1 + r2 + 2
        else:
            (a, fa), (b, fb) = rng.sample(funcs, 2)
            k = rng.randint(0, 99)
            src = f"\\x. if x == {k} then {a} x else {b} x"

            def fn(x, k=k, fa=fa, fb=fb):
                y, r = fa(x) if x == k else fb(x)
                return y, r + 7
        name = f"g{i}"
        lines.append(f"let {name} = {src} in")
        funcs.append((name, fn))
    last, fn = funcs[-1]
    value = start = rng.randint(0, 99)
    steps = spent = 0
    while spent < target_rules:
        value, rules = fn(value)
        spent += rules + 14  # plus the loop's own rules for one step
        steps += 1
    lines.append(f"iter {steps} {last} {start}")
    return Program("let-chain", target_rules, "\n".join(lines), "untyped",
                   value)


### generated Int expressions (typed)

class _ExprGen:
    """Random closed Int expressions: literals, + - *, if/==, let and
    applied lambdas. Returns concrete syntax and the value, computed here."""

    # Node kinds are dealt from a shuffled deck in fixed proportions, so
    # expressions of one size differ in shape but not in their mix.
    DECK = ("add",) * 3 + ("sub", "mul", "if", "let", "app") * 2

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.names = 0
        self.deck: list[str] = []

    def deal(self) -> str:
        if not self.deck:
            self.deck = list(self.DECK)
            self.rng.shuffle(self.deck)
        return self.deck.pop()

    def fresh(self) -> str:
        self.names += 1
        return f"v{self.names}"

    def gen(self, budget: int, env: dict[str, int]) -> tuple[str, int]:
        rng = self.rng
        if budget <= 1:
            if env and rng.random() < 0.5:
                name = rng.choice(sorted(env))
                return name, env[name]
            v = rng.randint(0, 99)
            return str(v), v
        kind = self.deal()
        rest = budget - 1
        if kind in ("add", "sub"):
            left = rng.randint(1, rest - 1) if rest > 1 else 1
            a, va = self.gen(left, env)
            b, vb = self.gen(max(1, rest - left), env)
            if kind == "add":
                return f"({a} + {b})", va + vb
            return f"({a} - {b})", va - vb
        if kind == "mul":
            a, va = self.gen(rest, env)
            k = rng.randint(0, 3)
            return f"({a} * {k})", va * k
        if kind == "if":
            part = max(1, rest // 3)
            c, vc = self.gen(part, env)
            # Half the tests compare against the value itself, so both
            # branches get taken.
            other = vc if rng.random() < 0.5 else rng.randint(0, 99)
            t, vt = self.gen(part, env)
            e, ve = self.gen(max(1, rest - 2 * part), env)
            return (f"(if {c} == {_lit(other)} then {t} else {e})",
                    vt if vc == other else ve)
        name = self.fresh()
        left = max(1, rest // 3)
        bound, vb = self.gen(left, env)
        body, vbody = self.gen(max(1, rest - left), {**env, name: vb})
        if kind == "let":
            return f"(let {name} = {bound} in {body})", vbody
        return f"((\\{name}. {body}) {bound})", vbody


### workloads

def rt_numeric(seed: int) -> list[Program]:
    """Untyped, rt-bound: fib n (12..16), count n (100..800) and
    higher-order let chains. Twenty of each, shuffled."""
    rng = random.Random(f"rt-numeric/{seed}")
    progs = [fib_program(n) for n in (12, 13, 14, 15, 16) for _ in range(4)]
    progs += [Program("count", n, COUNT_SOURCE.format(n=n), "untyped", n)
              for n in _strata(rng, 100, 800, 20)]
    progs += [_let_chain(shape, t)
              for t, shape in _shaped(rng, "let-chain", 500, 3000, 20)]
    rng.shuffle(progs)
    return progs


def meta_typed(seed: int) -> list[Program]:
    """Typed: eval of quoted and of lifted generated expressions (sources
    of several KB), and staged power k (10..200) through a letdown splice
    and through eval{Int -> Int}. Six of each, shuffled."""
    rng = random.Random(f"meta-typed/{seed}")
    progs = []
    for kind, template in (("eval-quote", "eval{{Int}}([| {} |])"),
                           ("eval-lift", "eval{{Int}}(lift({}))")):
        for budget, shape in _shaped(rng, kind, 250, 700, 6):
            src, v = _ExprGen(shape).gen(budget, {})
            progs.append(Program(kind, budget, template.format(src), "typed",
                                 v))
    for k in _strata(rng, 10, 200, 6):
        b = rng.randint(2, 9)
        progs.append(Program("power-letdown", k,
                             POWER_LETDOWN.format(k=k, b=b), "typed", b ** k))
    for k in _strata(rng, 10, 200, 6):
        b = rng.randint(2, 9)
        progs.append(Program("power-eval", k,
                             POWER_EVAL_TYPED.format(k=k, b=b), "typed",
                             b ** k))
    rng.shuffle(progs)
    return progs


def trace_render(seed: int) -> list[Program]:
    """Untyped, run through the CLI with --trace json and --trace text:
    fib 6..10, staged power 10..40 and the two figure-3 programs, each
    once per trace format, shuffled."""
    rng = random.Random(f"trace-render/{seed}")
    progs = []
    for trace in ("json", "text"):
        progs += [fib_program(n, trace) for n in (6, 7, 8, 9, 10)]
        for i, k in enumerate(_strata(rng, 10, 40, 5)):
            b = rng.randint(2, 9)
            kind, template = (("power-letdown", POWER_LETDOWN) if i % 2 == 0
                              else ("power-eval", POWER_EVAL_UNTYPED))
            progs.append(Program(kind, k, template.format(k=k, b=b),
                                 "untyped", b ** k, trace))
        progs += [Program(kind, 0, src, "untyped", v, trace)
                  for kind, src, v in FIG3]
    rng.shuffle(progs)
    return progs


WORKLOADS = {
    "rt-numeric": rt_numeric,
    "meta-typed": meta_typed,
    "trace-render": trace_render,
}
