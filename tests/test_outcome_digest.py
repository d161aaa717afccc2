"""Outcome digests: a standing oracle for refactors.

Each generator below makes a fixed number of seeded programs; each
runs through run_pipeline untraced and traced, at a budget that runs
out about one time in five. Every outcome is written as text: the
printed value, residual and residual type plus the to_json trace, or
else the error's kind, phase, message and str(), with the
TypeErrorDetail fields. The texts of one generator are hashed into one
SHA-256, so a failure names the generator whose outcomes moved. A
second set of digests pins each relation on its own entry, traced:
eval_ct and eval_ul of the program, eval_dl of eval_ul's output and
eval_rt of eval_ct's (or of the program, when ct fails), each written
as the printed output and the to_json derivation, or the error. Two
more pin the pieces underneath: the printed result of subst on seeded
(body, value, name) triples, primed names among them so that binders
get renamed, and the checker's outcomes on seeded typed programs and
their residuals, against the empty environment and one that binds
their free variables, and their rejections when checked against a type
they were not made at. A last one pins the parser: the repr of each
seeded source's term, or the ParseError with its span and expected list,
in both modes, over lexer pieces, printed generated terms whole and cut
short, and parser-raised errors after multi-byte text and after a
'-' split off an integer literal. The digests in outcome_digests.json
were written by the code a refactor starts from; a refactor that keeps
behaviour keeps them.

A change that alters an outcome on purpose rewrites the file, and says
so, with:

    PYTHONPATH=src python tests/test_outcome_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from hgmp.parser import MODES, ParseError, parse_term
from hgmp.reduction import (
    EvalError, eval_ct, eval_dl, eval_rt, eval_ul, run_pipeline, to_json,
)
from hgmp.syntax import (
    CODE, INT, STRING, Arrow, Rec, pretty, pretty_type, subst,
)
from hgmp.typecheck import EMPTY_ENV, TypeErrorDetail, check, infer

from gen_terms import (
    NAMES, PRIMED_NAMES, gen_compile_candidate, gen_ml_free,
    gen_numeric_rec, gen_open_eval, gen_quoted_eval, gen_term, gen_type,
    gen_typed_term,
)
from test_parser import LEX_ERRORS, LEX_GAPS, LEX_PIECES

DIGESTS = Path(__file__).resolve().parent / "outcome_digests.json"
SEED = 12
FUEL = 3_000

# name: (program generator, pipeline mode, rounds); numeric recursion
# runs longest, so it gets fewer rounds
GENERATORS = {
    "gen_term": (lambda rng: gen_term(rng, rng.randint(0, 4)), "untyped",
                 600),
    "gen_term_typed": (lambda rng: gen_term(rng, rng.randint(0, 4),
                                            typed=True), "typed", 600),
    "gen_compile_candidate": (gen_compile_candidate, "untyped", 600),
    "gen_open_eval": (gen_open_eval, "untyped", 600),
    "gen_numeric_rec": (gen_numeric_rec, "untyped", 200),
    "gen_quoted_eval": (gen_quoted_eval, "untyped", 600),
    "gen_quoted_eval_typed": (lambda rng: gen_quoted_eval(rng, typed=True),
                              "typed", 600),
}


def _shown(x, show) -> str:
    return "-" if x is None else show(x)


def error_text(err: EvalError) -> str:
    text = [err.kind, err.phase, err.message, str(err)]
    detail = err.detail
    if detail is not None:
        text += [detail.kind, detail.message, detail.phase,
                 _shown(detail.expected, pretty_type),
                 _shown(detail.found, pretty_type),
                 _shown(detail.at, pretty)]
    return "error\n" + "\n".join(text)


def outcome(program, mode: str, fuel: int, trace: bool) -> str:
    """One run's outcome as text."""
    try:
        result = run_pipeline(program, mode, fuel, trace=trace)
    except EvalError as err:
        return error_text(err)
    return "\n".join([
        "value", pretty(result.value), pretty(result.residual),
        _shown(result.residual_type, pretty_type),
        _shown(result.stages, to_json)])


def digest(name: str) -> str:
    make, mode, rounds = GENERATORS[name]
    rng = random.Random(f"{SEED}:{name}")
    h = hashlib.sha256()
    for _ in range(rounds):
        program = make(rng)
        fuel = rng.randint(1, 40) if rng.random() < 0.2 else FUEL
        for trace in (False, True):
            h.update(outcome(program, mode, fuel, trace).encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def traced_outcomes(program, mode: str, fuel: int):
    """The traced outcomes of ct, ul, dl and rt, each on its own entry."""
    runs = [("ct", lambda m: eval_ct(m, mode, fuel, trace=True), program),
            ("ul", lambda m: eval_ul(m, mode, fuel, trace=True), program),
            ("dl", lambda m: eval_dl(m, fuel, trace=True), None),
            ("rt", lambda m: eval_rt(m, mode, fuel, trace=True), None)]
    outs = {}
    for name, relation, m in runs:
        if m is None:  # dl takes ul's output, rt ct's, if they have one
            m = outs.get("ul" if name == "dl" else "ct", program)
        try:
            out, derivation = relation(m)
        except EvalError as err:
            yield error_text(err)
            continue
        outs[name] = out
        yield "\n".join([name, pretty(out), to_json(derivation)])


def traced_digest(name: str) -> str:
    make, mode, rounds = GENERATORS[name]
    rng = random.Random(f"{SEED}:{name}:traced")
    h = hashlib.sha256()
    for _ in range(rounds):
        program = make(rng)
        fuel = rng.randint(1, 40) if rng.random() < 0.2 else FUEL
        for text in traced_outcomes(program, mode, fuel):
            h.update(text.encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def _hashed(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


def subst_texts(rounds: int = 20_000):
    """pretty(subst(m, v, x)) on seeded triples. Bodies and names come
    from two small name sets in turn, one of them primed; a value is
    closed or a small term open over the same names."""
    rng = random.Random(f"{SEED}:subst")
    for i in range(rounds):
        names = PRIMED_NAMES if i % 2 else NAMES[:4]
        m = gen_ml_free(rng, rng.randint(0, 4), names, names=names)
        v = gen_ml_free(rng, rng.randint(0, 2),
                        names if rng.random() < 0.5 else (), names=names)
        yield pretty(subst(m, v, rng.choice(names)))


# The variables the checker's programs may use, and their types.
SCOPE = (("x", INT), ("f", Arrow(INT, INT)), ("c", CODE), ("s", STRING))


def checker_texts(rounds: int = 2_000):
    """Each seeded typed program's, and its residual's, inferred type and
    check against the type it was made at, or the rejection, under the
    empty environment and under SCOPE."""
    rng = random.Random(f"{SEED}:checker")
    under_scope = dict(SCOPE)
    for _ in range(rounds):
        ty = gen_type(rng, 1)
        m = gen_typed_term(rng, ty, SCOPE, rng.randint(1, 4))
        candidates = [m]
        try:
            candidates.append(eval_ct(m, "typed", fuel=10_000))
        except EvalError:
            pass
        for m in candidates:
            for env in (EMPTY_ENV, under_scope):
                for run in (lambda: pretty_type(infer(env, m)),
                            lambda: check(env, m, ty) or pretty_type(ty)):
                    try:
                        yield run()
                    except TypeErrorDetail as err:
                        yield f"{err.kind}: {err.describe()}"


def _size(m) -> int:
    return 1 + sum(map(_size, m.children()))


def _planted(m, k: int, graft):
    """m with its k-th subterm in preorder (m itself is the 0th)
    replaced by graft."""
    if k == 0:
        return graft
    k -= 1
    kids = list(m.children())
    for i, kid in enumerate(kids):
        size = _size(kid)
        if k < size:
            kids[i] = _planted(kid, k, graft)
            return m.rebuild(kids)
        k -= size
    raise IndexError("no such subterm")


def _rejection(run) -> str:
    try:
        return run()
    except TypeErrorDetail as err:
        return f"{err.kind}: {err.describe()}"


def checker_mismatch_texts(rounds: int = 2_000):
    """Each seeded typed program, and its residual, under the empty
    environment and under SCOPE: checked against a type other than the
    one it was made at; as the body of a rec annotated to return that
    type; and, with one seeded subterm replaced by a term of that type,
    checked against its own. Each gives the rejection's kind and
    description, or the type. A message, its `at` term and which side
    is found depend on the order in which the checker unifies."""
    rng = random.Random(f"{SEED}:checker_mismatch")
    under_scope = dict(SCOPE)
    for _ in range(rounds):
        ty = gen_type(rng, 1)
        m = gen_typed_term(rng, ty, SCOPE, rng.randint(1, 4))
        other = gen_type(rng, 1)
        while other == ty:
            other = gen_type(rng, 1)
        graft = gen_typed_term(rng, other, SCOPE, rng.randint(0, 2))
        candidates = [m]
        try:
            candidates.append(eval_ct(m, "typed", fuel=10_000))
        except EvalError:
            pass
        for m in candidates:
            rec = Rec("f", "x", m, Arrow(INT, other))
            planted = _planted(m, rng.randrange(_size(m)), graft)
            for env in (EMPTY_ENV, under_scope):
                yield _rejection(lambda: check(env, m, other) or "ok")
                yield _rejection(lambda: pretty_type(infer(env, rec)))
                yield _rejection(lambda: check(env, planted, ty) or "ok")


# Errors the parser, not the lexer, raises, and a long literal; each is
# parsed after every prefix, so that its span lies past ASCII text, past
# multi-byte text, and past a '-' split off an integer literal.
PARSE_PREFIXES = ("", "1 + ", '"日本" é + ', "x-1 + ", "é -1-2 + ")
PARSE_CASES = [
    "astInt(1, 2)", "astLam(x)", "astPromote()", "astInt(-1-1, é)",
    "astInt(" + "9" * 4400 + ", -" + "1" * 4400 + ")",
    "astLam{Int}(x, 1)", "#lam{Int}", "eval(1)", "#eval", "astEval(1)",
    "eval{Int}(1)", "#eval{Code}", "astEval{Int}(1)", "eval{Int",
    "rec g x : Int . g x", r"\x : Foo . x", r"\x : (Int -> é) . x",
    "let " + "9" * 4400 + " = 1 in 2", "let -" + "1" * 4400 + " = 1 in 2",
    "x -" + "9" * 4400 + " let", "(1 -1", "[| x-1 |] -1 )",
    r"\x : Int -1 . x", "let x -" + "9" * 4400 + " = 1 in x",
]


def _parsed(text: str, mode: str) -> str:
    try:
        term = parse_term(text, mode)
    except ParseError as err:
        return "error\n" + str(err)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # repr spells literals of any length
    try:
        return repr(term)
    finally:
        sys.set_int_max_str_digits(limit)


def parser_texts(rounds: int = 3_000):
    """Each source parsed in both modes: seeded runs of lexer pieces,
    printed generated terms, whole and cut short, and every prefixed
    PARSE_CASES entry."""
    rng = random.Random(f"{SEED}:parser")
    sources = []
    for _ in range(rounds):
        sources.append("".join(
            rng.choice(LEX_ERRORS if rng.random() < 0.05 else LEX_PIECES)
            + rng.choice(LEX_GAPS) for _ in range(rng.randint(0, 12))))
        text = pretty(gen_term(rng, rng.randint(0, 4),
                               typed=rng.random() < 0.5))
        sources += [text, text[:rng.randint(0, len(text))]]
    sources += [prefix + case for prefix in PARSE_PREFIXES
                for case in PARSE_CASES]
    for text in sources:
        for mode in MODES:
            yield _parsed(text, mode)


def test_outcomes_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert (pinned["seed"], pinned["fuel"]) == (SEED, FUEL)
    assert {name: digest(name) for name in GENERATORS} == pinned["digests"]


def test_traced_relations_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert ({name: traced_digest(name) for name in GENERATORS}
            == pinned["traced_relations"])


def test_subst_matches_its_pinned_digest():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _hashed(subst_texts()) == pinned["subst"]


def test_checker_matches_its_pinned_digest():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _hashed(checker_texts()) == pinned["checker"]


def test_checker_mismatches_match_their_pinned_digest():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _hashed(checker_mismatch_texts()) == pinned["checker_mismatch"]


def test_parser_matches_its_pinned_digest():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert _hashed(parser_texts()) == pinned["parser"]


if __name__ == "__main__":
    sys.setrecursionlimit(20_000)  # as tests/conftest.py sets it
    DIGESTS.write_text(json.dumps(
        {"seed": SEED, "fuel": FUEL,
         "digests": {name: digest(name) for name in GENERATORS},
         "traced_relations": {name: traced_digest(name)
                              for name in GENERATORS},
         "subst": _hashed(subst_texts()),
         "checker": _hashed(checker_texts()),
         "checker_mismatch": _hashed(checker_mismatch_texts()),
         "parser": _hashed(parser_texts())},
        indent=2) + "\n", encoding="utf-8")
