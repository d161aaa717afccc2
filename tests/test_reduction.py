import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hgmp import reduction
from hgmp.cli import main
from hgmp.parser import parse_term
from hgmp.reduction import (
    Derivation, EvalError, eval_ct, eval_dl, eval_rt, eval_ul,
    render_derivation, render_trace, run_pipeline, to_json,
)
from hgmp.syntax import (
    BINOPS, TAGS,
    App, AstCtor, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam, LetDown,
    Lift, Rec, StrLit, Tag, TagLit, Term, UpML, Var,
    _escape, alpha_eq, free_vars, is_ml_free, mk_ast, pretty,
    pretty_type,
)
from hgmp.typecheck import EMPTY_ENV, infer

from gen_terms import (
    gen_compile_candidate, gen_constant, gen_env_capture, gen_ml_free,
    gen_numeric_rec, gen_open_eval, gen_term,
)


CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def t(src, mode="untyped"):
    return parse_term(src, mode)


def stuck_in(phase, fn, *args, **kwargs):
    with pytest.raises(EvalError) as exc:
        fn(*args, **kwargs)
    assert exc.value.kind == EvalError.STUCK
    assert exc.value.phase == phase
    return exc.value


### compile time

def test_ct_splice_of_string_build():
    got = eval_ct(t(r'(\z.z) $(astStr((\y.y) "x"))'))
    assert got == t(r'(\z.z) "x"')


def test_ct_fig_top():
    got = eval_ct(t(r"(\x.x) $((\x.x) astInt(7))"))
    assert got == t(r"(\x.x) 7")


def test_ct_capture():
    assert eval_ct(t(r'\x. $(astVar("x"))')) == t(r"\x. x")
    assert eval_ct(t(r'\y. $(astVar("x"))')) == t(r"\y. x")


def test_ct_identity_on_ml_free():
    m = t(r"\x. x + 1")
    assert eval_ct(m) == m


def test_ct_letdown_cube():
    src = (r"letdown power = (\n. [| \x. $((rec p q. if q == 1 then [| x |]"
           r" else [| x * $(p (q - 1)) |]) n) |]) in"
           r" letdown cube = $(power 3) in cube 4 + cube 5")
    residual = eval_ct(t(src))
    assert is_ml_free(residual)
    assert eval_rt(residual) == IntLit(189)


def test_ct_quote_delegates_to_ul():
    assert eval_ct(t("[| 2 + $([| 3 + 4 |]) |]")) == t(
        "astAdd(astInt(2), astAdd(astInt(3), astInt(4)))")


def test_ct_lift_reductions():
    assert eval_ct(t("[| 2 + 3 |]")) == t("astAdd(astInt(2), astInt(3))")
    assert eval_rt(eval_ct(t("[| 2 + 3 |]"))) == t(
        "astAdd(astInt(2), astInt(3))")
    assert eval_ct(t("lift(2 + 3)")) == t("lift(2 + 3)")
    assert eval_rt(eval_ct(t("lift(2 + 3)"))) == t("astInt(5)")


### down one meta-level

def test_dl_var():
    assert eval_dl(t('astVar("x")')) == Var("x")


def test_dl_lam():
    assert eval_dl(t('astLam(astStr("x"), astVar("x"))')) == t(r"\x.x")


def test_dl_promote_examples():
    assert eval_dl(t('astPromote(#str, astStr("x"))')) == t('astStr("x")')
    got = eval_dl(t("astPromote(#promote, #int, astPromote(#int, astInt(1)),"
                    " astPromote(#int, astInt(1)))"))
    assert got == t("astPromote(#int, astInt(1), astInt(1))")
    # the malformed rebuild is allowed out of dl; the next conversion rejects
    bad = eval_dl(got)
    assert bad == AstCtor(Tag("int"), (IntLit(1), IntLit(1)))
    stuck_in("dl", eval_dl, bad)


def test_dl_rejects_non_ast():
    stuck_in("dl", eval_dl, t(r"\x.x"))


def test_dl_arity_mismatch_is_stuck():
    stuck_in("dl", eval_dl, AstCtor(Tag("int"), (IntLit(1), IntLit(1))))
    stuck_in("dl", eval_dl, AstCtor(Tag("app"), (mk_ast("int", IntLit(1)),)))


def test_dl_lam_binder_must_be_string():
    bad = t("astLam(astInt(1), astVar(\"x\"))")
    err = stuck_in("dl", eval_dl, bad)
    assert "string" in err.message


def test_dl_var_needs_literal_child():
    # the axiom form: a computed name must already have been evaluated
    stuck_in("dl", eval_dl, mk_ast("var", mk_ast("string", StrLit("x"))))


def test_dl_eval_and_lift():
    assert eval_dl(t("astEval(astPromote(#int, astInt(3)))")) == t(
        "eval(astInt(3))")
    assert eval_dl(t("astLift(astInt(3))")) == t("lift(3)")
    got = eval_dl(t("astPromote(#eval{Int}, astPromote(#int, astInt(3)))",
                    "typed"))
    assert got == t("astEval{Int}(astInt(3))", "typed")


def test_dl_tag_value():
    assert eval_dl(t("#lam")) == TagLit(Tag("lam"))


### up one meta-level

def test_ul_var():
    assert eval_ul(Var("x")) == t('astVar("x")')


def test_ul_ast_promotion():
    got = eval_ul(t("astInt(3)"))
    assert got == t("astPromote(#int, astInt(3))")
    assert eval_dl(got) == t("astInt(3)")


def test_ul_tag():
    assert eval_ul(t("#lam")) == t("#lam")


def test_ul_nested_quote():
    assert eval_ul(t("[| x |]")) == t('astPromote(#var, astStr("x"))')


def test_ul_letdown_is_stuck():
    err = stuck_in("ul", eval_ul, t("letdown x = 1 in 2"))
    assert "letdown" in err.message


def test_ul_hole_is_spliced_verbatim():
    got = eval_ul(t("2 + $([| 3 + 4 |])"))
    assert got == t("astAdd(astInt(2), astAdd(astInt(3), astInt(4)))")


### run time

def test_rt_fig_bottom():
    assert eval_rt(t(r"(\x.x)(eval((\x.x) astInt(7)))")) == IntLit(7)


def test_rt_lift():
    assert eval_rt(t("lift(2 + 3)")) == t("astInt(5)")
    assert eval_rt(t('lift("s")')) == t('astStr("s")')
    assert eval_rt(t("lift(1 == 1)")) == t("astBool(true)")
    stuck_in("rt", eval_rt, t(r"lift(\x.x)"))


def test_rt_ast_children_evaluate():
    assert eval_rt(t("astInt(2 + 3)")) == t("astInt(5)")


def test_rt_add_non_number_is_stuck():
    stuck_in("rt", eval_rt, t(r"2 + \x.x"))


def test_rt_promote_head_computed():
    got = eval_rt(t(r"astPromote((\t.t) #int, astInt(1))"))
    assert got == t("astPromote(#int, astInt(1))")


def test_rt_rec_unfolds():
    fact = t("rec f n. if n == 1 then 1 else n * f (n - 1)")
    assert eval_rt(App(fact, IntLit(5))) == IntLit(120)


def _rt_outcome(m, mode="untyped", trace=False, fuel=None):
    """eval_rt's value, or the error's kind, phase, message and term."""
    try:
        out = eval_rt(m, mode, fuel, trace=trace)
    except EvalError as exc:
        return exc.kind, exc.phase, exc.message, exc.offending
    return out[0] if trace else out


def _reference_rt_outcome(m, mode, fuel):
    """What the reference _rt, untraced, gives for m, as _rt_outcome."""
    try:
        return reduction._rt(m, reduction._Run(fuel, mode == "typed",
                                               False))
    except EvalError as exc:
        return exc.kind, exc.phase, exc.message, exc.offending


@pytest.mark.parametrize("mode", ["untyped", "typed"])
def test_eval_rt_of_open_code_on_the_machine_is_the_reference_outcome(mode):
    # Open terms, and the open code eval builds, run on the machine. It
    # reads \z. a b over {a: \q. b, b: 1} back with the substitutions
    # the reference made: the names of the env substituted one at a
    # time, it would be \z. (\q. 1) 1.
    capture = t(r"(\a. \b. \z. a b) (\q. b) 1")
    assert _rt_outcome(capture, "typed") == t(r"\z. (\q. b) 1")
    assert _rt_outcome(capture) == t(r"\z. (\q. b) 1")
    # The reference renames \a to \a' and so \a' to \a'', with (\z. a)
    # for b; substituted at once, the env would leave \a'. (\z. a) 5.
    renamed = t(r"(\b. \a. \a'. b a) (\z. a) 5")
    assert repr(_rt_outcome(renamed, mode)) == repr(t(r"\a''. (\z. a) 5"))
    rng = random.Random(4417)
    seen = set()
    for i in range(1_500):
        if i % 2:
            m = gen_env_capture(rng, typed=mode == "typed")
        else:
            m = gen_ml_free(rng, rng.randint(1, 4), ("a", "b"),
                            with_eval=True, typed=mode == "typed")
        if not free_vars(m):
            continue
        fuel = rng.randint(1, 30) if rng.random() < 0.2 else 20_000
        got = _rt_outcome(m, mode, fuel=fuel)
        assert repr(got) == repr(_reference_rt_outcome(m, mode, fuel)), \
            pretty(m)
        seen.add(got[0] if isinstance(got, tuple) else "value")
    assert seen == {"value", EvalError.STUCK, EvalError.FUEL,
                    *[EvalError.TYPE] * (mode == "typed")}


OPEN_CODE = [
    r"(\a. \b. \z. a b) (\q. b) 1",
    r'(\a. \b. \z. a b) (eval(astLam(astStr("q"), astVar("b")))) 5',
    r'(\a. \b. (a b) + 1) (eval(astLam(astStr("q"), astVar("b")))) 5',
    r"(\b. \a. \a'. b a) (\z. a) 5",
    r"(\b''. (\c. \b. b'' c) (\z. b')) (\z. b)",
]


@pytest.mark.parametrize("src", OPEN_CODE, ids=[
    "lambda", "eval", "stuck", "outer-rename", "rename-twice"])
def test_open_code_on_every_fuel_budget(src):
    # The machine, untraced _rt and traced _rt, from a budget of 1 to the
    # first that does not run out: the same value, or the same error.
    m = t(src)
    for fuel in range(1, 1_000):
        machine = _rt_outcome(m, fuel=fuel)
        reference = _reference_rt_outcome(m, "untyped", fuel)
        traced = _rt_outcome(m, fuel=fuel, trace=True)
        assert repr(machine) == repr(reference) == repr(traced), fuel
        if not isinstance(machine, tuple) or machine[0] != EvalError.FUEL:
            break
    else:
        pytest.fail("out of fuel at every budget")


def test_rt_rec_param_shadows_self():
    # Traced on substitution, untraced on the machine: the same outcome.
    shadow = parse_term("rec f f. f + 1")
    for trace in (False, True):
        assert _rt_outcome(App(shadow, IntLit(41)), trace=trace) == IntLit(42)
    applied = t("(rec f f. f 1) 3")
    untraced, traced = _rt_outcome(applied), _rt_outcome(applied, trace=True)
    assert untraced == traced
    assert untraced[:3] == (EvalError.STUCK, "rt",
                            "application of a non-function value")


def test_rt_eq_on_strings_untyped():
    assert eval_rt(t('"a" == "a"')) == BoolLit(True)
    assert eval_rt(t('"a" == "b"')) == BoolLit(False)
    stuck_in("rt", eval_rt, t('"a" == 1'))


def test_rt_free_variable_is_stuck():
    stuck_in("rt", eval_rt, Var("x"))


def test_rt_ml_constructs_are_stuck():
    stuck_in("rt", eval_rt, t("[| 1 |]"))
    stuck_in("rt", eval_rt, t("$(astInt(1))"))


### pipeline

def test_pipeline_letdown_cube():
    src = (r"letdown power = (\n. [| \x. $((rec p q. if q == 1 then [| x |]"
           r" else [| x * $(p (q - 1)) |]) n) |]) in"
           r" letdown cube = $(power 3) in cube 4 + cube 5")
    assert run_pipeline(t(src)).value == IntLit(189)


def test_pipeline_typed_eval_cube():
    src = (r"letdown power = (\n. [| \x. $((rec p q. if q == 1 then [| x |]"
           r" else [| x * $(p (q - 1)) |]) n) |]) in"
           r" let cube = eval{Int -> Int}(power 3) in cube 4 + cube 5")
    result = run_pipeline(t(src, "typed"), "typed")
    assert result.value == IntLit(189)
    from hgmp.syntax import INT
    assert result.residual_type == INT


def test_pipeline_higher_order_cube():
    src = ('letdown power_ho = (\\m:Int. [| \\n. astLam(astStr("x"),'
           ' (rec p q. if q == 1 then astVar("x")'
           ' else astMul(astVar("x"), p (q - 1)))'
           ' ($(lift(m)) + n)) |]) in'
           ' letdown cube = $($(power_ho 1) 2) in cube 4')
    assert run_pipeline(t(src)).value == IntLit(64)


def test_pipeline_typed_residual_failure():
    with pytest.raises(EvalError) as exc:
        run_pipeline(t(r'2 + $(astLam(astStr("x"), astVar("x")))', "typed"),
                     "typed")
    err = exc.value
    assert err.kind == EvalError.TYPE
    assert err.phase == "type"
    assert alpha_eq(err.offending, t(r"2 + (\x.x)"))
    assert err.detail.phase == "residual check"


def test_type_error_message_is_prefixed_once():
    with pytest.raises(EvalError) as exc:
        run_pipeline(t("1 + true", "typed"), "typed")
    err = exc.value
    assert err.message == "expected Int, found Bool at `true` (residual check)"
    assert str(err).count("error[type]") == 1


def test_rec_annotation_json_keeps_arrow_grouping():
    def annot(src):
        return json.loads(to_json(t(src, "typed")))["annot"]
    assert annot("rec f x : (Int -> Int) -> Int. 1") == "(Int -> Int) -> Int"
    assert annot("rec f x : Int -> Int -> Int. 1") == "Int -> Int -> Int"


def test_pipeline_requires_closed_terms():
    with pytest.raises(EvalError) as exc:
        run_pipeline(t("x + 1"))
    assert "closed" in exc.value.message


def test_pipeline_stage_phases_labelled():
    cases = [
        (t("$(2)"), "untyped", "dl"),          # splice result is not code
        (t(r"$((\y. 1 2) 0)"), "untyped", "rt"),
        (t("1 2"), "untyped", "rt"),
        (t("[| letdown x = 1 in 2 |]"), "untyped", "ul"),
    ]
    for term, mode, phase in cases:
        with pytest.raises(EvalError) as exc:
            run_pipeline(term, mode)
        assert exc.value.phase == phase, pretty(term)


### fuel

def test_fuel_exhaustion_is_not_stuck():
    omega = t(r"(\x. x x) (\x. x x)")
    with pytest.raises(EvalError) as exc:
        eval_rt(omega, fuel=5_000)
    assert exc.value.kind == EvalError.FUEL


def test_fuel_counts_rule_applications():
    assert eval_rt(IntLit(1), fuel=1) == IntLit(1)
    with pytest.raises(EvalError) as exc:
        eval_rt(t("1 + 2"), fuel=2)  # needs three applications
    assert exc.value.kind == EvalError.FUEL
    assert eval_rt(t("1 + 2"), fuel=3) == IntLit(3)


def test_fuel_shared_across_relations_in_pipeline():
    src = t("$([| 1 + 2 |])")
    with pytest.raises(EvalError) as exc:
        run_pipeline(src, fuel=4)
    assert exc.value.kind == EvalError.FUEL
    result = run_pipeline(src, fuel=100)
    assert result.value == IntLit(3)


def test_fuel_must_be_positive():
    with pytest.raises(ValueError):
        eval_rt(IntLit(1), fuel=0)


def test_fuel_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("HGMP_FUEL", "abc")
    with pytest.raises(ValueError) as exc:
        eval_rt(IntLit(1))
    assert str(exc.value) == "HGMP_FUEL is not an integer: 'abc'"
    monkeypatch.setenv("HGMP_FUEL", "3")
    assert eval_rt(t("1 + 2")) == IntLit(3)
    with pytest.raises(EvalError) as exc:
        eval_rt(t("1 + 2 + 3"))
    assert exc.value.kind == EvalError.FUEL


MODE_ERROR = "mode must be one of ('typed', 'untyped'), got 'Typed'"
ARGUMENT_ERRORS = [
    # (id, entry point, its arguments, the error's class and message)
    *[(f"{entry.__name__}-mode", entry, (IntLit(1), "Typed"), ValueError,
       MODE_ERROR) for entry in (run_pipeline, eval_ct, eval_ul, eval_rt)],
    *[(f"{entry.__name__}-term", entry, (5,), TypeError, "not a Term: 5")
      for entry in (run_pipeline, eval_ct, eval_ul, eval_dl, eval_rt)],
    # A value inside a term that is no Term: every entry point checks the
    # whole term in the walk that finds its free variables.
    *[(f"{entry.__name__}-argument", entry, (App(Lam("x", Var("x")), 5),),
       TypeError, "not a Term: 5")
      for entry in (eval_ct, eval_ul, eval_dl, eval_rt)],
    ("run_pipeline-argument", run_pipeline, (App(Lam("x", Var("x")), 5),),
     TypeError, "not a Term: 5"),
    ("run_pipeline-tuple-argument", run_pipeline,
     (App(Lam("x", Var("x")), (5,)),), TypeError, "not a Term: (5,)"),
    # A tuple of names bound around it is no binder's names either.
    ("run_pipeline-bound-tuple-argument", run_pipeline,
     (App(Lam("x", App(Var("x"), ("x",))), IntLit(1)),), TypeError,
     "not a Term: ('x',)"),
]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("entry, args, error, message",
                         [row[1:] for row in ARGUMENT_ERRORS],
                         ids=[row[0] for row in ARGUMENT_ERRORS])
def test_entry_points_reject_a_bad_mode_or_term(entry, args, error, message,
                                                trace):
    with pytest.raises(Exception) as exc:
        entry(*args, trace=trace)
    assert (type(exc.value), str(exc.value)) == (error, message)


def _rule_count(d: Derivation) -> int:
    return (d.relation != "type") + sum(_rule_count(p) for p in d.premises)


def test_fuel_needed_is_the_rule_count():
    # Every derivation node except a type premise costs exactly one unit.
    def compile_only(m, mode, fuel):
        out, deriv = eval_ct(m, fuel=fuel, trace=True)
        return out, (deriv,)

    def pipeline(m, mode, fuel):
        result = run_pipeline(m, mode, fuel, trace=True)
        return result.value, tuple(d for _, d in result.stages)

    rng = random.Random(106)
    jobs = [(compile_only, gen_compile_candidate(rng), "untyped")
            for _ in range(250)]
    for mode in ("untyped", "typed"):
        typed = mode == "typed"
        jobs += [(pipeline, gen_term(rng, rng.randint(0, 5), typed=typed),
                  mode) for _ in range(250)]
    untraced = {compile_only: lambda m, mode, fuel: eval_ct(m, fuel=fuel),
                pipeline: lambda m, mode, fuel: run_pipeline(m, mode,
                                                             fuel).value}
    checked = 0
    for run, m, mode in jobs:
        try:
            value, derivs = run(m, mode, 20_000)
        except EvalError:
            continue
        need = sum(_rule_count(d) for d in derivs)
        assert run(m, mode, need)[0] == value, pretty(m)
        # Untraced, rt runs on the environment machine: same fuel.
        assert untraced[run](m, mode, need) == value, pretty(m)
        if need > 1:  # fuel 0 is rejected before any rule runs
            for attempt in (lambda: run(m, mode, need - 1),
                            lambda: untraced[run](m, mode, need - 1)):
                with pytest.raises(EvalError) as exc:
                    attempt()
                assert exc.value.kind == EvalError.FUEL, pretty(m)
        checked += 1
    assert checked >= 400


def _spend_order(derivs) -> list[Derivation]:
    """The nodes of derivs that cost fuel, read as trees in pre-order: a
    rule spends its unit before its premises run, left to right, so the
    n-th node is the n-th unit spent."""
    order, stack = [], list(reversed(derivs))
    while stack:
        d = stack.pop()
        if d.relation != "type":
            order.append(d)
        stack += reversed(d.premises)
    return order


def _fuel_oracle_jobs():
    """(label, run) pairs, run(fuel, trace) returning the output and, when
    traced, the derivations of the stages it ran."""
    def relation(entry, m, *mode):
        def go(fuel, trace):
            out = entry(m, *mode, fuel=fuel, trace=trace)
            return (out[0], (out[1],)) if trace else (out, ())
        return go

    def pipeline(m, mode):
        def go(fuel, trace):
            result = run_pipeline(m, mode, fuel, trace=trace)
            return result.value, tuple(d for _, d in result.stages or ())
        return go

    rng = random.Random(2917)
    jobs = []
    for _ in range(150):
        jobs.append(("ct", relation(eval_ct, gen_compile_candidate(rng))))
        m = gen_ml_free(rng, rng.randint(0, 4))
        jobs.append(("ul", relation(eval_ul, m)))
        jobs.append(("dl", relation(eval_dl, eval_ul(m))))
        for mode in ("untyped", "typed"):
            m = gen_term(rng, rng.randint(0, 4), typed=mode == "typed")
            jobs.append((mode, pipeline(m, mode)))
    quoted = Eval(UpML(gen_numeric_rec(random.Random(0))))
    jobs.append(("quoted", pipeline(quoted, "untyped")))
    power = (CORPUS / "power_eval_cube_typed.hgmp").read_text()
    jobs.append(("power", pipeline(t(power, "typed"), "typed")))
    return jobs


def test_fuel_runs_out_on_the_node_the_derivation_spends_next():
    # An oracle the fused steps cannot share: with fuel b, traced and
    # untraced runs both stop on the term of the (b + 1)-th node the full
    # traced derivation spends on, and in its relation; with the whole
    # need, they return the value.
    rng = random.Random(3)
    checked = budgets = 0
    for label, run in _fuel_oracle_jobs():
        try:
            value, derivs = run(10**6, True)
        except EvalError:
            assert label not in ("quoted", "power")
            continue
        order = _spend_order(derivs)
        need = len(order)
        assert run(need, True)[0] == value == run(need, False)[0], label
        tried = range(1, need)
        for fuel in (tried if need <= 41 else rng.sample(tried, 40)):
            node = order[fuel]
            for trace in (False, True):
                with pytest.raises(EvalError) as exc:
                    run(fuel, trace)
                err = exc.value
                assert (err.kind, err.phase, err.offending) == (
                    EvalError.FUEL, node.relation, node.term_in), (
                    label, fuel, trace)
            budgets += 1
        checked += 1
    assert checked >= 500 and budgets >= 2_500


### untraced rt: the environment machine against substitution

def _outcome(m, mode="untyped", fuel=None, trace=False):
    """Value and residual, or the error's kind, phase, message and term."""
    try:
        result = run_pipeline(m, mode, fuel, trace=trace)
    except EvalError as exc:
        return exc.kind, exc.phase, exc.message, exc.offending
    return result.value, result.residual, result.residual_type


OPEN_LAMBDA = 'eval(astLam(astStr("q"), astVar("b")))'


@pytest.mark.parametrize("src, printed", [
    # Substitution renames \b, so the open body's b stays apart from 5.
    (rf"(\a. \b. \z. a b) ({OPEN_LAMBDA}) 5", r"\z. (\q. b) 5"),
    (rf"(\a. \b. a b) ({OPEN_LAMBDA}) 5", "unbound variable b"),
    (rf"(\a. \b. (a b) + 1) ({OPEN_LAMBDA}) 5", "unbound variable b"),
], ids=["value", "stuck", "stuck-under-add"])
def test_untraced_rt_of_open_eval_code_is_the_reference(src, printed):
    untraced, traced = _outcome(t(src)), _outcome(t(src), trace=True)
    assert untraced == traced
    if printed.startswith("unbound"):
        assert untraced[:3] == (EvalError.STUCK, "rt", printed)
        assert untraced[3] == Var("b")
    else:
        assert pretty(untraced[0]) == printed


def test_untraced_rt_reads_closures_back_as_substitution_does():
    for src, printed in [(r"(\k. \x. x * k) 4", r"\x. x * 4"),
                         (r"(\f. \k. \x. f x k) (\a. \b. a + b) 2",
                          r"\x. (\a. \b. a + b) x 2"),
                         (r"(\n. rec f x. if x == n then x else f (x + 1)) 3",
                          "rec f x. if x == 3 then x else f (x + 1)")]:
        assert pretty(eval_rt(t(src))) == printed
        assert eval_rt(t(src)) == eval_rt(t(src), trace=True)[0]
    err = stuck_in("rt", eval_rt, t(r"(\k. \x. x + k) true 1"))
    assert err.offending == t("1 + true")


def test_untraced_rt_charges_a_bound_ast_as_substitution_does():
    # Substitution puts the AST in place of the variable, where rt runs
    # it again, one unit per node: the machine charges the same, and runs
    # out of fuel on the same term.
    m = t(r'(\x. \y. x) astAdd(astInt(1), astVar("v")) lift(2)')
    for fuel in range(1, 29):
        assert _outcome(m, fuel=fuel) == _outcome(m, fuel=fuel, trace=True)
    assert _outcome(m, fuel=27)[0] == EvalError.FUEL
    assert _outcome(m, fuel=28)[0] == t('astAdd(astInt(1), astVar("v"))')


_ADD_NEEDS_INTS = "add needs integer operands"
_IF_NEEDS_BOOL = "if condition is not a boolean"


@pytest.mark.parametrize("m, value", [
    (BinOp("add", BoolLit(True), IntLit(1)), _ADD_NEEDS_INTS),
    (BinOp("eq", BoolLit(True), IntLit(1)),
     "== compares two integers or two strings"),
    (If(IntLit(1), IntLit(2), IntLit(3)), _IF_NEEDS_BOOL),
    (If(IntLit(0), IntLit(2), IntLit(3)), _IF_NEEDS_BOOL),
    (Lift(BoolLit(True)), mk_ast("bool", BoolLit(True))),
], ids=["add-bool-int", "eq-bool-int", "if-int-true", "if-int-false",
        "lift-bool-int"])
def test_untraced_rt_keeps_library_built_literals_on_the_reference(m, value):
    # Python takes True for 1 (True + 1 == 2, True == 1, `if 1` picks the
    # then branch), but BoolLit(True) and IntLit(1) are two terms: built
    # by a library caller next to each other, the machine computes them as
    # the reference does, down to the Python types of the result.
    untraced, traced = _outcome(m), _outcome(m, trace=True)
    assert (untraced, repr(untraced)) == (traced, repr(traced))
    if isinstance(value, str):
        assert untraced == (EvalError.STUCK, "rt", value, m)
    else:
        assert untraced == (value, m, None)
        assert repr(eval_rt(m)) == repr(value)


def test_to_json_rejects_what_is_no_trace():
    with pytest.raises(TypeError) as exc:
        to_json({"stages": [1.5]})
    assert str(exc.value) == "cannot write 1.5 as trace JSON"


def test_literals_of_another_host_type_are_rejected():
    # A literal holds exactly its class's host type, so the machine has
    # one representation of each: IntLit(True) or BoolLit(1) is no term.
    host = {IntLit: "int", BoolLit: "bool", StrLit: "str"}
    for cls, value in [(IntLit, True), (IntLit, 1.5), (IntLit, "3"),
                       (BoolLit, 1), (BoolLit, 0), (BoolLit, "no"),
                       (StrLit, 1), (StrLit, None)]:
        with pytest.raises(ValueError) as exc:
            cls(value)
        assert str(exc.value) == (f"{cls.__name__} value must be "
                                  f"{host[cls]}, got {type(value).__name__}")


VALUE_EDGES = [
    # (source, the printed value, or the error's message and term)
    (r"(\x. x + 1) (1 == 1)", ("add needs integer operands", "true + 1")),
    ("(1 == 1) == (1 == 1)",
     ("== compares two integers or two strings", "1 == 1 == (1 == 1)")),
    ('"a" == "a"', "true"),
    ('"a" == "b"', "false"),
    ('"a" == 1', ("== compares two integers or two strings", '"a" == 1')),
    ("if 1 then 2 else 3",
     ("if condition is not a boolean", "if 1 then 2 else 3")),
    ("if 1 == 1 then 2 else 3", "2"),
    ("lift(1 + 2)", "astInt(3)"),
    ("lift(1 == 2)", "astBool(false)"),
    ('lift("s")', 'astStr("s")'),
    ("astInt(1 + 2)", "astInt(3)"),
    ("astAdd(astInt(1), astInt(2))", "astAdd(astInt(1), astInt(2))"),
    ("eval(astAdd(astInt(1), astInt(2)))", "3"),
    ("eval(1 + 2)", ("term is not an AST value", "3")),
    (r'(\b. \s. \x. if b then x else 0) (1 == 1) "s"',
     r"\x. if true then x else 0"),
    (r'(\b. \s. \x. if b then s else x) (1 == 2) "s"',
     r'\x. if false then "s" else x'),
    (r"(\n. \x. x + n) (2 * 3)", r"\x. x + 6"),
]


@pytest.mark.parametrize("src, expected", VALUE_EDGES,
                         ids=[src for src, _ in VALUE_EDGES])
def test_untraced_rt_value_representation_edges(src, expected):
    # Machine values are host ints, bools and strs, boxed into literals
    # wherever the reference holds a term: the value, an AST argument,
    # eval's input to dl, lift, a closure's read-back and an error's term.
    m = t(src)
    untraced = _outcome(m)
    assert untraced == _outcome(m, trace=True)
    if isinstance(expected, str):
        assert pretty(untraced[0]) == expected
    else:
        kind, _, message, offending = untraced
        assert (kind, message, pretty(offending)) == (EvalError.STUCK,
                                                      *expected)


def test_untraced_rt_keeps_unchanged_ast_nodes():
    # A closed AST runs to itself: the machine returns the node it was
    # given, and a literal argument keeps its node inside a rebuilt one.
    m = t("astAdd(astInt(1), astLam(astStr(\"x\"), astVar(\"x\")))")
    assert eval_rt(m) is m
    result = run_pipeline(m)
    assert result.value is result.residual
    changed = t("astAdd(astInt(1 + 2), astInt(4))")
    out = eval_rt(changed)
    assert out == t("astAdd(astInt(3), astInt(4))")
    assert out.args[1] is changed.args[1]
    assert out.args[1].args[0] is changed.args[1].args[0]


def test_untraced_rt_matches_traced_on_every_fuel_budget():
    m = t(r"(\n. n * n + n) (2 + 3)")
    need = sum(_rule_count(d) for _, d in run_pipeline(m, trace=True).stages)
    for fuel in range(1, need + 1):
        assert _outcome(m, fuel=fuel) == _outcome(m, fuel=fuel, trace=True)
    assert _outcome(m, fuel=need)[0] == IntLit(30)
    assert _outcome(m, fuel=need - 1)[0] == EvalError.FUEL


def _app(name, body, arg):
    return App(Lam(name, body), arg)


FUSED_OPERANDS = [
    # The machine evaluates these leaf operands in the step that uses them.
    ("f (n - 1)", t("(rec f n. if n == 0 then 0 else 1 + f (n - 1)) 3")),
    ("x + k", t(r"(\x. \k. x + k) 4 5")),
    ("k * x", t(r"(\k. \x. k * x) 3 7")),
    ("closures", t(r"(\f. \g. \x. f g x) (\h. \y. h (h y)) (\y. y * 2) 5")),
    ("bool condition", t(r"(\b. if b then 1 else 2) (3 == 3)")),
    # An AST constructor's literal and tag arguments.
    ("ast literals", t('astAdd(astInt(1), astVar("x"))')),
    ("ast literals under eval", t('eval(astLam(astStr("x"), astVar("x")))')),
    ("promote tag", t("astPromote(#int, astInt(1))")),
    # An AST constructor's arguments that are ASTs of one leaf (atoms).
    ("ast atoms", t('astApp(astVar("f"), astInt(1))')),
    ("ast string and bool atoms", t('astEq(astStr("a"), astBool(true))')),
    # The rows named after IntLit(True) and BoolLit(1), which are no
    # longer terms, hold the literal of the other class that Python takes
    # for the same value: true where an integer goes, 1 where a boolean
    # goes. The machine must not compute them as Python would.
    ("ast IntLit(True)", AstCtor(Tag("int"), (BoolLit(True),))),
    # And these it must not: each runs on its own call.
    ("ast argument", t(r"(\a. (\b. b) a) astAdd(astInt(1), astInt(2))")),
    ("ast operand", t(r"(\a. (\f. f (a + 1)) (\y. y)) astInt(1)")),
    ("ast condition", t(r"(\a. if a == 1 then 1 else 2) astInt(1)")),
    ("ast function", t(r"(\k. k 1) astInt(1)")),
    ("ast of an operator", t("astAdd(astInt(1 + 1), astInt(2))")),
    ("ast of an ast", t("astApp(astLift(astInt(1)), astInt(2))")),
    ("ast of a variable", t(r"(\a. astAdd(astInt(a), astInt(1))) 2")),
    ("IntLit(True) operands", _app("x", BinOp("add", Var("x"), BoolLit(True)),
                                   BoolLit(True))),
    ("IntLit(True) argument", _app("f", App(Var("f"), BinOp(
        "sub", BoolLit(True), IntLit(1))), Lam("y", Var("y")))),
    ("BoolLit(1) condition", _app("x", If(IntLit(1), Var("x"), IntLit(0)),
                                  IntLit(4))),
    ("BoolLit(1) operand", _app("x", If(BinOp("eq", Var("x"), IntLit(1)),
                                        IntLit(1), IntLit(2)), BoolLit(True))),
    ("BoolLit(1) argument", _app("f", App(Var("f"), BinOp(
        "add", IntLit(1), BoolLit(True))), Lam("y", Var("y")))),
    ("bool operand", t(r"(\b. b + 1) true")),
    ("bool argument", t(r"(\b. \f. f (b == b)) true (\y. y)")),
    ("str operands", t(r'(\s. \u. if s == u then s else u) "a" "b"')),
    ("str argument", t(r'(\s. (\y. y) (s - 1)) "x"')),
    ("if k + 1", t(r"(\k. if k + 1 then 1 else 2) 3")),
    ("non-function", t(r"(\k. \x. k (x - 1)) 3 4")),
]


@pytest.mark.parametrize("m", [m for _, m in FUSED_OPERANDS],
                         ids=[name for name, _ in FUSED_OPERANDS])
def test_fused_operands_match_traced_on_every_fuel_budget(m):
    # Every budget from 1 to the first that does not run out: the same
    # value, or error kind, phase, message and term, down to Python types.
    for fuel in range(1, 1_000):
        untraced = _outcome(m, fuel=fuel)
        traced = _outcome(m, fuel=fuel, trace=True)
        assert (untraced, repr(untraced)) == (traced, repr(traced)), fuel
        if untraced[0] != EvalError.FUEL:
            break
    else:
        pytest.fail("out of fuel at every budget")


def test_untraced_matches_traced_on_generated_numeric_programs():
    # Numeric recursion and higher-order lets, mostly on budgets small
    # enough to run out inside a fused step.
    rng = random.Random(4409)
    seen = set()
    for _ in range(2_000):
        m = gen_numeric_rec(rng)
        fuel = rng.randint(1, 200) if rng.random() < 0.7 else 3_000
        untraced = _outcome(m, fuel=fuel)
        traced = _outcome(m, fuel=fuel, trace=True)
        assert (untraced, repr(untraced)) == (traced, repr(traced)), pretty(m)
        seen.add(untraced[0] if isinstance(untraced[0], str) else "value")
    assert seen == {"value", EvalError.STUCK, EvalError.FUEL}


def _in_a_fresh_process(code: str):
    """Run code in a new interpreter that imports hgmp from src: its exit
    code, stdout and stderr."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def _count_in_a_fresh_process(n: int, setup: str, trace: bool):
    """Run count n through run_pipeline in a new interpreter after setup:
    its exit code, stdout (the recursion limit and the value) and
    stderr."""
    return _in_a_fresh_process(
        f"import sys\n{setup}"
        "from hgmp.parser import parse_term\n"
        "from hgmp.reduction import run_pipeline\n"
        "m = parse_term('(rec count n. if n == 0 then 0 "
        f"else 1 + count (n - 1)) {n}')\n"
        f"value = run_pipeline(m, fuel=10**8, trace={trace}).value\n"
        "print(sys.getrecursionlimit(), value.value)\n")


def test_untraced_count_900_fits_the_default_recursion_limit():
    # One Python frame per non-tail level of the machine: a library run
    # of count 900 fits CPython's default limit of 1,000.
    assert _count_in_a_fresh_process(900, "", False) == (0, "1000 900\n", "")


def test_traced_count_6000_fits_the_cli_recursion_limit():
    # Three frames of the reference _rt per level of count (if, +, and
    # the application, which runs the body in its own frame): traced
    # count 6000 fits the limit the CLI sets.
    setup = ("from hgmp import cli\n"
             "sys.setrecursionlimit(cli._RECURSION_LIMIT)\n")
    assert _count_in_a_fresh_process(6000, setup, True) == (
        0, "20000 6000\n", "")


def test_untraced_pipeline_matches_traced_on_generated_terms():
    # Values, residuals and every error's kind, phase, message and
    # offending term: the machine against the substitution semantics,
    # a fifth of the runs on budgets small enough to run out.
    rng = random.Random(107)
    seen = set()
    for i in range(3_000):
        pick = i % 4
        if pick == 0:
            m, mode = gen_compile_candidate(rng), "untyped"
        elif pick == 3:
            m, mode = gen_open_eval(rng), "untyped"
        else:
            mode = ("untyped", "typed")[pick - 1]
            m = gen_term(rng, rng.randint(0, 6), typed=mode == "typed")
        fuel = rng.randint(1, 60) if rng.random() < 0.2 else 20_000
        untraced = _outcome(m, mode, fuel)
        assert untraced == _outcome(m, mode, fuel, trace=True), pretty(m)
        seen.add(untraced[0] if isinstance(untraced[0], str) else "value")
    assert seen == {"value", EvalError.STUCK, EvalError.TYPE, EvalError.FUEL}


ARITH_OPERANDS = [
    ("small", IntLit(7)),
    ("negative", IntLit(-12)),
    ("big", IntLit(-(10 ** 4_400) - 3)),  # past the 4,300-digit str limit
    ("str", StrLit("ab")),
    ("bool", BoolLit(True)),
    ("lambda", Lam("x", Var("x"))),
    ("ast", AstCtor(Tag("int"), (IntLit(1),))),
]


def _arith_outcome(m, trace):
    """rt's value, or its error's kind, phase, message and term. A literal
    is compared by its Python type and value: repr raises on an int past
    4,300 digits."""
    try:
        v = eval_rt(m, trace=trace)
    except EvalError as exc:
        return (exc.kind, exc.phase, exc.message, exc.offending,
                pretty(exc.offending))
    v = v[0] if trace else v
    if type(v) in (IntLit, BoolLit, StrLit):
        return type(v), type(v.value), v.value
    return repr(v)


@pytest.mark.parametrize("op", ["add", "sub", "mul", "eq"])
def test_arithmetic_matches_traced_on_every_operand_kind(op):
    # Every pair of operand kinds, as literals and as bound variables:
    # the machine gives the substitution semantics' value or error.
    seen = set()
    for (a_name, a), (b_name, b) in itertools.product(ARITH_OPERANDS,
                                                      repeat=2):
        applied = App(App(Lam("a", Lam("b", BinOp(op, Var("a"), Var("b")))),
                          a), b)
        for m in (BinOp(op, a, b), applied):
            untraced = _arith_outcome(m, False)
            assert untraced == _arith_outcome(m, True), (op, a_name, b_name)
            seen.add(untraced[0] if isinstance(untraced[0], str) else "value")
    assert seen == {"value", EvalError.STUCK}


### derivations

def test_trace_shapes_fig_top():
    out, deriv = eval_ct(t(r"(\x.x) $((\x.x) astInt(7))"), trace=True)
    assert deriv.rule == "App ct"
    assert [p.rule for p in deriv.premises] == ["Lam ct", "DownML ct"]
    down = deriv.premises[1]
    assert [p.rule for p in down.premises] == ["App ct", "App", "Int dl"]
    assert [p.relation for p in down.premises] == ["ct", "rt", "dl"]
    assert down.term_out == IntLit(7)


def test_trace_shapes_eval():
    out, deriv = eval_rt(t(r"(\x.x)(eval((\x.x) astInt(7)))"), trace=True)
    assert deriv.rule == "App"
    ev = deriv.premises[1]
    assert ev.rule == "Eval rt"
    assert [p.relation for p in ev.premises] == ["rt", "dl", "rt"]


def test_typed_downml_trace_has_type_premise():
    out, deriv = eval_ct(t(r"$(astInt(1))", "typed"), "typed", trace=True)
    assert deriv.rule == "DownML ct"
    assert [p.relation for p in deriv.premises] == ["ct", "type", "rt", "dl"]
    assert deriv.premises[1].rule == "Type"


def test_traced_bodies_are_keyed_by_argument_class_and_host_type():
    # 1 == True == BoolLit(True).value in Python, yet IntLit(1) and
    # BoolLit(True) are two terms: one traced run that applies one Lam to
    # each gives each body its own argument, and the trace that fresh
    # runs of the applications give one by one.
    f = Lam("x", Lift(Var("x")))
    args = (IntLit(1), BoolLit(True), StrLit("1"), IntLit(1))
    _, d = eval_rt(mk_ast("promote", *[App(f, a) for a in args]), trace=True)
    for app, a in zip(d.premises, args, strict=True):
        held = app.premises[2].term_in.body
        assert (type(held), type(held.value)) == (type(a), type(a.value))
        assert held.value == a.value
    fresh = tuple(eval_rt(App(f, a), trace=True)[1] for a in args)
    assert to_json(d) == to_json(Derivation(d.rule, d.relation, d.term_in,
                                            d.term_out, fresh))


FIB_10 = ("(rec fib n. if n == 0 then 0 else if n == 1 then 1 "
          "else fib (n - 1) + fib (n - 2)) 10")


def _rt_if_terms(stages) -> list[Term]:
    """The term_in of every rt node of stages that runs an if."""
    found, todo = [], [d for _, d in stages]
    while todo:
        d = todo.pop()
        todo.extend(d.premises)
        if d.relation == "rt" and isinstance(d.term_in, If):
            found.append(d.term_in)
    return found


def test_traced_fib_builds_each_body_once_with_unchanged_bytes(monkeypatch):
    # fib 10 applies fib to 11 distinct arguments: its 320 if nodes hold
    # at most 21 distinct terms (two ifs per body, one for fib 0). A run
    # whose cache stores nothing builds every body afresh and must write
    # the same bytes.
    shared = run_pipeline(t(FIB_10), trace=True)
    ifs = _rt_if_terms(shared.stages)
    assert len(ifs) == 320 and len({id(m) for m in ifs}) <= 21

    class NeverStores(dict):
        def __setitem__(self, key, value):
            pass

    init = reduction._Run.__init__

    def uncached(run, *args):
        init(run, *args)
        run.bodies = NeverStores()

    monkeypatch.setattr(reduction._Run, "__init__", uncached)
    fresh = run_pipeline(t(FIB_10), trace=True)
    assert len({id(m) for m in _rt_if_terms(fresh.stages)}) == 320
    assert to_json(shared.stages) == to_json(fresh.stages)
    assert render_trace(shared.stages) == render_trace(fresh.stages)



class _NeverStores(dict):
    """A _Run.bodies that stores nothing: every application builds and
    runs its body afresh, and every leaf is a Derivation of its own, as
    a run that shares nothing would."""

    def __setitem__(self, key, value):
        pass


def _uncached(run_it):
    """run_it(), with the bodies of every _Run it makes a _NeverStores."""
    init = reduction._Run.__init__

    def never_stores(run, *args):
        init(run, *args)
        run.bodies = _NeverStores()

    reduction._Run.__init__ = never_stores
    try:
        return run_it()
    finally:
        reduction._Run.__init__ = init


def _traced_outcome(m, mode, fuel):
    """A traced pipeline's error kind, phase, message and term, or its
    value and the to_json and render_trace bytes of its stages."""
    try:
        result = run_pipeline(m, mode, fuel, trace=True)
    except EvalError as exc:
        return exc.kind, exc.phase, exc.message, exc.offending
    return (result.value, to_json(result.stages),
            render_trace(result.stages))


def _tree_and_objects(d: Derivation) -> tuple[int, int]:
    """d's nodes read as a tree, and the distinct objects among them."""
    nodes, seen, todo = 0, set(), [d]
    while todo:
        node = todo.pop()
        nodes += 1
        seen.add(id(node))
        todo.extend(node.premises)
    return nodes, len(seen)


SHARED_BODIES = [
    ("fib 5", "untyped", t("(rec fib n. if n == 0 then 0 else if n == 1 "
                           "then 1 else fib (n - 1) + fib (n - 2)) 5")),
    # h 1 twice: the second takes twice's run on the closure from the cache.
    ("twice", "untyped", t(r"(\h. h 1 + h 1) "
                           r"(\n. (\f. \x. f (f x)) (\y. y + 1) n)")),
    # g 3 twice: the cached fuel includes eval's dl rules and re-check.
    ("typed eval", "typed", t(r"(\g:Int -> Int. g 3 + g 3) "
                              r"(\n:Int. eval{Int -> Int}([| \x. x * x |]) n)",
                              "typed")),
    # Each level repeats its call three times: most of the fuel is shared.
    ("three-way tree", "untyped",
     t("(rec t n. if n == 0 then 1 else t (n - 1) + t (n - 1) "
       "+ t (n - 1)) 4")),
    # f true, then f 1: a key that let True stand for 1 would print true.
    ("true then 1", "untyped",
     t(r"let f = \b. b in if f true then f 1 else 0")),
    # The first g 3 is stuck after spending fuel, so it stores nothing.
    ("stuck twice", "untyped",
     t(r"(\g. g 3 + g 3) (rec s n. if n == 0 then 1 + true "
       r"else 1 + s (n - 1))")),
    # \y. f y runs f 4 again as its tail call: the repeat's value is
    # what \y. f y stores for 4, and its fuel part of what it stores.
    ("tail-call repeat", "untyped",
     t(r"(\f. f 4 + (\y. f y) 4 + (\y. f y) 4) "
       r"(rec s n. if n == 0 then 0 else n + s (n - 1))")),
]


@pytest.mark.parametrize("mode, m",
                         [(mode, m) for _, mode, m in SHARED_BODIES],
                         ids=[name for name, _, _ in SHARED_BODIES])
def test_shared_bodies_match_on_every_fuel_budget(mode, m):
    # Every budget from 1 to the first that does not run out: the traced
    # outcome is the untraced machine's, down to Python types, and that
    # of a traced run that shares nothing, down to the trace's bytes.
    # Both evaluators share: the machine reuses an application's stored
    # value and fuel, and the traced run its value, fuel and derivation.
    # Short of the stored fuel, a body met again runs again and runs out
    # on the term a fresh run names.
    for fuel in range(1, 2_000):
        untraced = _outcome(m, mode, fuel)
        traced = _outcome(m, mode, fuel, trace=True)
        assert (untraced, repr(untraced)) == (traced, repr(traced)), fuel
        shared = _traced_outcome(m, mode, fuel)
        fresh = _uncached(lambda: _traced_outcome(m, mode, fuel))
        assert (shared, repr(shared)) == (fresh, repr(fresh)), fuel
        if untraced[0] != EvalError.FUEL:
            break
    else:
        pytest.fail("out of fuel at every budget")
    if untraced[0] == EvalError.STUCK:
        return  # no derivation to count
    nodes, objects = _tree_and_objects(run_pipeline(m, mode, fuel,
                                                    trace=True).stages[-1][1])
    assert objects < nodes


DIVERGING = [
    ("omega", t(r"(\x. x x) (\x. x x)")),
    ("self loop", t("(rec loop n. loop n) 0")),
    ("count down to a loop",
     t("(rec f n. if n == 0 then f 0 else f (n - 1)) 3")),
]


@pytest.mark.parametrize("m", [m for _, m in DIVERGING],
                         ids=[name for name, _ in DIVERGING])
def test_diverging_runs_match_on_every_fuel_budget(m):
    # Each body meets its own function and argument again while it runs,
    # before the traced run has stored anything for that pair, and runs
    # out at every budget: on the term the untraced machine names, and
    # with the outcome of a traced run that shares nothing.
    for fuel in range(1, 400):
        untraced = _outcome(m, "untyped", fuel)
        traced = _outcome(m, "untyped", fuel, trace=True)
        assert untraced[0] == EvalError.FUEL, fuel
        assert (untraced, repr(untraced)) == (traced, repr(traced)), fuel
        shared = _traced_outcome(m, "untyped", fuel)
        fresh = _uncached(lambda: _traced_outcome(m, "untyped", fuel))
        assert (shared, repr(shared)) == (fresh, repr(fresh)), fuel


def test_machine_stores_a_value_per_level_only_where_it_reuses_one():
    # A closure stores only applications that begin once its memo is
    # made, at its first host-valued return. count 300's calls all begin
    # before count 0 returns, so count stores nothing; fib 12 stores what
    # it meets after its first descent, some of 0 to 12. A closure whose
    # applications return closures never gets a memo.
    count = reduction._Closure(
        t("rec count n. if n == 0 then 0 else 1 + count (n - 1)"), {}, None)
    fib = reduction._Closure(
        t("rec fib n. if n == 0 then 0 else if n == 1 then 1 "
          "else fib (n - 1) + fib (n - 2)"), {}, None)
    const = reduction._Closure(t(r"\x. \y. x"), {}, None)
    env = {"count": count, "fib": fib, "const": const}
    run = reduction._Run(10**6, False, False)
    assert reduction._machine(t("count 300"), env, None, run) == 300
    assert reduction._machine(t("fib 12"), env, None, run) == 144
    assert reduction._machine(t("const 1 2 + const 1 3"), env, None, run) == 2
    assert count.memo == {}
    assert 0 < len(fib.memo) <= 13
    assert const.memo is None


def test_machine_memo_is_bounded():
    # it applies f to 3,000 distinct arguments and meets none again: each
    # value after the first is stored, and f's memo is emptied whenever it
    # is full, so it never holds more than _MEMO_SIZE. Value and fuel are
    # the reference's.
    src = (r"let f = \x. x + 1 in "
           r"(rec it n. \x. if n == 0 then x else it (n - 1) (f x)) 3000 0")
    f = reduction._Closure(t(r"\x. x + 1"), {}, None)
    it = reduction._Closure(t(r"rec it n. \x. if n == 0 then x "
                              r"else it (n - 1) (f x)"), {"f": f}, None)
    run = reduction._Run(10**6, False, False)
    assert reduction._machine(t("it 3000 0"), {"it": it}, None, run) == 3000
    assert 0 < len(f.memo) <= reduction._MEMO_SIZE
    need = sum(_rule_count(d)
               for _, d in run_pipeline(t(src), trace=True).stages)
    assert run_pipeline(t(src), fuel=need).value == IntLit(3000)
    with pytest.raises(EvalError) as exc:
        run_pipeline(t(src), fuel=need - 1)
    assert exc.value.kind == EvalError.FUEL


def test_subst_keeps_closed_lambdas_so_equal_calls_share():
    # subst returns a term that holds no free use of its name as the
    # object it was, so both `twice inc 1` apply the same two closures and
    # the second takes the first one's run: the rt stage reads as 41 nodes
    # in 20 Derivation objects (a leaf on the same term and output is one
    # object too), and writes the JSON a run sharing nothing writes.
    m = t(r"(\twice. \inc. twice inc 1 + twice inc 1) "
          r"(\f. \x. f (f x)) (\y. y + 1)")
    shared = run_pipeline(m, trace=True)
    fresh = _uncached(lambda: run_pipeline(m, trace=True))
    assert _tree_and_objects(shared.stages[-1][1]) == (41, 20)
    assert _tree_and_objects(fresh.stages[-1][1]) == (41, 41)
    assert to_json(shared.stages[-1][1]) == to_json(fresh.stages[-1][1])


def test_traced_fib_shares_repeated_derivations():
    # fib 10's rt stage reads as the same 2,340-node tree, and costs as
    # much fuel, but holds one Derivation object per distinct application
    # and step, and per distinct leaf (rule, term and output): 106. A run
    # that shares nothing holds one object per node.
    shared = run_pipeline(t(FIB_10), trace=True)
    fresh = _uncached(lambda: run_pipeline(t(FIB_10), trace=True))
    d_shared, d_fresh = shared.stages[-1][1], fresh.stages[-1][1]
    assert _rule_count(d_shared) == _rule_count(d_fresh) == 2_340
    assert _tree_and_objects(d_shared) == (2_340, 106)
    assert _tree_and_objects(d_fresh) == (2_340, 2_340)
    need = sum(_rule_count(d) for _, d in shared.stages)
    assert run_pipeline(t(FIB_10), fuel=need, trace=True).value == IntLit(55)
    with pytest.raises(EvalError) as exc:
        run_pipeline(t(FIB_10), fuel=need - 1, trace=True)
    assert exc.value.kind == EvalError.FUEL


def _rules_by_op(d: Derivation, relation: str) -> dict[str, set[str]]:
    """The rules of d's nodes about a BinOp (its output, for dl), by
    operator."""
    rules, todo = {}, [d]
    while todo:
        node = todo.pop()
        named = node.term_out if relation == "dl" else node.term_in
        if type(named) is BinOp:
            rules.setdefault(named.op, set()).add(node.rule)
        todo.extend(node.premises)
    return rules


def test_each_operator_keeps_its_own_rule_name():
    # A rule named after a constructor is named after its signature row,
    # not its class: BinOp stands for four rows, so names looked up by
    # class would give every operator the first one's.
    m = t("1 + 2 - 3 * 4 == 0 - 9")
    runs = {"ct": eval_ct(m, trace=True), "ul": eval_ul(m, trace=True),
            "dl": eval_dl(eval_ul(m), trace=True),
            "rt": eval_rt(m, trace=True)}
    names = {"add": "Add", "sub": "Sub", "mul": "Mul", "eq": "Eq"}
    for relation, (_, d) in runs.items():
        suffix = "" if relation == "rt" else " " + relation
        assert _rules_by_op(d, relation) == {
            op: {name + suffix} for op, name in names.items()}, relation


@pytest.mark.parametrize("src", [
    'astApp(astLam("x", astVar("x")), astInt(1))',
    "astPromote(#add, astInt(1), astInt(2))",
    r"astApp(\y. y, astBool(true))",
])
def test_traced_rt_keeps_an_ast_of_values_as_its_node(src):
    # An AST whose arguments all run to themselves is the node it was,
    # traced or not; one whose argument computes is a new node.
    ast = t(src)
    assert eval_rt(ast) is ast
    value, d = eval_rt(ast, trace=True)
    assert value is ast and d.term_out is ast
    computed = AstCtor(ast.tag, (*ast.args[:-1], t("1 + 1")))
    assert eval_rt(computed, trace=True)[0] == AstCtor(
        ast.tag, (*ast.args[:-1], IntLit(2)))


def _const_leaves(d: Derivation) -> tuple[int, dict[int, set[int]]]:
    """How many Const nodes d holds read as a tree, and the ids of the
    Derivation objects among them, by the id of their literal."""
    count, objects, todo = 0, {}, [d]
    while todo:
        node = todo.pop()
        if node.rule == "Const":
            count += 1
            objects.setdefault(id(node.term_in), set()).add(id(node))
        todo.extend(node.premises)
    return count, objects


def test_traced_fib_shares_each_literal_leaf():
    # A leaf is one Derivation per rule, term and output object: every
    # Const on one literal object in fib 5's rt stage is one object,
    # however often it occurs. A run that shares nothing holds one per
    # occurrence.
    m = t("(rec fib n. if n == 0 then 0 else if n == 1 then 1 "
          "else fib (n - 1) + fib (n - 2)) 5")
    count, objects = _const_leaves(run_pipeline(m, trace=True).stages[-1][1])
    assert count > len(objects)
    assert all(len(ids) == 1 for ids in objects.values())
    fresh = _uncached(lambda: run_pipeline(m, trace=True)).stages[-1][1]
    fresh_count, fresh_objects = _const_leaves(fresh)
    assert fresh_count == count
    assert sum(map(len, fresh_objects.values())) == count


TYPED_TRACES = Path(__file__).resolve().parent / "typed_traces.json"


def test_typed_traces_match_the_pinned_json():
    # Typed traced runs, as to_json writes them: Type premises of a splice,
    # a letdown and eval{T} re-checks, and the pipeline's type stage.
    pinned = json.loads(TYPED_TRACES.read_text(encoding="utf-8"))
    checked_by = set()
    for src, want in pinned.items():
        result = run_pipeline(t(src, "typed"), "typed", trace=True)
        payload = {"residual": result.residual,
                   "residualType": pretty_type(result.residual_type),
                   "value": result.value,
                   "stages": [{"stage": name, "derivation": d}
                              for name, d in result.stages]}
        assert to_json(payload) == ref_dumps(want), src
        assert [name for name, _ in result.stages] == ["ct", "type", "rt"]
        stack = [d for _, d in result.stages]
        while stack:
            d = stack.pop()
            if any(p.relation == "type" for p in d.premises):
                checked_by.add(d.rule)
            stack.extend(d.premises)
    assert checked_by == {"DownML ct", "Let ct", "Eval rt"}


def test_trace_soundness_on_samples():
    rng = random.Random(9)
    redo = {"ct": lambda m: eval_ct(m), "dl": eval_dl,
            "ul": lambda m: eval_ul(m), "rt": lambda m: eval_rt(m)}

    def walk(d):
        if d.relation != "type":
            assert redo[d.relation](d.term_in) == d.term_out
        for p in d.premises:
            walk(p)

    checked = 0
    for _ in range(120):
        m = gen_compile_candidate(rng)
        try:
            out, deriv = eval_ct(m, trace=True)
        except EvalError:
            continue
        walk(deriv)
        checked += 1
    assert checked >= 30


### rendering, against the reference encoders

# The dict-building JSON encoder, the recursive text renderer and the
# printer that the memoised encoders replaced, kept as the reference they
# must match byte for byte.

_R_TERM, _R_EQ, _R_ADD, _R_MUL, _R_APP, _R_ATOM = range(6)


def ref_term_to_json(m):
    def node(ctor, children=(), atom=None, annot=None):
        out = {"ctor": ctor,
               "children": [ref_term_to_json(c) for c in children]}
        if atom is not None:
            out["atom"] = atom
        if annot is not None:
            out["annot"] = annot
        return out

    match m:
        case Var(name):
            return node("var", atom=name)
        case IntLit(value):
            return node("int", atom=value)
        case StrLit(value):
            return node("str", atom=value)
        case BoolLit(value):
            return node("bool", atom=value)
        case AstCtor(tag, args):
            return node("ast", args, atom=tag.name,
                        annot=None if tag.eval_annot is None
                        else pretty_type(tag.eval_annot))
        case TagLit(tag):
            return node("tag", atom=tag.name,
                        annot=None if tag.eval_annot is None
                        else pretty_type(tag.eval_annot))
    names = m.bound_names()
    atom = (names[0] if len(names) == 1 else list(names)) if names else None
    annot = getattr(m, "annot", None)
    return node(m.ctor.lower(), m.children(), atom,
                None if annot is None else pretty_type(annot))


def ref_derivation_to_json(d):
    out = d.term_out
    return {
        "rule": d.rule,
        "relation": d.relation,
        "in": ref_term_to_json(d.term_in),
        "out": (ref_term_to_json(out) if isinstance(out, Term)
                else {"type": pretty_type(out)}),
        "premises": [ref_derivation_to_json(p) for p in d.premises],
    }


def ref_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def ref_render_derivation(d, indent=0):
    lines = [ref_render_derivation(p, indent + 1) for p in d.premises]
    out = (ref_pretty(d.term_out) if isinstance(d.term_out, Term)
           else pretty_type(d.term_out))
    lines.append(f"{'  ' * indent}{d.rule}: {ref_pretty(d.term_in)}"
                 f"  ={d.relation}=>  {out}")
    return "\n".join(lines)


def ref_render_trace(stages):
    return "\n".join(f"-- {name} --\n{ref_render_derivation(d)}"
                     for name, d in stages)


def ref_pretty(m, prec=_R_TERM):
    def wrap(s, level):
        return f"({s})" if prec > level else s

    match m:
        case Var(name):
            return name
        case IntLit(value):
            return wrap(str(value), _R_TERM) if value < 0 else str(value)
        case StrLit(value):
            return f'"{_escape(value)}"'
        case BoolLit(value):
            return "true" if value else "false"
        case TagLit(tag):
            head = TAGS[tag.name].sharp
            if tag.eval_annot is not None:
                head += "{" + pretty_type(tag.eval_annot) + "}"
            return head
        case AstCtor(tag, args):
            head = TAGS[tag.name].ast
            if tag.eval_annot is not None:
                head += "{" + pretty_type(tag.eval_annot) + "}"
            return head + "(" + ", ".join(ref_pretty(a) for a in args) + ")"
        case DownML(body):
            return "$(" + ref_pretty(body) + ")"
        case UpML(body):
            return "[| " + ref_pretty(body) + " |]"
        case Eval(body, annot):
            head = ("eval" if annot is None
                    else "eval{" + pretty_type(annot) + "}")
            return head + "(" + ref_pretty(body) + ")"
        case Lift(body):
            return "lift(" + ref_pretty(body) + ")"
        case App(fn, arg):
            return wrap(f"{ref_pretty(fn, _R_APP)} {ref_pretty(arg, _R_ATOM)}",
                        _R_APP)
        case BinOp(op, lhs, rhs):
            level = {"eq": _R_EQ, "add": _R_ADD, "sub": _R_ADD,
                     "mul": _R_MUL}[op]
            return wrap(f"{ref_pretty(lhs, level)} {BINOPS[op][0]} "
                        f"{ref_pretty(rhs, level + 1)}", level)
        case If(cond, then, orelse):
            return wrap(f"if {ref_pretty(cond)} then {ref_pretty(then)} "
                        f"else {ref_pretty(orelse)}", _R_TERM)
        case Lam(param, body, annot):
            head = (f"\\{param}" if annot is None
                    else f"\\{param}:{pretty_type(annot)}")
            return wrap(f"{head}. {ref_pretty(body)}", _R_TERM)
        case Rec(self_name, param, body, annot):
            head = f"rec {self_name} {param}"
            if annot is not None:
                head += f" : {pretty_type(annot)}"
            return wrap(f"{head}. {ref_pretty(body)}", _R_TERM)
        case LetDown(name, bound, body):
            return wrap(f"letdown {name} = {ref_pretty(bound)} "
                        f"in {ref_pretty(body)}", _R_TERM)
    raise TypeError(f"not a Term: {m!r}")


def _seeded_traces(rng, want):
    """want (term, stages, result) traces: gen_term in both modes,
    gen_compile_candidate and gen_open_eval, through run_pipeline (result
    is its PipelineResult, else None) and through each eval_*."""
    found = 0
    for i in range(4 * want):
        pick = i % 4
        if pick == 0:
            m, mode = gen_compile_candidate(rng), "untyped"
        elif pick == 1:
            m, mode = gen_open_eval(rng), "untyped"
        else:
            mode = ("untyped", "typed")[pick - 2]
            m = gen_term(rng, rng.randint(0, 6), typed=mode == "typed")
        relation = rng.choice(("pipeline", "ct", "ul", "dl", "rt"))
        result = None
        try:
            if relation == "pipeline":
                result = run_pipeline(m, mode, 20_000, trace=True)
                stages = result.stages
            elif relation == "dl":
                ast = eval_ul(m, mode, 20_000)
                stages = (("dl", eval_dl(ast, 20_000, trace=True)[1]),)
            else:
                step = {"ct": eval_ct, "ul": eval_ul, "rt": eval_rt}[relation]
                stages = ((relation, step(m, mode, 20_000, trace=True)[1]),)
        except EvalError:
            continue
        yield m, stages, result
        found += 1
        if found == want:
            return
    raise AssertionError(f"only {found} of {want} traces succeeded")


def test_memoised_renders_match_the_reference_encoders():
    # Byte for byte: each derivation's JSON and text, pretty of every
    # term_out, a run's text trace over all its stages, and the CLI's
    # payload, which shares one memo across its terms and stages.
    relations = set()
    for m, stages, result in _seeded_traces(random.Random(77), 2_000):
        relations.update(name for name, _ in stages)
        assert to_json(m) == ref_dumps(ref_term_to_json(m))
        for _, d in stages:
            assert to_json(d) == ref_dumps(ref_derivation_to_json(d))
            assert render_derivation(d) == ref_render_derivation(d)
            todo = [d]
            while todo:
                node = todo.pop()
                todo.extend(node.premises)
                if isinstance(node.term_out, Term):
                    assert pretty(node.term_out) == ref_pretty(node.term_out)
        assert render_trace(stages) == ref_render_trace(stages)
        if result is not None:
            got = to_json({"value": result.value, "residual": result.residual,
                           "stages": [{"stage": name, "derivation": d}
                                      for name, d in stages]})
            want = ref_dumps({
                "value": ref_term_to_json(result.value),
                "residual": ref_term_to_json(result.residual),
                "stages": [{"stage": name, "derivation":
                            ref_derivation_to_json(d)} for name, d in stages]})
            assert got == want
    assert relations == {"ct", "type", "rt", "ul", "dl"}


def _hand_built_sharings():
    """(name, stages) with one Derivation object x under two parents:
    at the same depth, deeper the second time, shallower the second
    time, and x holding a shared premise of its own; and x in two stages."""
    one = IntLit(1)
    leaf = Derivation("Const", "rt", one, one)
    x = Derivation("Add", "rt", BinOp("add", one, one), IntLit(2),
                   (leaf, leaf))

    def up(*premises):  # a parent of premises
        return Derivation("If", "rt", If(BoolLit(True), one, one), one,
                          premises)

    y = up(x, up(x))  # x at two depths inside y itself
    return [
        ("same depth", (("rt", up(up(x), up(x))),)),
        ("deeper second", (("rt", up(x, up(up(x)))),)),
        ("shallower second", (("rt", up(up(up(x)), x)),)),
        ("nested", (("rt", up(y, up(up(y)), x, y)),)),
        ("two stages", (("ct", up(x)), ("rt", x), ("type", up(up(x))))),
    ]


@pytest.mark.parametrize("stages", [s for _, s in _hand_built_sharings()],
                         ids=[name for name, _ in _hand_built_sharings()])
def test_shared_derivations_render_as_their_tree(stages):
    # A derivation object written twice is the text of its tree at each
    # place, whatever the indent, in every renderer.
    for _, d in stages:
        assert to_json(d) == ref_dumps(ref_derivation_to_json(d))
        assert render_derivation(d) == ref_render_derivation(d)
    assert render_trace(stages) == ref_render_trace(stages)
    payload = [{"stage": name, "derivation": d} for name, d in stages]
    assert to_json(payload) == ref_dumps(
        [{"stage": name, "derivation": ref_derivation_to_json(d)}
         for name, d in stages])


def _tree_events(d: Derivation, entered: set, events: list):
    """The events _walk should yield for d, by plain recursion: entered
    holds the ids of the objects entered so far."""
    if id(d) in entered:
        events.append((reduction._AGAIN, id(d)))
        return
    entered.add(id(d))
    events.append((reduction._ENTER, id(d)))
    for p in d.premises:
        _tree_events(p, entered, events)
    events.append((reduction._EXIT, id(d)))


def _check_walk(stages, seen: dict, entered: set):
    """Walk each stage's derivation with seen as a renderer does, storing
    id(x) on _ENTER, and check the events against the tree's. A node
    count with multiplicity is made as rule counts would be: at _EXIT
    1 + the premises' counts, with _AGAIN reusing the stored count."""
    for _, d in stages:
        events, want, totals = [], [], [0]
        _tree_events(d, entered, want)
        for event, x in reduction._walk(d, seen):
            events.append((event, id(x)))
            if event is reduction._ENTER:
                seen[id(x)] = None
                totals.append(0)
            elif event is reduction._EXIT:
                seen[id(x)] = 1 + totals.pop()
                totals[-1] += seen[id(x)]
            else:
                totals[-1] += seen[id(x)]
        assert events == want
        assert totals == [_tree_and_objects(d)[0]]


@pytest.mark.parametrize("stages", [s for _, s in _hand_built_sharings()],
                         ids=[name for name, _ in _hand_built_sharings()])
def test_walk_reads_a_shared_derivation_as_its_tree(stages):
    # One seen dict across the stages, as render_trace and the CLI's
    # payload keep, and a fresh one for each stage.
    _check_walk(stages, {}, set())
    for stage in stages:
        _check_walk((stage,), {}, set())


def test_walk_reads_generated_traces_as_their_trees():
    for _, stages, _ in _seeded_traces(random.Random(5150), 300):
        _check_walk(stages, {}, set())


def test_renderers_take_a_deep_trace_at_the_default_recursion_limit():
    # Derivations are read on _walk's stack, so a 3,000-level chain renders
    # at CPython's default limit of 1,000. The depth stays at 3,000, as
    # text grows with its square; derivation_to_json is left out, as its
    # json.loads recurses.
    code = """if True:
        import sys
        from hgmp.reduction import (Derivation, render_derivation,
                                    render_trace, to_json)
        from hgmp.syntax import IntLit
        one = IntLit(1)
        d = Derivation("Const", "rt", one, one)
        for _ in range(3000):
            d = Derivation("If", "rt", one, one, (d,))
        inout = '{"in":' + to_json(one) + ',"out":' + to_json(one)
        tree = (3000 * (inout + ',"premises":[') + inout
                + ',"premises":[],"relation":"rt","rule":"Const"}'
                + 3000 * '],"relation":"rt","rule":"If"}')
        lines = "\\n".join(["  " * 3000 + "Const: 1  =rt=>  1"]
                           + ["  " * i + "If: 1  =rt=>  1"
                              for i in range(2999, -1, -1)])
        assert to_json(d) == tree
        assert (to_json({"stages": [{"stage": "rt", "derivation": d}]})
                == '{"stages":[{"derivation":' + tree + ',"stage":"rt"}]}')
        assert render_derivation(d) == lines
        assert render_trace([("rt", d)]) == "-- rt --\\n" + lines
        print(sys.getrecursionlimit(), len(tree), len(lines))
    """
    assert _in_a_fresh_process(code) == (0, "1000 390133 9051018\n", "")


def test_generated_numeric_traces_match_the_reference_encoders():
    # Numeric recursion and higher-order lets, written byte for byte as
    # the reference encoders write the tree: every trace whose repeated
    # applications share derivations, and every fifth of the others.
    rng = random.Random(4412)
    shared = 0
    for i in range(600):
        m = gen_numeric_rec(rng)
        try:
            stages = run_pipeline(m, fuel=500, trace=True).stages
        except EvalError:
            continue
        nodes, objects = _tree_and_objects(stages[-1][1])
        shared += objects < nodes
        if objects == nodes and i % 5:
            continue
        for _, d in stages:
            assert to_json(d) == ref_dumps(ref_derivation_to_json(d))
            assert render_derivation(d) == ref_render_derivation(d)
        assert render_trace(stages) == ref_render_trace(stages)
    assert shared >= 5


def _fig3_expected(command, name, mode, trace):
    """The CLI's (stdout, stderr) for a fig3 corpus program, written with
    the reference encoders."""
    term = t((CORPUS / f"{name}.hgmp").read_text(encoding="utf-8"), mode)
    if command == "step":
        relation = "ct" if name == "fig3_top" else "rt"
        step = {"ct": eval_ct, "rt": eval_rt}[relation]
        out, d = step(term, mode, 100_000, trace=True)
        if trace == "json":
            doc = {"out": ref_term_to_json(out),
                   "derivation": ref_derivation_to_json(d)}
            return ref_dumps(doc) + "\n", ""
        return ref_pretty(out) + "\n", ref_render_derivation(d) + "\n"
    if command == "run":
        result = run_pipeline(term, mode, 100_000, trace=True)
        stages, residual = result.stages, result.residual
        ty = result.residual_type
        payload = {"value": ref_term_to_json(result.value)}
        shown = ref_pretty(result.value) + "\n"
    else:
        residual, d = eval_ct(term, mode, 100_000, trace=True)
        stages, payload = (("ct", d),), {}
        ty = infer(EMPTY_ENV, residual) if mode == "typed" else None
        shown = ref_pretty(residual) + "\n"
        if ty is not None:
            shown += f"-- : {pretty_type(ty)}\n"
    if trace == "text":
        return shown, ref_render_trace(stages) + "\n"
    payload["residual"] = ref_term_to_json(residual)
    if ty is not None:
        payload["residualType"] = pretty_type(ty)
    payload["stages"] = [{"stage": s, "derivation": ref_derivation_to_json(d)}
                         for s, d in stages]
    return ref_dumps(payload) + "\n", ""


@pytest.mark.parametrize("command", ["run", "compile", "step"])
@pytest.mark.parametrize("trace", ["json", "text"])
@pytest.mark.parametrize("name,mode", [("fig3_top", "untyped"),
                                       ("fig3_top", "typed"),
                                       ("fig3_bottom", "untyped")])
def test_cli_trace_bytes_match_the_reference_encoders(
        command, trace, name, mode, capsys):
    relation = ["--relation", "ct" if name == "fig3_top" else "rt"]
    argv = [command, *(relation if command == "step" else []), "--mode",
            mode, "--fuel", "100000", "--trace", trace,
            str(CORPUS / f"{name}.hgmp")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == _fig3_expected(command, name, mode,
                                                          trace)


def test_repl_trace_bytes_match_the_reference_encoders(monkeypatch, capsys):
    source = (CORPUS / "fig3_top.hgmp").read_text(encoding="utf-8")
    source = source.splitlines()[-1]
    feed = iter([":trace on", source, f":ct {source}", ":quit"])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(feed))
    assert main(["repl", "--fuel", "100000"]) == 0
    result = run_pipeline(t(source), fuel=100_000, trace=True)
    _, d_ct = eval_ct(t(source), fuel=100_000, trace=True)
    assert capsys.readouterr().err == (ref_render_trace(result.stages) + "\n"
                                       + ref_render_derivation(d_ct) + "\n")


def test_render_memo_does_not_outlive_its_call():
    # A memo keyed by id(term) that outlived its call would hand a dead
    # term's text to the new object that reuses the id.
    for i in range(20_000):
        assert pretty(IntLit(i)) == str(i)
        assert to_json(Var(f"v{i}")) == (
            f'{{"atom":"v{i}","children":[],"ctor":"var"}}')


### property suites (smaller here; the acceptance suite runs the big ones)

def test_ct_eliminates_ml_constructs():
    rng = random.Random(100)
    succeeded = 0
    for _ in range(200):
        m = gen_compile_candidate(rng)
        try:
            out = eval_ct(m)
        except EvalError:
            continue
        succeeded += 1
        assert is_ml_free(out), pretty(m)
    assert succeeded >= 60


def test_ct_idempotent_on_ml_free():
    rng = random.Random(101)
    for _ in range(200):
        m = gen_ml_free(rng, depth=rng.randint(0, 4), with_eval=True)
        assert eval_ct(m) == m


def test_ul_dl_round_trip():
    rng = random.Random(102)
    for _ in range(200):
        m = gen_ml_free(rng, depth=rng.randint(0, 4))
        assert alpha_eq(eval_dl(eval_ul(m)), m), pretty(m)


def test_lift_dl_round_trip():
    rng = random.Random(103)
    from hgmp.syntax import Lift
    for _ in range(200):
        c = gen_constant(rng)
        assert eval_dl(eval_rt(Lift(c))) == c


def test_values_are_rt_fixed_points():
    rng = random.Random(104)
    for _ in range(150):
        kind = rng.randrange(4)
        if kind == 0:
            v = gen_constant(rng)
        elif kind == 1:
            v = Lam("x", gen_ml_free(rng, 2, ("x",), with_eval=True))
        elif kind == 2:
            v = TagLit(Tag("promote"))
        else:
            v = mk_ast("int", IntLit(rng.randint(0, 9)))
        assert eval_rt(v) == v


def test_typed_progress_over_unconstrained_terms():
    # stronger than the type-directed suite: arbitrary closed terms must
    # never get stuck in typed mode once the staged checks let them through
    rng = random.Random(987654321)
    for _ in range(400):
        m = gen_term(rng, depth=rng.randint(0, 5), typed=True)
        try:
            run_pipeline(m, "typed", fuel=20_000)
        except EvalError as exc:
            if exc.kind == EvalError.STUCK:
                assert exc.phase == "ul" and "letdown" in exc.message, \
                    (pretty(m), exc.phase, exc.message)


def test_relations_deterministic():
    rng = random.Random(105)
    for _ in range(100):
        m = gen_compile_candidate(rng)
        outcomes = []
        for _ in range(2):
            try:
                outcomes.append(eval_ct(m, trace=True))
            except EvalError as exc:
                outcomes.append((exc.kind, exc.phase, str(exc)))
        assert outcomes[0] == outcomes[1]


### uncommon stuck shapes

def test_dl_rec_binder_not_string():
    bad = mk_ast("rec", mk_ast("int", IntLit(1)),
                 mk_ast("string", StrLit("x")), mk_ast("int", IntLit(1)))
    with pytest.raises(EvalError) as exc:
        eval_dl(bad)
    assert "astRec" in exc.value.message


def test_dl_promote_head_not_a_tag():
    bad = mk_ast("promote", mk_ast("int", IntLit(1)))
    with pytest.raises(EvalError) as exc:
        eval_dl(bad)
    assert "head" in exc.value.message


def test_dl_promoted_promote_needs_second_tag():
    bad = mk_ast("promote", TagLit(Tag("promote")), mk_ast("int", IntLit(1)))
    with pytest.raises(EvalError) as exc:
        eval_dl(bad)
    assert "second position" in exc.value.message
    with pytest.raises(EvalError):
        eval_dl(mk_ast("promote", TagLit(Tag("promote"))))


def test_rt_eval_unannotated_in_typed_run_is_stuck():
    # As a library caller builds it: the parser never leaves a typed eval
    # unannotated. Under a binder the machine's error names the term the
    # substitution holds.
    term = Eval(mk_ast("int", IntLit(1)), None)
    with pytest.raises(EvalError) as exc:
        eval_rt(term, "typed")
    assert exc.value.kind == EvalError.STUCK
    bound = _app("x", Eval(Var("x"), None), mk_ast("int", IntLit(1)))
    for m in (term, bound):
        untraced = _rt_outcome(m, "typed")
        assert untraced == _rt_outcome(m, "typed", trace=True)
        assert untraced == (EvalError.STUCK, "rt",
                            "eval without annotation in a typed run", term)
