import random

import pytest

from hgmp.parser import parse_term
from hgmp.reduction import EvalError, eval_ct, run_pipeline
from hgmp.syntax import (
    BOOL, CODE, INT, STRING,
    App, Arrow, IntLit, Lam, MetaVar, TagType, Var, free_vars, pretty,
)
from hgmp.typecheck import (
    EMPTY_ENV, TypeErrorDetail, check, infer, infer_open, unify,
)

from gen_terms import gen_type, gen_typed_term


def t(src, mode="typed"):
    return parse_term(src, mode)


def rejects(src, kind=None, mode="typed"):
    with pytest.raises(TypeErrorDetail) as exc:
        infer(None, t(src, mode))
    if kind is not None:
        assert exc.value.kind == kind, exc.value
    return exc.value


### inference

def test_infer_code_for_ast_lambda():
    assert infer(None, t('astLam(astStr("x"), astVar("x"))')) == CODE


def test_infer_add_of_lambda_fails():
    err = rejects(r"2 + (\x.x)", kind="mismatch")
    assert err.expected == INT
    assert isinstance(err.found, Arrow)


def test_infer_astlam_needs_aststr_binder():
    rejects(r'astLam(\x.x, astVar("y"))', kind="mismatch")
    rejects(r'astRec(astVar("g"), astStr("x"), astVar("x"))', kind="mismatch")


def test_infer_promote_examples():
    assert infer(None, t("astPromote(#int, astInt(1), astInt(1))")) == CODE
    # the surface parser already refuses astInt(1, 1); the checker guards
    # the same shape when a promote builds it dynamically
    from hgmp.syntax import AstCtor, Tag
    bad = AstCtor(Tag("int"), (IntLit(1), IntLit(1)))
    with pytest.raises(TypeErrorDetail) as exc:
        infer(None, bad)
    assert exc.value.kind == "arity"


def test_infer_promote_of_promote():
    src = ("astPromote(#promote, #int, astPromote(#int, astInt(1)),"
           " astPromote(#int, astInt(1)))")
    assert infer(None, t(src)) == CODE
    # a promoted promote without a tag in second position has no
    # conversion down, so it is rejected up front
    rejects("astPromote(#promote, astInt(1))", kind="mismatch")
    rejects("astPromote(#promote)", kind="arity")


def test_infer_promote_head_must_be_tag():
    rejects("astPromote(astInt(1), astInt(2))", kind="mismatch")
    # a computed head is fine as long as its type resolves to a tag
    assert infer(None, t(r"astPromote((\y. y) #int, astInt(1))",
                         "untyped")) == CODE


def test_infer_eval_annotation():
    assert infer(None, t("eval{Int}(astInt(3))")) == INT
    assert infer(None, t("eval{Int -> Int}(astLam(astStr(\"x\"), astVar(\"x\")))")) \
        == Arrow(INT, INT)


def test_infer_lambda():
    assert infer(None, t(r"\x. x + 1")) == Arrow(INT, INT)
    assert infer(None, t(r"\x:Bool. x")) == Arrow(BOOL, BOOL)


def test_infer_rec():
    got = infer(None, t("rec f n. if n == 1 then 1 else n * f (n - 1)"))
    assert got == Arrow(INT, INT)


def test_infer_tags():
    assert infer(None, t("#lam")) == TagType("lam")
    assert infer(None, t("#eval{Int}")) == TagType("eval")


def test_an_unknown_tag_type_name_is_a_value_error():
    # As for Tag: not a KeyError when the type is printed.
    with pytest.raises(ValueError, match="unknown tag name: 'nosuch'"):
        check(None, IntLit(1), TagType("nosuch"))


def test_infer_rejects_what_is_not_a_term():
    for m in (5, App(Lam("x", Var("x")), 5)):
        with pytest.raises(TypeError) as exc:
            infer(EMPTY_ENV, m)
        assert str(exc.value) == "not a Term: 5"


def test_infer_unbound():
    rejects("x + 1", kind="unbound")


def test_infer_lift():
    assert infer(None, t("lift(3)")) == CODE
    assert infer(None, t('lift("s")')) == CODE
    assert infer(None, t("lift(1 == 2)")) == CODE
    rejects(r"lift(\x.x)", kind="mismatch")
    rejects(r"\x. lift(x)", kind="ambiguous")


def test_infer_ambiguous_top_level():
    rejects(r"\x. x", kind="ambiguous")
    # the same term checks fine against a concrete expectation
    check(None, t(r"\x. x"), Arrow(INT, INT))


def test_infer_eq_is_integer_only():
    assert infer(None, t("1 == 2")) == BOOL
    rejects('"a" == "a"', kind="mismatch")


def test_infer_shadowing():
    got = infer_open(None, t(r"\x. \x. x + 1"))
    assert isinstance(got, Arrow)
    assert got.dst == Arrow(INT, INT)
    assert infer(None, t(r"\x:Bool. \x. x + 1")) == Arrow(
        BOOL, Arrow(INT, INT))


def test_infer_rec_shared_name_under_outer_binding():
    # the parameter owns every occurrence, whatever is bound outside
    assert infer(None, t(r"\x:Bool. rec x x. x + 1")) == Arrow(
        BOOL, Arrow(INT, INT))
    assert infer(None, t(r"rec x x. x + 1")) == Arrow(INT, INT)


def test_type_error_names_the_source_variable():
    err = rejects(r"\x:Bool. \x:Int. if x then 1 else 2", kind="mismatch")
    assert "`x`" in err.describe()
    assert "x'" not in err.describe()


### check

def test_check_examples():
    check(None, t('astVar("x")'), CODE)
    with pytest.raises(TypeErrorDetail):
        check(None, t(r"\x.x"), CODE)
    check(None, t("7"), INT)


def test_check_phases_render():
    with pytest.raises(TypeErrorDetail) as exc:
        check(None, t("7"), CODE, phase="downML check")
    rendered = str(exc.value)
    assert rendered.startswith("error[type]:")
    assert "downML check" in rendered


### unify

def test_unify_examples():
    got = unify(Arrow(MetaVar(0), INT), Arrow(INT, INT))
    assert got == {0: INT}
    assert unify(TagType("lam"), TagType("app")) is None
    assert unify(CODE, Arrow(CODE, CODE)) is None


def test_unify_occurs_check():
    assert unify(MetaVar(0), Arrow(MetaVar(0), INT)) is None


def test_unify_chains():
    got = unify(Arrow(MetaVar(0), MetaVar(1)), Arrow(MetaVar(1), INT))
    assert got is not None
    assert got[0] == INT and got[1] == INT


### properties

SEED = 424242


def test_annotation_coherence():
    rng = random.Random(SEED)
    kept = 0
    for _ in range(200):
        ty = gen_type(rng, 2)
        m = gen_typed_term(rng, ty, (), rng.randint(0, 3))
        try:
            annotated = infer_open(None, m)
        except TypeErrorDetail:
            continue
        erased = _erase(m)
        bare = infer_open(None, erased)
        assert unify(annotated, bare) is not None, pretty(m)
        kept += 1
    assert kept >= 100


def _erase(m):
    from hgmp import syntax as s
    match m:
        case s.Lam(p, b, _):
            return s.Lam(p, _erase(b), None)
        case s.Rec(g, p, b, _):
            return s.Rec(g, p, _erase(b), None)
        case s.App(f, a):
            return s.App(_erase(f), _erase(a))
        case s.BinOp(op, l, r):
            return s.BinOp(op, _erase(l), _erase(r))
        case s.If(c, u, v):
            return s.If(_erase(c), _erase(u), _erase(v))
        case s.AstCtor(tag, args):
            return s.AstCtor(tag, tuple(_erase(a) for a in args))
        case s.Eval(b, an):  # eval annotations are semantic: keep them
            return s.Eval(_erase(b), an)
        case s.Lift(b):
            return s.Lift(_erase(b))
        case s.DownML(b):
            return s.DownML(_erase(b))
        case s.UpML(b):
            return s.UpML(_erase(b))
        case s.LetDown(x, b, k):
            return s.LetDown(x, _erase(b), _erase(k))
        case _:
            return m


def test_arity_agreement_with_registry():
    from hgmp.signature import check_arity
    from hgmp.syntax import AstCtor, Tag, mk_ast
    rng = random.Random(SEED + 1)
    code = mk_ast("int", IntLit(1))
    for _ in range(300):
        from gen_terms import TAGS
        name = rng.choice(TAGS)
        count = rng.randint(0, 4)
        term = AstCtor(Tag(name), tuple(code for _ in range(count)))
        if check_arity(name, count):
            try:
                infer(None, term)
            except TypeErrorDetail as err:
                assert err.kind != "arity", (name, count)
        else:
            with pytest.raises(TypeErrorDetail) as exc:
                infer(None, term)
            assert exc.value.kind == "arity"


def test_substitution_lemma():
    from hgmp.syntax import subst
    rng = random.Random(SEED + 2)
    kept = 0
    for _ in range(200):
        alpha = gen_type(rng, 1)
        beta = gen_type(rng, 1)
        body = gen_typed_term(rng, beta, (("x", alpha),), rng.randint(0, 3))
        arg = gen_typed_term(rng, alpha, (), rng.randint(0, 2))
        try:
            infer_open({"x": alpha}, body)
            infer_open(None, arg)
        except TypeErrorDetail:
            continue
        combined = subst(body, arg, "x")
        got = infer_open(None, combined)
        assert unify(got, beta) is not None, pretty(combined)
        kept += 1
    assert kept >= 80


def test_soundness_at_desk_scale():
    # well-typed ml-free programs evaluate to a value of the same type
    rng = random.Random(SEED + 3)
    kept = 0
    for _ in range(250):
        ty = gen_type(rng, 1)
        m = gen_typed_term(rng, ty, (), rng.randint(0, 3))
        try:
            infer_open(None, m)
        except TypeErrorDetail:
            continue
        try:
            result = run_pipeline(m, "typed", fuel=20_000)
        except EvalError as exc:
            assert exc.kind in (EvalError.FUEL, EvalError.TYPE), pretty(m)
            continue
        check(None, result.value, ty)
        kept += 1
    assert kept >= 120


@pytest.mark.parametrize("seed", [1, 2])
def test_typed_values_keep_their_residual_type_on_both_evaluators(seed):
    # Preservation: every typed program that runs to a value, untraced
    # (on the machine) or traced (on substitution), gives a value that
    # checks at its residual's type. A rejected or stuck program, or one
    # that runs out of fuel, says nothing; at least half the runs must
    # end in a value.
    rng = random.Random(seed)
    values = runs = 0
    for _ in range(1_000):
        ty = gen_type(rng)
        m = gen_typed_term(rng, ty, (), rng.randint(0, 4))
        for trace in (False, True):
            runs += 1
            try:
                result = run_pipeline(m, "typed", fuel=50_000, trace=trace)
            except EvalError:
                continue
            check(EMPTY_ENV, result.value, result.residual_type)
            values += 1
    assert values >= runs // 2, (values, runs)


def test_eval_without_annotation_is_malformed():
    from hgmp.syntax import Eval, mk_ast
    with pytest.raises(TypeErrorDetail) as exc:
        infer(None, Eval(mk_ast("int", IntLit(1)), None))
    assert exc.value.kind == "malformed"


def test_ml_constructs_cannot_be_typed():
    from hgmp.syntax import DownML, mk_ast
    with pytest.raises(TypeErrorDetail) as exc:
        infer(None, DownML(mk_ast("int", IntLit(1))))
    assert exc.value.kind == "malformed"


def test_display_type_names_holes_consistently():
    from hgmp.typecheck import display_type
    from hgmp.syntax import Arrow, MetaVar
    assert display_type(Arrow(MetaVar(3), MetaVar(3))) == "a -> a"
    assert display_type(Arrow(MetaVar(1), MetaVar(2))) == "a -> b"
    assert display_type(Arrow(Arrow(MetaVar(5), INT), MetaVar(5))) \
        == "(a -> Int) -> a"


def test_display_type_names_holes_past_the_alphabet():
    from hgmp.typecheck import display_type
    ty = MetaVar(27)
    for ident in reversed(range(27)):
        ty = Arrow(MetaVar(ident), ty)
    names = [chr(ord("a") + i) for i in range(26)] + ["a1", "a2"]
    assert display_type(ty) == " -> ".join(names)
    assert display_type(ty).endswith("z -> a1 -> a2")


def test_display_type_shares_names_across_calls():
    # A mismatch names the holes of its expected and found types alike.
    from hgmp.typecheck import display_type
    names = {}
    assert display_type(MetaVar(7), names) == "a"
    assert display_type(Arrow(MetaVar(8), Arrow(INT, MetaVar(7))),
                        names) == "b -> Int -> a"
    assert names == {7: "a", 8: "b"}


def test_promote_of_an_unknown_tag_is_ambiguous():
    err = rejects(r"\t. astPromote(t, astInt(1))", kind="ambiguous")
    assert err.message == "cannot tell which tag astPromote promotes"
    assert pretty(err.at) == "t"


def test_a_term_checked_against_the_empty_environment_is_closed():
    # The empty environment types no variable, so a term that a typed
    # check against it accepts is closed: in a typed run the residual,
    # a splice, a letdown and the code eval runs are all closed. Many
    # candidates here are open: terms, and their residuals, typed under
    # an environment that binds their free variables.
    rng = random.Random(4416)
    scope = (("x", INT), ("f", Arrow(INT, INT)), ("c", CODE), ("s", STRING))
    under_scope = dict(scope)
    accepted = open_typed = 0
    for _ in range(2_000):
        ty = gen_type(rng, 1)
        m = gen_typed_term(rng, ty, scope, rng.randint(1, 4))
        candidates = [m]
        try:
            candidates.append(eval_ct(m, "typed", fuel=10_000))
        except EvalError:
            pass
        for m in candidates:
            closed = not free_vars(m)
            for checker in (lambda m: infer(EMPTY_ENV, m),
                            lambda m: check(EMPTY_ENV, m, ty)):
                try:
                    checker(m)
                except TypeErrorDetail:
                    continue
                assert closed, pretty(m)
                accepted += 1
            if not closed:
                try:
                    infer(under_scope, m)
                except TypeErrorDetail:
                    continue
                open_typed += 1
    assert accepted > 1_000 and open_typed > 500
