import dataclasses
import os
import random
import subprocess
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmp import syntax
from hgmp.parser import parse_term
from hgmp.reduction import Derivation, eval_ul, to_json
from hgmp.syntax import (
    BOOL, INT,
    App, Arrow, AstCtor, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam,
    LetDown, Lift, MetaVar, Rec, StrLit, Tag, TagLit, TagType, Term,
    TypeExpr, UpML, Var,
    alpha_eq, free_vars, int_of_text, int_text, is_ml_free, mk_ast, pretty,
    pretty_type, subst, tree_size,
)

from gen_terms import gen_ml_free, gen_term


def t(src, mode="untyped"):
    return parse_term(src, mode)


### free variables

def test_free_vars_closed_lambda():
    assert free_vars(t(r"\x.x")) == set()


def test_free_vars_ast_names_are_data():
    assert free_vars(t(r'\y.$(astVar("x"))')) == set()


def test_free_vars_letdown_binds_in_body():
    assert free_vars(t(r"letdown f = \x.x in $(f)")) == set()
    assert free_vars(t(r"$(f)")) == {"f"}


def test_free_vars_letdown_shadows_bound_term_too():
    # matches the substitution rule: {L/x} over letdown x = .. is a no-op
    assert free_vars(LetDown("x", Var("x"), IntLit(1))) == set()


def test_free_vars_transparent_wrappers():
    assert free_vars(t(r"lift(x)")) == {"x"}
    assert free_vars(t(r"eval(x)")) == {"x"}
    assert free_vars(t(r"[| x |]")) == {"x"}


def ref_free_vars(m):
    """free_vars as the recursive walk it replaced: the reference."""
    if type(m) is Var:
        return {m.name}
    out = set()
    for k in m.children():
        out |= ref_free_vars(k)
    return out.difference(m.bound_names())


def test_free_vars_matches_the_recursive_reference():
    # Repeated and shadowing binders, then seeded terms of every shape.
    rng = random.Random(131)
    terms = [t(s) for s in (r"rec f f. f x", r"\x. (\x. x) x y",
                            r"rec f x. \f. f x g", r"letdown x = x in $(x)",
                            r"\y. letdown y = y z in $(y)")]
    terms += [gen_term(rng, depth=rng.randint(0, 6), typed=i % 2 == 1)
              for i in range(3_000)]
    for m in terms:
        assert free_vars(m) == ref_free_vars(m), pretty(m)


def test_free_vars_of_deep_terms_needs_no_recursion():
    # At CPython's default limit of 1,000: a 100,000-term 1 + 1 + ..
    # chain, a 100,000-deep application spine and 20,000 nested lambdas
    # with distinct names, the outermost bound at the bottom.
    code = (
        "import sys\n"
        "from hgmp.syntax import App, BinOp, IntLit, Lam, Var, free_vars\n"
        "chain = IntLit(1)\n"
        "for _ in range(99_999):\n"
        "    chain = BinOp('add', chain, IntLit(1))\n"
        "spine = Var('f')\n"
        "for i in range(100_000):\n"
        "    spine = App(spine, Var(f'x{i % 3}'))\n"
        "lams = App(Var('v19999'), Var('w'))\n"
        "for i in range(20_000):\n"
        "    lams = Lam(f'v{i}', lams)\n"
        "print(sys.getrecursionlimit(), *[sorted(free_vars(m))\n"
        "                                 for m in (chain, spine, lams)])\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env)
    want = "1000 [] ['f', 'x0', 'x1', 'x2'] ['w']\n"
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, "")


def _ref_tree_size(m):
    return 1 + sum(map(_ref_tree_size, m.children()))


def test_tree_size_counts_a_shared_term_at_each_place(
        default_recursion_limit):
    # as a tree walk counts seeded terms; a value that doubles its tree
    # 100 times in 102 objects; and a 100,000-term chain at CPython's
    # default limit, on no recursion
    rng = random.Random(132)
    for _ in range(500):
        m = gen_term(rng, depth=rng.randint(0, 6))
        assert tree_size(m) == _ref_tree_size(m), pretty(m)
    m = App(Var("f"), IntLit(1))
    for _ in range(100):
        m = App(m, m)
    assert tree_size(m) == 4 * 2 ** 100 - 1
    chain = IntLit(1)
    for _ in range(99_999):
        chain = BinOp("add", chain, IntLit(1))
    assert tree_size(chain) == 199_999


### substitution

def test_subst_simple():
    assert subst(t(r"\y.x"), IntLit(7), "x") == t(r"\y.7")


def test_subst_pushes_into_downml():
    got = subst(t(r"$(x + 1)"), mk_ast("int", IntLit(2)), "x")
    assert got == t(r"$(astInt(2) + 1)")


def test_subst_letdown_shadowing():
    m = t(r"letdown x = 1 + 1 in $(x)")
    assert subst(m, IntLit(9), "x") == m


def test_subst_letdown_other_name():
    m = LetDown("y", Var("x"), DownML(Var("x")))
    got = subst(m, IntLit(3), "x")
    assert got == LetDown("y", IntLit(3), DownML(IntLit(3)))


def test_subst_capture_avoidance():
    got = subst(t(r"\y. x"), Var("y"), "x")
    assert isinstance(got, Lam)
    assert got.param != "y"
    assert got.body == Var("y")  # the free y was not captured
    assert alpha_eq(got, Lam("w", Var("y")))


def test_subst_capture_avoidance_letdown():
    m = LetDown("y", Var("x"), App(Var("y"), Var("x")))
    got = subst(m, Var("y"), "x")
    assert isinstance(got, LetDown)
    assert got.name != "y"
    assert got.bound == Var("y")
    assert got.body == App(Var(got.name), Var("y"))


def test_subst_rec_shared_binder_name():
    m = Rec("f", "f", Var("f"))
    got = subst(m, Var("q"), "q")  # q unused: untouched
    assert got == m
    n = App(Rec("f", "f", Var("f")), Var("x"))
    assert subst(n, Var("f"), "x") == App(Rec("f", "f", Var("f")), Var("f"))


### alpha equivalence

def test_alpha_eq_basic():
    assert alpha_eq(t(r"\x.x"), t(r"\y.y"))
    assert alpha_eq(t(r"\x.\x.x"), t(r"\y.\x.x"))
    assert not alpha_eq(t(r"\x.\y.x"), t(r"\x.\y.y"))


def test_alpha_eq_ast_strings_are_data():
    a = t(r'astLam(astStr("x"), astVar("x"))')
    b = t(r'astLam(astStr("y"), astVar("y"))')
    assert not alpha_eq(a, b)


def test_alpha_eq_letdown():
    assert alpha_eq(t(r"letdown v = astInt(1) in $(v)"),
                    t(r"letdown w = astInt(1) in $(w)"))


def test_alpha_eq_free_vars_by_name():
    assert alpha_eq(Var("x"), Var("x"))
    assert not alpha_eq(Var("x"), Var("y"))


def test_alpha_eq_rec():
    assert alpha_eq(t(r"rec g x. g x"), t(r"rec h y. h y"))
    assert not alpha_eq(t(r"rec g x. g x"), t(r"rec h y. y h"))


def test_alpha_eq_eval_annotation_significant():
    a = parse_term("eval{Int}(x)", "typed")
    b = parse_term("eval{Bool}(x)", "typed")
    assert not alpha_eq(a, b)
    assert alpha_eq(a, parse_term("eval{Int}(x)", "typed"))


def test_alpha_eq_binder_annotations_ignored():
    assert alpha_eq(parse_term(r"\x:Int. x", "typed"), t(r"\x. x"))


### ml-free check

def test_is_ml_free():
    assert is_ml_free(t(r"\x. x + 1"))
    assert not is_ml_free(t(r'\x.$(astVar("x"))'))
    assert not is_ml_free(t(r"[| 1 |]"))
    assert not is_ml_free(t(r"letdown x = 1 in 2"))
    assert is_ml_free(parse_term("eval{Int}(astInt(3))", "typed"))
    assert is_ml_free(t(r"lift(3)"))


### pretty-printing

def test_pretty_examples():
    assert pretty(Var("x")) == "x"
    two_three = mk_ast("add", mk_ast("int", IntLit(2)), mk_ast("int", IntLit(3)))
    assert pretty(two_three) == "astAdd(astInt(2), astInt(3))"
    assert pretty(UpML(BinOp("add", IntLit(2), IntLit(3)))) == "[| 2 + 3 |]"


def test_pretty_precedence():
    assert pretty(t("1 + 2 * 3")) == "1 + 2 * 3"
    assert pretty(t("(1 + 2) * 3")) == "(1 + 2) * 3"
    assert pretty(t("f x y")) == "f x y"
    assert pretty(t("f (x y)")) == "f (x y)"
    assert pretty(t("1 - 2 - 3")) == "1 - 2 - 3"  # left-assoc, no parens


def decimal_digits(n):
    # Decimal converts from the int's binary digits, so no limit applies.
    return str(Decimal(n))


@pytest.mark.parametrize("limit", [sys.get_int_max_str_digits(), 640])
def test_int_text_converts_integers_of_any_size(limit):
    rng = random.Random(4300)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        for digits in (1, 639, 640, 641, 4299, 4300, 4301, 4933, 8601, 20000):
            n = rng.randrange(10 ** (digits - 1), 10 ** digits)
            for m in (n, -n, 10 ** digits, 10 ** digits - 1):
                assert int_text(m) == decimal_digits(m), digits
                assert int_of_text(int_text(m)) == m, digits
    finally:
        sys.set_int_max_str_digits(old)


def test_pretty_prints_integers_over_the_str_limit():
    n = 2 ** 2 ** 14  # 4933 digits
    assert pretty(IntLit(n)) == decimal_digits(n)
    assert pretty(BinOp("sub", IntLit(1), IntLit(-n))) == (
        "1 - (" + decimal_digits(-n) + ")")
    assert to_json(IntLit(n)) == ('{"atom":' + decimal_digits(n)
                                  + ',"children":[],"ctor":"int"}')


def test_pretty_string_escapes():
    s = StrLit('say "hi"\n\t\\')
    assert parse_term(pretty(s)) == s


### invariants on generated terms

SEED = 20240811


def test_round_trip_generated():
    rng = random.Random(SEED)
    for _ in range(300):
        typed = rng.random() < 0.5
        m = gen_term(rng, depth=rng.randint(0, 5),
                     typed=typed)
        mode = "typed" if typed else "untyped"
        assert parse_term(pretty(m), mode) == m, pretty(m)


def test_subst_identity_is_alpha_eq():
    rng = random.Random(SEED + 1)
    for _ in range(300):
        m = gen_term(rng, depth=rng.randint(0, 4))
        for x in ("x", "q"):
            assert alpha_eq(subst(m, Var(x), x), m)


def test_subst_free_var_containment():
    rng = random.Random(SEED + 2)
    for _ in range(300):
        m = gen_term(rng, depth=rng.randint(0, 4))
        n = gen_term(rng, depth=rng.randint(0, 3))
        x = rng.choice(("x", "y", "f"))
        got = free_vars(subst(m, n, x))
        bound = (free_vars(m) - {x}) | free_vars(n)
        assert got <= bound, (pretty(m), pretty(n), x)


def _ctor_counts(m, acc):
    if isinstance(m, AstCtor):
        acc[m.tag.name] = acc.get(m.tag.name, 0) + 1
        for a in m.args:
            _ctor_counts(a, acc)
    else:
        for field in getattr(m, "__dataclass_fields__", ()):
            v = getattr(m, field)
            if hasattr(v, "__dataclass_fields__") and not isinstance(v, Tag):
                _ctor_counts(v, acc)


def test_subst_inserts_n_unchanged():
    # no accidental evaluation: the substituted copy keeps its ctor kinds
    rng = random.Random(SEED + 3)
    for _ in range(200):
        n = gen_ml_free(rng, depth=rng.randint(0, 3))
        m = Lam("y", App(Var("x"), Var("x")))
        got = subst(m.body, n, "x")
        want, have = {}, {}
        _ctor_counts(n, want)
        _ctor_counts(got, have)
        for name, count in want.items():
            assert have.get(name, 0) == 2 * count


def test_alpha_eq_is_equivalence():
    rng = random.Random(SEED + 4)
    terms = [gen_term(rng, depth=rng.randint(0, 4)) for _ in range(60)]
    for m in terms:
        assert alpha_eq(m, m)
    for a in terms[:25]:
        for b in terms[:25]:
            assert alpha_eq(a, b) == alpha_eq(b, a)
            if alpha_eq(a, b):
                for c in terms[:25]:
                    if alpha_eq(b, c):
                        assert alpha_eq(a, c)


### a hypothesis strategy gives shrinking for the trickiest operation

_names = st.sampled_from(("x", "y", "z", "f"))


def _terms():
    return st.recursive(
        st.one_of(
            st.builds(Var, _names),
            st.builds(IntLit, st.integers(-5, 5)),
            st.builds(StrLit, st.sampled_from(("", "x", "hi"))),
            st.builds(BoolLit, st.booleans()),
        ),
        lambda children: st.one_of(
            st.builds(Lam, _names, children),
            st.builds(App, children, children),
            st.builds(lambda b: mk_ast("int", b), children),
            st.builds(DownML, children),
            st.builds(LetDown, _names, children, children),
        ),
        max_leaves=12,
    )


@settings(max_examples=200, deadline=None)
@given(m=_terms(), n=_terms(), x=_names)
def test_subst_then_free_vars_hypothesis(m, n, x):
    got = free_vars(subst(m, n, x))
    assert got <= (free_vars(m) - {x}) | free_vars(n)


@settings(max_examples=200, deadline=None)
@given(m=_terms(), x=_names)
def test_subst_var_identity_hypothesis(m, x):
    assert alpha_eq(subst(m, Var(x), x), m)


### capture avoidance on open terms

OPEN_NAMES = ("x", "x'", "f", "f'", "g", "g'")


def _gen_open(rng, depth):
    """Open terms over primed names, with every binder (rec f f. too)."""
    name = lambda: rng.choice(OPEN_NAMES)  # noqa: E731
    if depth <= 0 or rng.random() < 0.2:
        return Var(name()) if rng.random() < 0.8 else IntLit(rng.randint(0, 9))
    d = depth - 1
    pick = rng.randrange(6)
    if pick == 0:
        return Lam(name(), _gen_open(rng, d))
    if pick == 1:
        self_name = name()
        param = self_name if rng.random() < 0.3 else name()
        return Rec(self_name, param, _gen_open(rng, d))
    if pick == 2:
        return LetDown(name(), _gen_open(rng, d), _gen_open(rng, d))
    if pick == 3:
        return App(_gen_open(rng, d), _gen_open(rng, d))
    if pick == 4:
        return DownML(UpML(_gen_open(rng, d)))
    return mk_ast("lam", mk_ast("string", StrLit(name())), _gen_open(rng, d))


def test_subst_capture_avoiding_on_open_terms():
    rng = random.Random(SEED + 5)
    for _ in range(2000):
        m = _gen_open(rng, rng.randint(0, 5))
        n = _gen_open(rng, rng.randint(0, 3))
        x = rng.choice(OPEN_NAMES)
        got = subst(m, n, x)
        fv_m = free_vars(m)
        want = (fv_m - {x}) | (free_vars(n) if x in fv_m else set())
        assert free_vars(got) == want, (pretty(m), pretty(n), x)
        if x not in fv_m:
            assert got == m, (pretty(m), pretty(n), x)
        assert alpha_eq(subst(m, Var(x), x), m), (pretty(m), x)


def test_subst_sees_a_shared_subterm_under_each_binder():
    # one object free in y, met under \y first and outside it after: a
    # walk that took it once would miss y, and \y would capture it
    w = App(Var("y"), Var("z"))
    n = App(w, Lam("y", w))
    assert subst(Lam("y", Var("x")), n, "x") == Lam("y'", n)


def test_free_vars_of_shared_values_match_the_reference():
    # values sharing one open object under binders of its names and
    # outside them, in either order
    rng = random.Random(5)
    names = ("y", "z", "w")
    for _ in range(500):
        s = gen_ml_free(rng, 3, names, names=names)
        x, y = rng.choice(names), rng.choice(names)
        for n in (App(s, Lam(x, s)), App(Lam(x, s), s),
                  Lam(x, App(s, Lam(y, s))), LetDown(x, s, App(s, s))):
            assert free_vars(n) == ref_free_vars(n), pretty(n)


def test_subst_rec_primed_pair_renames_innermost_first():
    # Both binders capture. The parameter is renamed first, so g' takes
    # g'' and g takes g'''; renaming g first gives an alpha-equal term.
    n = App(Var("g"), Var("g'"))
    m = Rec("g", "g'", App(Var("g"), App(Var("g'"), Var("x"))))
    got = subst(m, n, "x")
    assert got == Rec("g'''", "g''", App(Var("g'''"), App(Var("g''"), n)))
    assert alpha_eq(got, Rec("g''", "g'''",
                             App(Var("g''"), App(Var("g'''"), n))))


### constructor validation and rename corners

def test_tag_and_binop_validation():
    import pytest
    from hgmp.syntax import INT
    with pytest.raises(ValueError):
        Tag("nosuch")
    with pytest.raises(ValueError):
        Tag("lam", eval_annot=INT)  # only eval carries an annotation
    with pytest.raises(ValueError, match="only the eval tag"):
        Tag("int", INT)
    with pytest.raises(ValueError):
        BinOp("div", IntLit(1), IntLit(2))
    with pytest.raises(ValueError, match="unknown operator: 'pow'"):
        BinOp("pow", IntLit(1), IntLit(2))


def test_printers_reject_what_they_do_not_print():
    for show, value, message in [
            (pretty, 5, "not a Term: 5"),
            (pretty, App(Var("f"), 5), "not a Term: 5"),
            (pretty_type, IntLit(1), "not a TypeExpr: IntLit(value=1)")]:
        with pytest.raises(TypeError) as exc:
            show(value)
        assert str(exc.value) == message


def test_quoted_nodes_of_one_constructor_share_one_tag():
    # A tag without an annotation is one immutable value per constructor;
    # an eval with an annotation builds its own.
    ast = eval_ul(t(r"(\x. 1 + 2) (\y. 3 + 4)"))
    lams = [a for a in ast.args if a.tag.name == "lam"]
    adds = [lam.args[1] for lam in lams]
    assert lams[0].tag is lams[1].tag and adds[0].tag is adds[1].tag
    assert adds[0].args[0].tag is adds[1].args[1].tag  # the ints
    assert Eval(Var("c")).ast_tag() is Eval(Var("d")).ast_tag()
    typed = Eval(Var("c"), INT).ast_tag()
    assert typed == Tag("eval", INT) and typed is not Eval(Var("c"),
                                                           INT).ast_tag()


def _node_samples():
    """One instance of every node class: each Term and TypeExpr class of
    syntax, Tag and Derivation."""
    x = Var("x")
    return [
        x, App(x, x), Lam("x", x, INT), Rec("f", "x", x, Arrow(INT, INT)),
        IntLit(1), StrLit("s"), BoolLit(True), BinOp("add", x, x),
        If(x, x, x), mk_ast("int", IntLit(1)), TagLit(Tag("eval", INT)),
        DownML(x), UpML(x), Eval(x, INT), Lift(x), LetDown("y", x, x),
        INT, TagType("int"), Arrow(INT, BOOL), MetaVar(0),
        Tag("eval", INT), Derivation("Var ct", "ct", x, x, ()),
    ]


def test_every_node_class_has_a_sample():
    classes = {c for c in vars(syntax).values() if isinstance(c, type)
               and issubclass(c, (Term, TypeExpr))} - {Term, TypeExpr}
    assert {type(m) for m in _node_samples()} == classes | {Tag, Derivation}


@pytest.mark.parametrize("m", _node_samples(), ids=lambda m: type(m).__name__)
def test_nodes_are_frozen_slotted_values(m):
    cls = type(m)
    fields = dataclasses.fields(cls)
    for f in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(m, f.name, getattr(m, f.name))
    assert not hasattr(m, "__dict__")
    values = {f.name: getattr(m, f.name) for f in fields}
    for again in (cls(**values), cls(*values.values())):
        assert again is not m
        assert again == m and hash(again) == hash(m)
    assert cls.__match_args__ == tuple(values)
    # The fields left out take their defaults.
    required = {f.name: values[f.name] for f in fields
                if f.default is dataclasses.MISSING}
    made = cls(**required)
    for f in fields:
        if f.default is not dataclasses.MISSING:
            assert getattr(made, f.name) is f.default


def test_subst_rec_renames_captured_binders():
    m = Rec("g", "x", App(Var("g"), Var("q")))
    got = subst(m, Var("g"), "q")
    assert isinstance(got, Rec)
    assert got.self_name != "g"
    assert got.body == App(Var(got.self_name), Var("g"))
    m2 = Rec("g", "x", App(Var("x"), Var("q")))
    got2 = subst(m2, Var("x"), "q")
    assert got2.param != "x"
    assert got2.body == App(Var(got2.param), Var("x"))


def test_pretty_type_writes_holes_by_number():
    from hgmp.syntax import INT, Arrow, MetaVar, pretty_type
    assert pretty_type(MetaVar(3)) == "?3"
    assert pretty_type(Arrow(Arrow(MetaVar(1), INT), MetaVar(12))) \
        == "(?1 -> Int) -> ?12"
