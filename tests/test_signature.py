from dataclasses import dataclass

import pytest

from hgmp import signature, syntax, typecheck
from hgmp.parser import parse_term, parse_type
from hgmp.reduction import eval_ct, eval_dl, eval_ul, to_json
from hgmp.signature import check_arity, lookup, registry
from hgmp.syntax import (
    CODE, INT, TAGS,
    App, AstCtor, BoolLit, IntLit, Lam, StrLit, Tag, TagLit, TagType, Term,
    Var, alpha_eq, free_vars, mk_ast, pretty, pretty_type, subst,
)


def test_registry_rows():
    assert lookup("lam").binders == (0,)
    assert lookup("rec").binders == (0, 1)
    assert lookup("letdown").binders == (0,)
    assert lookup("promote").arity is None
    assert lookup("downML").tag is None
    assert lookup("upML").tag is None
    assert lookup("letdown").tag is None
    assert lookup("app").arity == 2
    assert lookup("if").arity == 3


def test_registry_tagged_subset_matches_tag_type():
    # One record per tagged row, in the registry's order; no other name
    # makes a tag.
    assert list(TAGS) == [s.name for s in registry() if s.tag is not None]
    for spec in registry():
        if spec.tag is None:
            with pytest.raises(ValueError, match="unknown tag name"):
                Tag(spec.name)


def test_exactly_one_variadic_and_no_variadic_binders():
    variadic = [s for s in registry() if s.arity is None]
    assert [s.name for s in variadic] == ["promote"]
    for spec in registry():
        if spec.arity is None:
            assert spec.binders == ()


def test_check_arity():
    assert check_arity("int", 1)
    assert not check_arity("int", 2)
    assert check_arity("promote", 3)
    assert check_arity("promote", 1)
    assert not check_arity("promote", 0)
    assert not check_arity("lam", 1)


@pytest.mark.parametrize("arity, binders, message", [
    (2, (1,), "binder positions must lead the arguments"),
    (None, (0,), "a binding constructor needs a fixed arity and a body "
                 "after its binders"),
    (1, (0,), "a binding constructor needs a fixed arity and a body after "
              "its binders"),
])
def test_ctor_spec_rejects_misplaced_binders(arity, binders, message):
    with pytest.raises(ValueError) as exc:
        signature.CtorSpec("pair", "pair", arity, binders)
    assert str(exc.value) == message


def test_lookup_unknown():
    with pytest.raises(KeyError):
        lookup("nosuch")


### meta-test: parser, dl, ul and typing all cover exactly the tagged set

def _canonical(name: str) -> AstCtor:
    code = mk_ast("int", IntLit(1))
    s = mk_ast("string", StrLit("x"))
    if name == "pair":  # the row of the fixture below
        return mk_ast("pair", code, mk_ast("int", IntLit(2)))
    return {
        "var": mk_ast("var", StrLit("x")),
        "app": mk_ast("app", code, code),
        "lam": mk_ast("lam", s, code),
        "rec": mk_ast("rec", s, mk_ast("string", StrLit("y")), code),
        "int": mk_ast("int", IntLit(1)),
        "string": mk_ast("string", StrLit("x")),
        "bool": mk_ast("bool", BoolLit(True)),
        "add": mk_ast("add", code, code),
        "sub": mk_ast("sub", code, code),
        "mul": mk_ast("mul", code, code),
        "eq": mk_ast("eq", code, code),
        "if": mk_ast("if", mk_ast("bool", BoolLit(True)), code, code),
        "eval": mk_ast("eval", code),
        "lift": mk_ast("lift", code),
        "promote": mk_ast("promote", TagLit(Tag("int")), code),
    }[name]


def test_parser_surface_covers_tagged_registry():
    # Each tagged row's tag t is spelled #t and astT.
    for spec in registry():
        if spec.tag is not None:
            assert parse_term("#" + spec.tag) == TagLit(Tag(spec.name))
            ast = _canonical(spec.name)
            args = ", ".join(map(pretty, ast.args))
            assert parse_term(f"ast{spec.tag.capitalize()}({args})") == ast


def _assert_round_trips(name: str):
    """Row name's #t, astT(..) and Tag#t print and parse back: untyped,
    and typed, where the eval row's are #eval{Int} and astEval{Int}(..)."""
    args = _canonical(name).args
    for mode, annot in (("untyped", None),
                        ("typed", INT if name == "eval" else None)):
        tag = Tag(name, annot)
        for m in (TagLit(tag), AstCtor(tag, args)):
            assert parse_term(pretty(m), mode) == m
    assert parse_type(pretty_type(TagType(name))) == TagType(name)


def test_every_tagged_row_round_trips():
    for name in TAGS:
        _assert_round_trips(name)


def test_dl_covers_every_tagged_constructor():
    for name in sorted(TAGS):
        eval_dl(_canonical(name))  # raises if some tag had no rule


def test_ul_covers_every_tagged_constructor():
    for name in sorted(TAGS):
        out = eval_ul(_canonical(name))
        assert out.tag.name == "promote"
        assert out.args[0].tag.name == name


def test_typing_covers_every_tagged_constructor():
    for name in sorted(TAGS):
        assert typecheck.infer(None, _canonical(name)) == CODE


### the signature recipe: a constructor added in one row

@pytest.fixture
def pair(monkeypatch):
    """A 2-ary `pair` row and its class, registered for one test only:
    _shape enters its tag and its spellings #pair and astPair."""
    monkeypatch.setitem(signature._BY_NAME, "pair",
                        signature.CtorSpec("pair", "pair", 2))
    for table, key in ((syntax.TAGS, "pair"),
                       (syntax.TAG_OF_SPELLING, "#pair"),
                       (syntax.TAG_OF_SPELLING, "astPair")):
        monkeypatch.setitem(table, key, None)  # undone: deleted

    @syntax._shape("pair", "fst", "snd")
    @dataclass(frozen=True)
    class Pair(Term):
        fst: Term
        snd: Term

    return Pair


def test_a_signature_row_drives_the_generic_layers(pair):
    one, two = IntLit(1), IntLit(2)
    m = pair(one, two)
    out, d = eval_ct(m, trace=True)
    assert (out, d.rule, len(d.premises)) == (m, "Pair ct", 2)
    ast, d = eval_ul(m, trace=True)
    assert ast == mk_ast("pair", mk_ast("int", one), mk_ast("int", two))
    assert d.rule == "Pair ul"
    back, d = eval_dl(ast, trace=True)
    assert (back, d.rule) == (m, "Pair dl")
    assert alpha_eq(back, m)

    # the traversals read the row: \y binds in the second component only
    open_pair = pair(Var("y"), Lam("y", App(Var("y"), Var("z"))))
    assert free_vars(open_pair) == {"y", "z"}
    renamed = subst(open_pair, Var("y"), "z")
    assert renamed == pair(Var("y"), Lam("y'", App(Var("y'"), Var("y"))))
    assert alpha_eq(renamed, pair(Var("y"), Lam("w", App(Var("w"),
                                                         Var("y")))))
    assert not alpha_eq(renamed, pair(Var("y"), Lam("w", App(Var("w"),
                                                             Var("w")))))
    assert not alpha_eq(m, pair(two, one))

    assert to_json(m) == ('{"children":[' + to_json(one) + ","
                          + to_json(two) + '],"ctor":"pair"}')
    assert typecheck.infer(None, ast) == CODE

    # and its concrete syntax: #pair, astPair(..) and Tag#pair
    assert pretty(ast) == "astPair(astInt(1), astInt(2))"
    assert parse_term("astPair(astInt(1), astInt(2))") == ast
    assert (pretty(TagLit(Tag("pair"))), parse_term("#pair")) == (
        "#pair", TagLit(Tag("pair")))
    assert pretty_type(TagType("pair")) == "Tag#pair"
    assert parse_type("Tag#pair") == TagType("pair")
    assert parse_term("#pair", "typed") == TagLit(Tag("pair"))
    _assert_round_trips("pair")
