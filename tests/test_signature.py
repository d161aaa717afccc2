from dataclasses import dataclass

import pytest

from hgmp import parser, signature, syntax, typecheck
from hgmp.reduction import eval_ct, eval_dl, eval_ul, term_to_json
from hgmp.signature import check_arity, lookup, registry, tagged_names
from hgmp.syntax import (
    AST_CTOR_OF_TAG, CODE, TAG_NAMES, TAG_OF_SURFACE,
    App, AstCtor, BoolLit, IntLit, Lam, StrLit, Tag, TagLit, Term, Var,
    alpha_eq, free_vars, mk_ast, subst,
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
    assert tagged_names() == frozenset(TAG_NAMES)


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


def test_lookup_unknown():
    with pytest.raises(KeyError):
        lookup("nosuch")


### meta-test: parser, dl, ul and typing all cover exactly the tagged set

def _canonical(name: str) -> AstCtor:
    code = mk_ast("int", IntLit(1))
    s = mk_ast("string", StrLit("x"))
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
    assert set(AST_CTOR_OF_TAG) == tagged_names()
    assert set(TAG_OF_SURFACE.values()) == tagged_names()
    for name in tagged_names():
        surface = parser.parse_term("#" + {"string": "str"}.get(name, name))
        assert surface.tag.name == name


def test_dl_covers_every_tagged_constructor():
    for name in sorted(tagged_names()):
        eval_dl(_canonical(name))  # raises if some tag had no rule


def test_ul_covers_every_tagged_constructor():
    for name in sorted(tagged_names()):
        out = eval_ul(_canonical(name))
        assert out.tag.name == "promote"
        assert out.args[0].tag.name == name


def test_typing_covers_every_tagged_constructor():
    for name in sorted(tagged_names()):
        assert typecheck.infer(None, _canonical(name)) == CODE


### the signature recipe: a constructor added in one row

@pytest.fixture
def pair(monkeypatch):
    """A 2-ary `pair` row and its class, registered for one test only."""
    monkeypatch.setitem(signature._BY_NAME, "pair",
                        signature.CtorSpec("pair", "pair", 2))
    monkeypatch.setitem(syntax.SURFACE_OF_TAG, "pair", "pair")
    monkeypatch.setitem(syntax._PLAIN_TAG, "pair", syntax.Tag("pair"))
    monkeypatch.setitem(syntax.CLASS_OF_TAG, "pair", None)  # undone: deleted

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

    encoded = term_to_json(m)
    assert encoded["ctor"] == "pair"
    assert encoded["children"] == [term_to_json(one), term_to_json(two)]
    assert typecheck.infer(None, ast) == CODE
