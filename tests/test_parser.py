import gc
import json
import random
import re
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmp.parser import (
    ParseError, SourceSpan, _Parser, _tokens, parse_term, parse_type,
)
from hgmp.syntax import (
    BOOL, CODE, INT, STRING,
    App, Arrow, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam,
    LetDown, Rec, StrLit, Tag, TagLit, TagType, Term, UpML, Var,
    TAGS, int_of_text, mk_ast, pretty,
)

from gen_terms import SOUP, gen_term


### lexer: exact tokens and errors

def lex(src):
    """(kind, value, start, end) for every token, the closing eof included:
    the kinds and values the lexer gives, and each token's span as the
    parser finds it again for an error."""
    kinds, values = _tokens(src)
    spans = map(_Parser(src, "untyped").span, range(len(kinds)))
    return [(kind, value, span.start, span.end)
            for kind, value, span in zip(kinds, values, spans)]


TOKEN_TABLE = [
    # whitespace and comments
    (" \t1\r\n 2 ", [("int", 1, 2, 3), ("int", 2, 6, 7)]),
    ("1 -- c\n2--x", [("int", 1, 0, 1), ("int", 2, 7, 8)]),
    ("-- é\n x", [("ident", "x", 7, 8)]),
    ("--1", []),
    ("", []),
    # '-' after each operand-ending token kind is the binary operator
    ("1-2", [("int", 1, 0, 1), ("-", "-", 1, 2), ("int", 2, 2, 3)]),
    ('"a"-1', [("string", "a", 0, 3), ("-", "-", 3, 4), ("int", 1, 4, 5)]),
    ("x-1", [("ident", "x", 0, 1), ("-", "-", 1, 2), ("int", 1, 2, 3)]),
    ("true-1", [("true", "true", 0, 4), ("-", "-", 4, 5), ("int", 1, 5, 6)]),
    ("false-1",
     [("false", "false", 0, 5), ("-", "-", 5, 6), ("int", 1, 6, 7)]),
    ("#lam-1", [("tag", "lam", 0, 4), ("-", "-", 4, 5), ("int", 1, 5, 6)]),
    ("(x)-1", [("(", "(", 0, 1), ("ident", "x", 1, 2), (")", ")", 2, 3),
               ("-", "-", 3, 4), ("int", 1, 4, 5)]),
    ("[|x|]-1", [("[|", "[|", 0, 2), ("ident", "x", 2, 3),
                 ("|]", "|]", 3, 5), ("-", "-", 5, 6), ("int", 1, 6, 7)]),
    ("eval{Int}-1", [("eval", "eval", 0, 4), ("{", "{", 4, 5),
                     ("ident", "Int", 5, 8), ("}", "}", 8, 9),
                     ("-", "-", 9, 10), ("int", 1, 10, 11)]),
    # ... and anywhere else it starts a negative literal
    ("-1", [("int", -1, 0, 2)]),
    ("(-1", [("(", "(", 0, 1), ("int", -1, 1, 3)]),
    ("+-1", [("+", "+", 0, 1), ("int", -1, 1, 3)]),
    ("- -1", [("-", "-", 0, 1), ("int", -1, 2, 4)]),
    ("in -1", [("in", "in", 0, 2), ("int", -1, 3, 5)]),
    ("[|-1", [("[|", "[|", 0, 2), ("int", -1, 2, 4)]),
    ("1==-1", [("int", 1, 0, 1), ("==", "==", 1, 3), ("int", -1, 3, 5)]),
    ("- 1", [("-", "-", 0, 1), ("int", 1, 2, 3)]),
    ("-x", [("-", "-", 0, 1), ("ident", "x", 1, 2)]),
    ("Int->Int",
     [("ident", "Int", 0, 3), ("->", "->", 3, 5), ("ident", "Int", 5, 8)]),
    ("[| |] -> == ( ) { } , . : \\ $ + - * =",
     [("[|", "[|", 0, 2), ("|]", "|]", 3, 5), ("->", "->", 6, 8),
      ("==", "==", 9, 11), ("(", "(", 12, 13), (")", ")", 14, 15),
      ("{", "{", 16, 17), ("}", "}", 18, 19), (",", ",", 20, 21),
      (".", ".", 22, 23), (":", ":", 24, 25), ("\\", "\\", 26, 27),
      ("$", "$", 28, 29), ("+", "+", 30, 31), ("-", "-", 32, 33),
      ("*", "*", 34, 35), ("=", "=", 36, 37)]),
    # keywords, then AST constructors, then identifiers
    ("let letdown in if then else rec true false eval lift",
     [("let", "let", 0, 3), ("letdown", "letdown", 4, 11),
      ("in", "in", 12, 14), ("if", "if", 15, 17), ("then", "then", 18, 22),
      ("else", "else", 23, 27), ("rec", "rec", 28, 31),
      ("true", "true", 32, 36), ("false", "false", 37, 42),
      ("eval", "eval", 43, 47), ("lift", "lift", 48, 52)]),
    ("astLam astStr astEvalx letdownx",
     [("astctor", "lam", 0, 6), ("astctor", "string", 7, 13),
      ("ident", "astEvalx", 14, 22), ("ident", "letdownx", 23, 31)]),
    ("x٣ ٣ é ß x² _a a1 x''",
     [("ident", "x٣", 0, 3), ("int", 3, 4, 6), ("ident", "é", 7, 9),
      ("ident", "ß", 10, 12), ("ident", "x²", 13, 16),
      ("ident", "_a", 17, 19), ("ident", "a1", 20, 22),
      ("ident", "x''", 23, 26)]),
    ("xⅫ é'", [("ident", "xⅫ", 0, 4), ("ident", "é'", 5, 8)]),
    # strings: every escape, and multi-byte spans
    (r'"\\ \" \n \t"', [("string", '\\ " \n \t', 0, 13)]),
    ('"päron" + ü', [("string", "päron", 0, 8), ("+", "+", 9, 10),
                     ("ident", "ü", 11, 13)]),
    ('"日本" "" x', [("string", "日本", 0, 8), ("string", "", 9, 11),
                  ("ident", "x", 12, 13)]),
    # tags
    ("#str #eval #lam", [("tag", "string", 0, 4), ("tag", "eval", 5, 10),
                         ("tag", "lam", 11, 15)]),
]


def test_lexer_tokens():
    for src, tokens in TOKEN_TABLE:
        end = len(src.encode("utf-8"))
        assert lex(src) == tokens + [("eof", None, end, end)], src


LEX_ERROR_TABLE = [
    ('"a\\q"', 0, 4, "bad escape \\q"),
    ('"\\\n"', 0, 3, "bad escape \\\n"),
    ('"\\q abc', 0, 3, "bad escape \\q"),
    ('"abc', 0, 4, "unterminated string literal"),
    ('x "é', 2, 5, "unterminated string literal"),
    ('"ab\\', 0, 4, "unterminated string literal"),
    ("#nosuch", 0, 7, "unknown tag #nosuch"),
    ("#", 0, 1, "unknown tag #"),
    ("#é", 0, 3, "unknown tag #é"),
    ("1 #a'", 2, 5, "unknown tag #a'"),
    ("1\u00a0", 1, 3, "unexpected character '\\xa0'"),
    ("Ⅻ", 0, 3, "unexpected character 'Ⅻ'"),
    ("1Ⅻ", 1, 4, "unexpected character 'Ⅻ'"),
    ("Ⅻx", 0, 3, "unexpected character 'Ⅻ'"),
    ("é ½", 3, 5, "unexpected character '½'"),
    ("|", 0, 1, "unexpected character '|'"),
    ("[", 0, 1, "unexpected character '['"),
    ("]", 0, 1, "unexpected character ']'"),
    (">", 0, 1, "unexpected character '>'"),
    ("'", 0, 1, "unexpected character \"'\""),
    ("\x01", 0, 1, "unexpected character '\\x01'"),
    ("\x0b", 0, 1, "unexpected character '\\x0b'"),
    ("\ud800", 0, 3, "unexpected character '\\ud800'"),
    ("x \udfff", 2, 5, "unexpected character '\\udfff'"),
]


def test_lexer_errors():
    for src, start, end, message in LEX_ERROR_TABLE:
        with pytest.raises(ParseError) as exc:
            lex(src)
        err = exc.value
        assert ((err.span.start, err.span.end), err.message, err.expected) == (
            (start, end), message, ()), src


def test_lone_surrogate_inside_string_is_data():
    # it counts the 3 bytes surrogatepass gives it
    assert lex('"\ud800" x') == [("string", "\ud800", 0, 5),
                                  ("ident", "x", 6, 7), ("eof", None, 7, 7)]
    assert parse_term('"a\udc80"') == StrLit("a\udc80")


def test_lexer_rejects_what_int_cannot_convert():
    # str.isdigit holds for '²', but only decimal digits make a literal
    for src, start, end, message in [
        ("²", 0, 2, "unexpected character '²'"),
        ("1²", 1, 3, "unexpected character '²'"),
        ("-²", 1, 3, "unexpected character '²'"),
    ]:
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        err = exc.value
        assert ((err.span.start, err.span.end), err.message) == (
            (start, end), message), src
    # int() converts at most sys.get_int_max_str_digits() digits; a
    # literal of any length is read
    long, n = "9" * 5000, 10 ** 5000 - 1
    for src, term in [
        (long, IntLit(n)),
        ("-" + long, IntLit(-n)),
        ("x -" + long, BinOp("sub", Var("x"), IntLit(n))),
    ]:
        assert parse_term(src) == term, src[:4]


def test_token_spans_slice_their_source():
    """Every span, sliced from the UTF-8 bytes, is the token's own text."""
    rng = random.Random(3)
    classes = [
        ("ident", ["x", "f'", "_k", "é", "ß", "日本", "x٣", "naïve", "astLamé"]),
        ("int", ["0", "42", "1234567", "٣٤"]),
        ("string", ['""', '"a b"', '"ü\\n"', '"é\\""', '"日\\t\\\\"']),
        ("tag", ["#lam", "#str", "#promote"]),
        ("astctor", ["astLam", "astStr", "astPromote"]),
    ] + [(w, [w]) for w in ["let", "in", "eval", "[|", "|]", "->", "(", "-"]]
    gaps = [" ", "\t", "\r\n", " -- ü note\n", "\n-- 日\n  ", "  "]
    for _ in range(300):
        toks = [(kind, rng.choice(texts))
                for kind, texts in rng.choices(classes, k=rng.randint(1, 12))]
        src = "".join(text + rng.choice(gaps) for _, text in toks)
        data = src.encode("utf-8")
        got = lex(src)
        assert [t[0] for t in got] == [k for k, _ in toks] + ["eof"], src
        for (_, _, start, end), (_, text) in zip(got, toks):
            assert data[start:end].decode("utf-8") == text
        assert got[-1][2:] == (len(data), len(data))


### lexer, against the reference lexer

# The lexer that plain-tuple tokens replaced: one match per token class,
# whitespace and comments included, a NamedTuple and a SourceSpan per
# token, and byte offsets counted per match. It is kept as the reference
# the lexer must match token for token and error for error. Its one
# change: an integer literal is read with int_of_text, not int(), so that
# literals past int()'s digit limit are compared too. Its spellings of
# tags and AST constructors are its own maps, read off syntax.TAGS's
# records, not the lexer's syntax.TAG_OF_SPELLING.

class _RefToken(NamedTuple):
    kind: str
    value: object
    span: SourceSpan


_REF_KEYWORDS = {
    "let", "letdown", "in", "if", "then", "else", "rec",
    "true", "false", "eval", "lift",
}

_REF_AST_CTORS = {row.ast: name for name, row in TAGS.items()}
_REF_TAGS = {row.sharp: name for name, row in TAGS.items()}

_REF_OPERAND_ENDERS = frozenset(
    {"int", "string", "ident", "true", "false", "tag", ")", "|]", "}"})

_REF_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|--[^\n]*)+)
  | (?P<int>-?\d+)
  | (?P<word>[^\W\d][\w']*)
  | (?P<string>"[^"\\]*(?:\\[\\"nt][^"\\]*)*(?P<close>"|\\.|\\?\Z))
  | (?P<tag>\#[\w']*)
  | (?P<symbol>\[\||\|]|->|==|[(){},.:\\$+*=-])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


def ref_tokens(text):
    size = len if text.isascii() else (
        lambda s: len(s.encode("utf-8", "surrogatepass")))
    out = []
    end = 0
    for m in _REF_TOKEN.finditer(text):
        kind, s, start = m.lastgroup, m.group(), end
        end += size(s)
        if kind == "skip":
            continue
        if kind == "symbol" or s in _REF_KEYWORDS:
            kind = value = s
        elif kind == "word" and (s[0].isalpha() or s[0] == "_"):
            kind = "astctor" if s in _REF_AST_CTORS else "ident"
            value = _REF_AST_CTORS.get(s, s)
        elif kind == "int":
            if s[0] == "-" and out and out[-1].kind in _REF_OPERAND_ENDERS:
                out.append(_RefToken("-", "-", SourceSpan(start, start + 1)))
                s, start = s[1:], start + 1
            value = int_of_text(s)
        elif kind == "string" and m["close"] == '"':
            value = json.loads(s, strict=False)
        elif kind == "string":
            raise ParseError(SourceSpan(start, end),
                             f"bad escape {m['close']}" if len(m["close"]) == 2
                             else "unterminated string literal")
        elif kind == "tag" and s in _REF_TAGS:
            value = _REF_TAGS[s]
        elif kind == "tag":
            raise ParseError(SourceSpan(start, end), f"unknown tag {s}")
        else:
            raise ParseError(SourceSpan(start, start + size(s[0])),
                             f"unexpected character {s[0]!r}")
        out.append(_RefToken(kind, value, SourceSpan(start, end)))
    out.append(_RefToken("eof", None, SourceSpan(end, end)))
    return out


# Pieces of lexer input, joined with or without gaps: every token class,
# the pieces that meet at '-' and '--', multi-byte and surrogate text,
# long literals; and, less often, each kind of error.
LEX_PIECES = (
    "let letdown in if then else rec true false eval lift astLam astInt "
    "astEval astPromote astEvalx x f' _k a1 x٣ é ß naïve 日本 x² xⅫ "
    "0 7 42 ٣٤ -1 -x - -- -> == [| |] ( ) { } , . : \\ $ + * = "
    "#lam #str #eval #promote \"\" \"a\" \"é\\n\" \"日\\t\\\\\" "
    "\"\\\"\"").split() + [
    "\r\n", "\r", "\t", "\n", " -- ü 日本 note\n", "--", "-- c",
    '"\udc80"', "9" * 4400, "-" + "1" * 4400,
]
LEX_ERRORS = [
    "\ud800", "²", "Ⅻ", "½", "\u00a0", "'", "|", "[", ">", "\x01", "\x0b",
    '"a\\q"', '"ab', '"x\\', "#", "#nosuch", "#é",
]
LEX_GAPS = ("", "", " ", "\n", "\r\n", "\t", " -- é\n")


def test_lexer_matches_the_reference_lexer():
    rng = random.Random(11)
    errors = 0
    for _ in range(20_000):
        src = "".join(
            rng.choice(LEX_ERRORS if rng.random() < 0.05 else LEX_PIECES)
            + rng.choice(LEX_GAPS) for _ in range(rng.randint(0, 12)))
        try:
            want = [(t.kind, t.value, t.span.start, t.span.end)
                    for t in ref_tokens(src)]
        except ParseError as exc:
            want, errors = exc, errors + 1
        try:
            got = lex(src)
        except ParseError as exc:
            got = exc
        assert got == want, src
    assert 2_000 < errors < 18_000  # both outcomes are well sampled


def _or_error(read, src):
    """read(src), or its ParseError as ("error", start, end, message,
    expected)."""
    try:
        return read(src)
    except ParseError as exc:
        return "error", exc.span.start, exc.span.end, exc.message, exc.expected


def _ref_lex(src):
    return [(t.kind, t.value, t.span.start, t.span.end)
            for t in ref_tokens(src)]


def _eof(at):
    return ("eof", None, at, at)


X = ("ident", "x", 0, 1)
AT_END = ("unexpected end of input", ("a term",))

# Edge cases of one findall over the text: each source, its tokens or
# lexer error, and what parse_term makes of it.
LEX_EDGES = [
    # spaces, CR/LF or a comment before the end: exactly one eof
    ("x  ", [X, _eof(3)], Var("x")),
    ("x\r\n", [X, _eof(3)], Var("x")),
    ("x -- c", [X, _eof(6)], Var("x")),
    ("x -- c\n", [X, _eof(7)], Var("x")),
    ("x\n-- c\n  ", [X, _eof(9)], Var("x")),
    ("  ", [_eof(2)], ("error", 2, 2, *AT_END)),
    # an escaped quote, then the end; a bad escape, closed or not
    ('"a\\"', ("error", 0, 4, "unterminated string literal", ()), None),
    ('"a\\q', ("error", 0, 4, "bad escape \\q", ()), None),
    ('"a\\q"', ("error", 0, 4, "bad escape \\q", ()), None),
    # '-' before digits: split after a value, a literal after '('
    ("1 -2", [("int", 1, 0, 1), ("-", "-", 2, 3), ("int", 2, 3, 4), _eof(4)],
     BinOp("sub", IntLit(1), IntLit(2))),
    ("x -2", [X, ("-", "-", 2, 3), ("int", 2, 3, 4), _eof(4)],
     BinOp("sub", Var("x"), IntLit(2))),
    ("(-2)", [("(", "(", 0, 1), ("int", -2, 1, 3), (")", ")", 3, 4), _eof(4)],
     IntLit(-2)),
    # first characters: a name goes on with ², Arabic-Indic digits are
    # decimal, Ⅻ starts nothing, and a lone '-' is the operator
    ("x²", [("ident", "x²", 0, 3), _eof(3)], Var("x²")),
    ("٣٤", [("int", 34, 0, 4), _eof(4)], IntLit(34)),
    ("Ⅻ", ("error", 0, 3, "unexpected character 'Ⅻ'", ()), None),
    ("#nosuch", ("error", 0, 7, "unknown tag #nosuch", ()), None),
    ("-", [("-", "-", 0, 1), _eof(1)],
     ("error", 0, 1, "unexpected '-'", ("a term",))),
    ("x -", [X, ("-", "-", 2, 3), _eof(3)], ("error", 3, 3, *AT_END)),
]


@pytest.mark.parametrize("src, tokens, term", LEX_EDGES,
                         ids=[repr(src) for src, _, _ in LEX_EDGES])
def test_lexer_edge_cases(src, tokens, term):
    assert _or_error(lex, src) == _or_error(_ref_lex, src) == tokens
    # a lexer error is parse_term's error too
    assert _or_error(parse_term, src) == (tokens if term is None else term)


def test_a_tag_row_registered_after_import_lexes(pair, monkeypatch):
    # the lexer reads syntax.TAG_OF_SPELLING as it goes; the reference
    # lexer's maps, read off syntax.TAGS at import, learn the row here
    monkeypatch.setitem(_REF_AST_CTORS, "astPair", "pair")
    monkeypatch.setitem(_REF_TAGS, "#pair", "pair")
    src = "astPair(#pair, 1) #pair-1"
    assert lex(src) == _ref_lex(src) == [
        ("astctor", "pair", 0, 7), ("(", "(", 7, 8), ("tag", "pair", 8, 13),
        (",", ",", 13, 14), ("int", 1, 15, 16), (")", ")", 16, 17),
        ("tag", "pair", 18, 23), ("-", "-", 23, 24), ("int", 1, 24, 25),
        _eof(25)]


### terms

def test_parse_quote():
    assert parse_term("[| 2 + 3 |]") == UpML(BinOp("add", IntLit(2), IntLit(3)))


def test_parse_splice():
    assert parse_term("$(power 3)") == DownML(App(Var("power"), IntLit(3)))


def test_parse_typed_eval():
    got = parse_term("eval{Int->Int}(power 3)", "typed")
    assert got == Eval(App(Var("power"), IntLit(3)), Arrow(INT, INT))


def test_parse_staged_power_body():
    got = parse_term(
        "rec p n. if n == 1 then [| x |] else [| x * $(p (n-1)) |]")
    want = Rec("p", "n",
               If(BinOp("eq", Var("n"), IntLit(1)),
                  UpML(Var("x")),
                  UpML(BinOp("mul", Var("x"),
                             DownML(App(Var("p"),
                                        BinOp("sub", Var("n"), IntLit(1))))))))
    assert got == want


def test_let_is_application_sugar():
    assert parse_term("let x = 1 in x + x") == App(
        Lam("x", BinOp("add", Var("x"), Var("x"))), IntLit(1))


def test_letdown_is_a_construct():
    got = parse_term("letdown x = astInt(1) in $(x)")
    assert got == LetDown("x", mk_ast("int", IntLit(1)), DownML(Var("x")))


def test_precedence():
    assert parse_term("f 1 + g 2 * 3") == BinOp(
        "add", App(Var("f"), IntLit(1)),
        BinOp("mul", App(Var("g"), IntLit(2)), IntLit(3)))
    assert parse_term("1 + 2 == 3 - 0") == BinOp(
        "eq", BinOp("add", IntLit(1), IntLit(2)),
        BinOp("sub", IntLit(3), IntLit(0)))


def test_rightmost_operand_extends():
    got = parse_term(r"2 + \x. x")
    assert got == BinOp("add", IntLit(2), Lam("x", Var("x")))
    got = parse_term("1 + if true then 2 else 3 * 4")
    assert got == BinOp("add", IntLit(1),
                        If(BoolLit(True), IntLit(2),
                           BinOp("mul", IntLit(3), IntLit(4))))


def test_lambda_annotations():
    assert parse_term(r"\x:Int. x", "typed") == Lam("x", Var("x"), INT)
    # annotations on binders parse in either mode
    assert parse_term(r"\x:Int. x") == Lam("x", Var("x"), INT)
    got = parse_term("rec g x : Int -> Int. g x", "typed")
    assert got == Rec("g", "x", App(Var("g"), Var("x")), Arrow(INT, INT))


def test_rec_annotation_must_be_function_type():
    with pytest.raises(ParseError):
        parse_term("rec g x : Int. g x", "typed")


def test_tags():
    assert parse_term("#lam") == TagLit(Tag("lam"))
    assert parse_term("#str") == TagLit(Tag("string"))
    assert parse_term("#eval{Int}", "typed") == TagLit(Tag("eval", INT))
    with pytest.raises(ParseError):
        parse_term("#nosuch")


def test_comments_and_whitespace():
    got = parse_term("-- says hi\n 1 + -- mid\n 2\n-- trailing")
    assert got == BinOp("add", IntLit(1), IntLit(2))


def test_strings():
    assert parse_term(r'"a\nb\"c\\d"') == StrLit('a\nb"c\\d')
    with pytest.raises(ParseError):
        parse_term('"unterminated')


### eval annotation mode rules

def test_eval_requires_annotation_in_typed_mode():
    with pytest.raises(ParseError):
        parse_term("eval(astInt(3))", "typed")
    with pytest.raises(ParseError):
        parse_term("astEval(astInt(3))", "typed")
    with pytest.raises(ParseError):
        parse_term("#eval", "typed")


def test_eval_annotation_rejected_in_untyped_mode():
    with pytest.raises(ParseError):
        parse_term("eval{Int}(astInt(3))")
    with pytest.raises(ParseError):
        parse_term("astEval{Int}(astInt(3))")
    with pytest.raises(ParseError):
        parse_term("#eval{Int}")


def test_only_eval_carries_annotations():
    with pytest.raises(ParseError):
        parse_term("#lam{Int}", "typed")
    with pytest.raises(ParseError):
        parse_term("astInt{Int}(1)", "typed")


### surface arity checking

def test_ast_ctor_arity_checked_at_parse():
    with pytest.raises(ParseError) as exc:
        parse_term("astInt(1, 1)")
    assert "argument" in str(exc.value)
    with pytest.raises(ParseError):
        parse_term("astLam(astStr(\"x\"))")
    with pytest.raises(ParseError):
        parse_term("astPromote()")
    # promote excepted: any positive arity parses
    parse_term("astPromote(#int, astInt(1), astInt(1))")


### types

def test_parse_type_arrows_right_assoc():
    assert parse_type("Int -> Int -> Bool") == Arrow(INT, Arrow(INT, BOOL))
    assert parse_type("(Int -> Int) -> Bool") == Arrow(Arrow(INT, INT), BOOL)


def test_parse_type_atoms():
    assert parse_type("Code") == CODE
    assert parse_type("String") == STRING
    assert parse_type("Tag#lam") == TagType("lam")
    with pytest.raises(ParseError):
        parse_type("Float")
    with pytest.raises(ParseError):
        parse_type("Tag#oops")


### error spans and determinism

def test_spans_inside_input():
    sources = ["1 +", "astInt(1,1)", "\\x", "[| 1", "#bogus", "1 2 )", "\x01"]
    for src in sources:
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        span = exc.value.span
        assert 0 <= span.start <= span.end <= len(src.encode("utf-8"))
        assert exc.value.message


def test_span_is_byte_based():
    src = '"päron" +'
    with pytest.raises(ParseError) as exc:
        parse_term(src)
    assert exc.value.span.end <= len(src.encode("utf-8"))
    assert exc.value.span.end > len(src) - 1  # char count undercounts


# (source, mode, span, message, expected); mode None parses a type
PARSE_ERROR_TABLE = [
    ("\\1. x", "untyped", (1, 2), "unexpected '1'", ("a parameter name",)),
    ("rec 1 x. x", "untyped", (4, 5), "unexpected '1'",
     ("the function name",)),
    ("rec f . x", "untyped", (6, 7), "unexpected '.'", ("a parameter name",)),
    ("\\x x", "untyped", (3, 4), "unexpected 'x'", ("'.'",)),
    ("let x 1 in x", "untyped", (6, 7), "unexpected '1'", ("'='",)),
    ("letdown = 1 in x", "untyped", (8, 9), "unexpected '='", ("a name",)),
    ("let x = 1 then 2", "untyped", (10, 14), "unexpected 'then'", ("'in'",)),
    ("if true else 1", "untyped", (8, 12), "unexpected 'else'", ("'then'",)),
    ("if true then 1 then 2", "untyped", (15, 19), "unexpected 'then'",
     ("'else'",)),
    ("(1 in", "untyped", (3, 5), "unexpected 'in'", ("')'",)),
    ("astInt(1 2", "untyped", (10, 10), "unexpected end of input", ("')'",)),
    ("[| 1 )", "untyped", (5, 6), "unexpected ')'", ("'|]'",)),
    ("$x", "untyped", (1, 2), "unexpected 'x'", ("'('",)),
    ("lift 1", "untyped", (5, 6), "unexpected '1'", ("'('",)),
    ("eval{Int} 1", "typed", (10, 11), "unexpected '1'", ("'('",)),
    ("astInt 1", "untyped", (7, 8), "unexpected '1'", ("'('",)),
    ("eval{Int )", "typed", (9, 10), "unexpected ')'", ("'}'",)),
    ("", "untyped", (0, 0), "unexpected end of input", ("a term",)),
    ("1 + )", "untyped", (4, 5), "unexpected ')'", ("a term",)),
    ("1 )", "untyped", (2, 3), "unexpected ')'", ("end of input",)),
    ("f \\x. x", "untyped", (2, 3), "unexpected '\\\\'", ("end of input",)),
    ("\\x: 1. x", "untyped", (4, 5), "unexpected '1'", ("a type",)),
    ("\\x: Tag Int. x", "untyped", (8, 11), "unexpected 'Int'", ("a #tag",)),
    ("\\x: Float. x", "untyped", (4, 9), "unknown type name 'Float'", ()),
    ("rec f x : Int. x", "typed", (0, 3),
     "recursion annotation must be a function type", ()),
    ("astInt(1, 2)", "untyped", (0, 12), "astInt takes 1 argument(s), got 2",
     ()),
    ("astPromote()", "untyped", (0, 12),
     "astPromote takes 1 or more argument(s), got 0", ()),
    ("#lam{Int}", "typed", (4, 5), "only eval carries a type annotation", ()),
    ("astInt{Int}(1)", "typed", (6, 7),
     "only astEval carries a type annotation", ()),
    ("eval(1)", "typed", (0, 4),
     "eval requires a {Type} annotation in typed mode", ()),
    ("astEval(1)", "typed", (0, 7),
     "astEval requires a {Type} annotation in typed mode", ()),
    ("#eval", "typed", (0, 5),
     "#eval requires a {Type} annotation in typed mode", ()),
    ("eval{Int}(1)", "untyped", (4, 5),
     "eval takes no annotation in untyped mode", ()),
    ("astEval{Int}(1)", "untyped", (7, 8),
     "astEval takes no annotation in untyped mode", ()),
    ("#eval{Int}", "untyped", (5, 6),
     "#eval takes no annotation in untyped mode", ()),
    ("(Int -> Int", None, (11, 11), "unexpected end of input", ("')'",)),
    ("((Int) -> Bool", None, (14, 14), "unexpected end of input", ("')'",)),
    ("Int ->", None, (6, 6), "unexpected end of input", ("a type",)),
    (")", None, (0, 1), "unexpected ')'", ("a type",)),
    ("Int Int", None, (4, 7), "unexpected 'Int'", ("end of input",)),
]


def test_parse_errors_exact():
    for src, mode, span, message, expected in PARSE_ERROR_TABLE:
        with pytest.raises(ParseError) as exc:
            parse_type(src) if mode is None else parse_term(src, mode)
        err = exc.value
        assert ((err.span.start, err.span.end), err.message, err.expected) == (
            span, message, expected), src


@pytest.mark.parametrize("literal, found", [
    ("9" * 40, repr("9" * 40)),
    ("-" + "1" * 39, repr("-" + "1" * 39)),
    ("0" * 39 + "7", "'7'"),
    ("9" * 41, "integer literal 41 bytes long"),
    ("-" + "0" * 45, "integer literal 46 bytes long"),
    ("\u0663" * 21, "integer literal 42 bytes long"),
    ("9" * 200_000, "integer literal 200000 bytes long"),
], ids=["40", "-40", "zeros-40", "41", "-46", "arabic-indic-21", "200000"])
def test_long_integer_literal_errors_give_the_literal_length(literal, found):
    # A literal of up to 40 bytes is spelled back; a longer one is
    # described by its span, so the message stays short.
    with pytest.raises(ParseError) as exc:
        parse_term("\\" + literal + ". x")
    err = exc.value
    size = len(literal.encode("utf-8"))
    assert ((err.span.start, err.span.end), err.message, err.expected) == (
        (1, 1 + size), f"unexpected {found}", ("a parameter name",))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(SOUP), max_size=30),
       st.sampled_from(("typed", "untyped")))
def test_token_soup_parses_or_raises_parse_error(tokens, mode):
    try:
        assert isinstance(parse_term(" ".join(tokens), mode), Term)
    except ParseError:
        pass


def test_deep_nesting_parses():
    n = 100_000
    assert parse_term("(" * n + "1" + ")" * n) == IntLit(1)
    for src, cls in [("\\x. " * n + "x", Lam),
                     ("[| " * n + "x" + " |]" * n, UpML)]:
        m = parse_term(src)
        for _ in range(n):
            assert type(m) is cls, src[:20]
            m = m.children()[0]
        assert m == Var("x")
    m = parse_term("\\x: " + "(Int -> " * n + "Bool" + ")" * n + ". x", "typed")
    ty = m.annot
    for _ in range(n):
        assert ty.src == INT
        ty = ty.dst
    assert ty == BOOL


def test_parse_deterministic():
    src = r"(\x. x + 1) $(astInt(2)) == lift(3) 4 - 5"
    try:
        first = parse_term(src)
        second = parse_term(src)
        assert first == second
    except ParseError as e1:
        with pytest.raises(ParseError) as e2:
            parse_term(src)
        assert str(e1) == str(e2.value)


def test_parse_memory_does_not_depend_on_the_free_lists():
    """A token makes no object of its own, so a parse allocates the same
    memory whether or not a full collection has just emptied the
    interpreter's free lists, which serve small tuples without a traced
    allocation."""
    src = " + ".join(f"f{i} ({i} * x{i})" for i in range(400))
    peaks = []
    for collect in (False, True):
        parse_term(src)  # its tokens and tree die into the free lists
        if collect:
            gc.collect()
        tracemalloc.start()
        try:
            parse_term(src)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] * 1.05, peaks


def test_mode_validation():
    with pytest.raises(ValueError):
        parse_term("1", "strict")


def test_a_span_ends_at_or_after_its_start():
    assert SourceSpan(3, 3).end == 3
    with pytest.raises(ValueError, match="span ends before it starts"):
        SourceSpan(3, 2)


### round trip

def test_round_trip_spec_examples():
    for src in [
        "x", "astAdd(astInt(2), astInt(3))", "[| 2 + 3 |]",
        '\\x. $(astVar("x"))', "letdown v = astInt(7) in $(v)",
        "lift(2 + 3)", "rec g x. g x", "#promote",
        'astPromote(#str, astStr("x"))',
        "rec g x : Int -> Int. g (x - 1)",
    ]:
        m = parse_term(src)
        assert parse_term(pretty(m)) == m
    for src in ["eval{Int -> Int}(power 3)", "#eval{Code}",
                "astEval{Tag#lam}(astInt(1))", r"\x:(Int -> Bool). x 1"]:
        m = parse_term(src, "typed")
        assert parse_term(pretty(m), "typed") == m


def test_round_trip_integers_over_the_str_limit():
    for n in (2 ** 20000, -2 ** 20000):
        assert parse_term(pretty(IntLit(n))) == IntLit(n)


def test_round_trip_generated_terms():
    rng = random.Random(77)
    for _ in range(400):
        typed = rng.random() < 0.5
        m = gen_term(rng, depth=rng.randint(0, 5), typed=typed)
        mode = "typed" if typed else "untyped"
        printed = pretty(m)
        assert parse_term(printed, mode) == m, printed
