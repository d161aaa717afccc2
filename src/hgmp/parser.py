"""Concrete syntax for terms and types.

Notation: splice $(e); quote [| e |]; lambda \\x. e (typed \\x:T. e);
recursion rec g x. e (typed rec g x : T -> U . e); let x = e1 in e2 is
sugar for (\\x. e2) e1; letdown x = e1 in e2 is the compile-time let.
Tags are #var .. #promote, AST constructors astVar(..) .. astPromote(..).
Application binds tighter than *, which binds tighter than + and -, which
bind tighter than ==; all left-associative. Binder bodies and the
rightmost operand of an operator chain extend maximally to the right.

Lexical classes: space, tab, CR and LF separate tokens, and -- starts a
comment that runs to the end of the line. A name starts with a letter
(str.isalpha) or an underscore, and goes on with letters and digits
(str.isalnum), underscores and primes. An integer literal is a run of
Unicode decimal digits; a - right before it makes it negative unless the
token before the - ends a value. A string is double-quoted, with the four
escapes \\\\ \\" \\n and \\t. A tag is # and the name characters after it.
Any other character is an error.

In typed mode eval, astEval and #eval require a {Type} annotation; in
untyped mode the annotation is rejected. Surface arity of every AST
constructor is checked against the signature registry while parsing
(promote only needs one or more arguments).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import NamedTuple

from . import signature
from .syntax import (
    INT, BOOL, STRING, CODE,
    App, Arrow, AstCtor, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam,
    LetDown, Lift, Rec, StrLit, Tag, TagLit, TagType, Term, TypeExpr, UpML,
    Var, AST_CTOR_OF_TAG, SURFACE_OF_TAG, TAG_OF_AST_CTOR, TAG_OF_SURFACE,
)

MODES = ("typed", "untyped")


@dataclass(frozen=True)
class SourceSpan:
    start: int  # byte offset, inclusive
    end: int  # byte offset, exclusive

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError("span ends before it starts")


@dataclass
class ParseError(Exception):
    span: SourceSpan
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self):
        s = f"parse error at bytes {self.span.start}..{self.span.end}: {self.message}"
        if self.expected:
            s += " (expected " + " or ".join(self.expected) + ")"
        return s


### lexer

_KEYWORDS = {
    "let", "letdown", "in", "if", "then", "else", "rec",
    "true", "false", "eval", "lift",
}

# Tokens a value can end with: a '-' directly after one of these is the
# binary operator, otherwise '-' right before digits starts a negative
# integer literal (there is no general unary minus).
_OPERAND_ENDERS = frozenset(
    {"int", "string", "ident", "true", "false", "tag", ")", "|]", "}"})

# One alternative per token class, tried in order; "other" takes any one
# character, so the matches cover the text end to end.
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]+|--[^\n]*)+)
  | (?P<int>-?\d+)
  | (?P<word>[^\W\d][\w']*)
  | (?P<string>"[^"\\]*(?:\\[\\"nt][^"\\]*)*(?P<close>"|\\.|\\?\Z))
  | (?P<tag>\#[\w']*)
  | (?P<symbol>\[\||\|]|->|==|[(){},.:\\$+*=-])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)


class _Token(NamedTuple):
    kind: str
    value: object
    span: SourceSpan


def _tokens(text: str) -> list[_Token]:
    """The tokens of text, ending with "eof"; spans are UTF-8 byte offsets."""
    # surrogatepass: a lone surrogate counts its 3 bytes, not a crash
    size = len if text.isascii() else (
        lambda s: len(s.encode("utf-8", "surrogatepass")))
    out: list[_Token] = []
    end = 0
    for m in _TOKEN.finditer(text):
        kind, s, start = m.lastgroup, m.group(), end
        end += size(s)
        if kind == "skip":
            continue
        if kind == "symbol" or s in _KEYWORDS:
            kind = value = s
        elif kind == "word" and (s[0].isalpha() or s[0] == "_"):
            kind = "astctor" if s in TAG_OF_AST_CTOR else "ident"
            value = TAG_OF_AST_CTOR.get(s, s)
        elif kind == "int":
            if s[0] == "-" and out and out[-1].kind in _OPERAND_ENDERS:
                out.append(_Token("-", "-", SourceSpan(start, start + 1)))
                s, start = s[1:], start + 1
            try:
                value = int(s)
            except ValueError:  # more digits than int() converts
                raise ParseError(SourceSpan(start, end),
                                 "integer literal too long") from None
        elif kind == "string" and m["close"] == '"':
            value = json.loads(s, strict=False)  # the four escapes are JSON's
        elif kind == "string":  # stopped at a bad escape or the end of text
            raise ParseError(SourceSpan(start, end),
                             f"bad escape {m['close']}" if len(m["close"]) == 2
                             else "unterminated string literal")
        elif kind == "tag" and s[1:] in TAG_OF_SURFACE:
            value = TAG_OF_SURFACE[s[1:]]
        elif kind == "tag":
            raise ParseError(SourceSpan(start, end), f"unknown tag {s}")
        else:  # any other character; \w also takes ² and Ⅻ, which start no name
            raise ParseError(SourceSpan(start, start + size(s[0])),
                             f"unexpected character {s[0]!r}")
        out.append(_Token(kind, value, SourceSpan(start, end)))
    out.append(_Token("eof", None, SourceSpan(end, end)))
    return out


### parser

_TERM_STARTERS = ("\\", "rec", "let", "letdown", "if")
_ATOM_STARTERS = ("ident", "int", "string", "true", "false", "tag",
                  "astctor", "eval", "lift", "$", "[|", "(")

_TYPE_NAMES = {"Int": INT, "Bool": BOOL, "String": STRING, "Code": CODE}


class _Parser:
    def __init__(self, text: str, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.tokens = _tokens(text)
        self.pos = 0
        self.typed = mode == "typed"

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok, what or repr(kind))
        return self.take()

    def fail(self, tok: _Token, *expected: str):
        found = "end of input" if tok.kind == "eof" else repr(
            self._spelling(tok))
        raise ParseError(tok.span, f"unexpected {found}", expected)

    @staticmethod
    def _spelling(tok: _Token) -> str:
        if tok.kind in ("ident", "int", "string"):
            return str(tok.value)
        if tok.kind == "astctor":
            return AST_CTOR_OF_TAG[tok.value]
        if tok.kind == "tag":
            return "#" + SURFACE_OF_TAG[tok.value]
        return str(tok.kind)

    ### terms

    def term(self) -> Term:
        kind = self.peek().kind
        if kind == "\\":
            return self._lambda()
        if kind == "rec":
            return self._rec()
        if kind == "let":
            return self._let()
        if kind == "letdown":
            return self._letdown()
        if kind == "if":
            return self._if()
        return self._binop(0)

    def _lambda(self) -> Term:
        self.take()
        param = self.expect("ident", "a parameter name").value
        annot = None
        if self.peek().kind == ":":
            self.take()
            annot = self.type_expr()
        self.expect(".", "'.'")
        return Lam(param, self.term(), annot)

    def _rec(self) -> Term:
        tok = self.take()
        self_name = self.expect("ident", "the function name").value
        param = self.expect("ident", "a parameter name").value
        annot = None
        if self.peek().kind == ":":
            self.take()
            annot = self.type_expr()
            if not isinstance(annot, Arrow):
                raise ParseError(tok.span,
                                 "recursion annotation must be a function type")
        self.expect(".", "'.'")
        return Rec(self_name, param, self.term(), annot)

    def _let(self) -> Term:
        name, bound, body = self._binding()
        return App(Lam(name, body), bound)

    def _letdown(self) -> Term:
        return LetDown(*self._binding())

    def _binding(self) -> tuple[str, Term, Term]:
        """The `name = e1 in e2` after let or letdown."""
        self.take()
        name = self.expect("ident", "a name").value
        self.expect("=", "'='")
        bound = self.term()
        self.expect("in", "'in'")
        return name, bound, self.term()

    def _if(self) -> Term:
        self.take()
        cond = self.term()
        self.expect("then", "'then'")
        then = self.term()
        self.expect("else", "'else'")
        orelse = self.term()
        return If(cond, then, orelse)

    # operator levels, loosest first; each entry is (ops, handedness handled
    # uniformly: left-associative, rightmost operand may be a full term)
    _LEVELS = ((("==",), {"==": "eq"}),
               (("+", "-"), {"+": "add", "-": "sub"}),
               (("*",), {"*": "mul"}))

    def _binop(self, level: int) -> Term:
        if level == len(self._LEVELS):
            return self._application()
        ops, names = self._LEVELS[level]
        lhs = self._binop(level + 1)
        while self.peek().kind in ops:
            op = names[self.take().kind]
            if self.peek().kind in _TERM_STARTERS:
                return BinOp(op, lhs, self.term())
            lhs = BinOp(op, lhs, self._binop(level + 1))
        return lhs

    def _application(self) -> Term:
        fn = self._atom()
        while self.peek().kind in _ATOM_STARTERS:
            fn = App(fn, self._atom())
        return fn

    def _atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "ident":
            return Var(self.take().value)
        if tok.kind == "int":
            return IntLit(self.take().value)
        if tok.kind == "string":
            return StrLit(self.take().value)
        if tok.kind in ("true", "false"):
            return BoolLit(self.take().kind == "true")
        if tok.kind == "tag":
            self.take()
            return TagLit(Tag(tok.value, self._eval_annot(tok)))
        if tok.kind == "astctor":
            return self._ast_ctor()
        if tok.kind == "eval":
            self.take()
            annot = self._eval_annot(tok, construct="eval")
            return Eval(self._parenthesised(), annot)
        if tok.kind == "lift":
            self.take()
            return Lift(self._parenthesised())
        if tok.kind == "$":
            self.take()
            return DownML(self._parenthesised())
        if tok.kind == "[|":
            self.take()
            body = self.term()
            self.expect("|]", "'|]'")
            return UpML(body)
        if tok.kind == "(":
            return self._parenthesised()
        self.fail(tok, "a term")

    def _parenthesised(self) -> Term:
        self.expect("(", "'('")
        body = self.term()
        self.expect(")", "')'")
        return body

    def _eval_annot(self, tok: _Token, construct: str | None = None
                    ) -> TypeExpr | None:
        """Annotation handling shared by eval, astEval and #eval."""
        name = construct or ("#eval" if tok.value == "eval" else None)
        if name is None:
            if self.peek().kind == "{":
                raise ParseError(self.peek().span,
                                 "only eval carries a type annotation")
            return None
        if self.typed:
            if self.peek().kind != "{":
                raise ParseError(tok.span,
                                 f"{name} requires a {{Type}} annotation in typed mode")
            self.take()
            annot = self.type_expr()
            self.expect("}", "'}'")
            return annot
        if self.peek().kind == "{":
            raise ParseError(self.peek().span,
                             f"{name} takes no annotation in untyped mode")
        return None

    def _ast_ctor(self) -> Term:
        tok = self.take()
        tag_name = tok.value
        annot = None
        if tag_name == "eval":
            annot = self._eval_annot(tok, construct="astEval")
        elif self.peek().kind == "{":
            raise ParseError(self.peek().span,
                             "only astEval carries a type annotation")
        self.expect("(", "'('")
        args = []
        if self.peek().kind != ")":
            args.append(self.term())
            while self.peek().kind == ",":
                self.take()
                args.append(self.term())
        close = self.expect(")", "')'")
        if not signature.check_arity(tag_name, len(args)):
            spec = signature.lookup(tag_name)
            wanted = "1 or more" if spec.arity is None else str(spec.arity)
            raise ParseError(
                SourceSpan(tok.span.start, close.span.end),
                f"{self._spelling(tok)} takes {wanted} argument(s), got {len(args)}")
        return AstCtor(Tag(tag_name, annot), tuple(args))

    ### types

    def type_expr(self) -> TypeExpr:
        lhs = self._type_atom()
        if self.peek().kind == "->":
            self.take()
            return Arrow(lhs, self.type_expr())
        return lhs

    def _type_atom(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind == "ident":
            if tok.value in _TYPE_NAMES:
                self.take()
                return _TYPE_NAMES[tok.value]
            if tok.value == "Tag":
                self.take()
                tag = self.expect("tag", "a #tag")
                return TagType(tag.value)
            raise ParseError(tok.span, f"unknown type name {tok.value!r}")
        if tok.kind == "(":
            self.take()
            ty = self.type_expr()
            self.expect(")", "')'")
            return ty
        self.fail(tok, "a type")

    def finish(self):
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(tok, "end of input")


def parse_term(text: str, mode: str = "untyped") -> Term:
    """Parse a complete term; raises ParseError with a byte span on failure."""
    parser = _Parser(text, mode)
    term = parser.term()
    parser.finish()
    return term


def parse_type(text: str) -> TypeExpr:
    parser = _Parser(text, "typed")
    ty = parser.type_expr()
    parser.finish()
    return ty
