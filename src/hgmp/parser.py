"""Concrete syntax for terms and types.

Notation: splice $(e); quote [| e |]; lambda \\x. e (typed \\x:T. e);
recursion rec g x. e (typed rec g x : T -> U . e); let x = e1 in e2 is
sugar for (\\x. e2) e1; letdown x = e1 in e2 is the compile-time let.
Tags are #var .. #promote, AST constructors astVar(..) .. astPromote(..).
Application binds tighter than *, which binds tighter than + and -, which
bind tighter than ==; all left-associative. Binder bodies and the
rightmost operand of an operator chain extend maximally to the right.
Terms and types are parsed in loops over explicit stacks, so nesting
depth costs no recursion.

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

_ATOM_STARTERS = frozenset({"ident", "int", "string", "true", "false", "tag",
                            "astctor", "eval", "lift", "$", "[|", "("})

# binary operators: binding level, loosest first, and name; application,
# at level 3, binds tighter than all of them
_BINOPS = {"==": (0, "eq"), "+": (1, "add"), "-": (1, "sub"), "*": (2, "mul")}

_TYPE_NAMES = {"Int": INT, "Bool": BOOL, "String": STRING, "Code": CODE}


class _Parser:
    def __init__(self, text: str, mode: str):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.tokens = _tokens(text)
        self.pos = 0
        self.typed = mode == "typed"

    def peek(self) -> _Token:
        return self.tokens[self.pos]  # take() stops at eof, the last token

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
        """A term, parsed in one loop over an explicit stack.

        Each frame on the stack waits for a subterm. An operator frame
        (level, name, lhs) waits for its right operand; application is
        the operator "app". A construct frame (-1, kind, ...) is a
        binder, let, letdown or if waiting for its next part, or an open
        bracket waiting for its term and closer; no operator reduces it,
        so an operator chain inside a construct ends at the construct.
        """
        stack: list[tuple] = [(-1, "top")]  # "top" takes the whole term
        while True:
            # a term starts here: push the constructs that open it, up to
            # its first atom
            tok = self.take()
            kind = tok.kind
            if kind == "ident":
                m = Var(tok.value)
            elif kind == "int":
                m = IntLit(tok.value)
            elif kind == "string":
                m = StrLit(tok.value)
            elif kind == "true" or kind == "false":
                m = BoolLit(kind == "true")
            elif kind == "tag":
                m = TagLit(Tag(tok.value, self._eval_annot(tok)))
            elif kind == "\\":
                param = self.expect("ident", "a parameter name").value
                stack.append((-1, kind, param, self._binder_annot(tok)))
                continue
            elif kind == "rec":
                name = self.expect("ident", "the function name").value
                param = self.expect("ident", "a parameter name").value
                stack.append((-1, kind, name, param, self._binder_annot(tok)))
                continue
            elif kind == "let" or kind == "letdown":
                name = self.expect("ident", "a name").value
                self.expect("=", "'='")
                stack.append((-1, kind, name))
                continue
            elif kind == "if" or kind == "(" or kind == "[|":
                stack.append((-1, kind))
                continue
            elif kind == "eval" or kind == "lift" or kind == "$":
                annot = self._eval_annot(tok) if kind == "eval" else None
                self.expect("(", "'('")
                stack.append((-1, kind, annot))
                continue
            elif kind == "astctor":
                annot = self._eval_annot(tok)
                self.expect("(", "'('")
                if self.peek().kind != ")":
                    stack.append((-1, kind, tok, annot, []))
                    continue
                m = self._ast_ctor(tok, annot, [])
            else:
                self.fail(tok, "a term")
            while True:
                # m is an operand: the operators before it that bind at
                # least as tightly as the token after it take it
                kind = self.peek().kind
                if kind in _ATOM_STARTERS:
                    level, op = 3, "app"
                else:
                    level, op = _BINOPS.get(kind, (0, None))
                while stack[-1][0] >= level:
                    _, name, lhs = stack.pop()
                    m = App(lhs, m) if name == "app" else BinOp(name, lhs, m)
                if op is not None:
                    if op != "app":
                        self.take()
                    stack.append((level, op, m))
                    break
                # m is a whole term: the construct waiting for it takes it
                match stack.pop():
                    case (_, "top"):
                        return m
                    case (_, "\\", param, annot):
                        m = Lam(param, m, annot)
                    case (_, "rec", name, param, annot):
                        m = Rec(name, param, m, annot)
                    case (_, "let" | "letdown" as kind, name):
                        self.expect("in", "'in'")
                        stack.append((-1, kind, name, m))
                        break
                    case (_, "let", name, bound):
                        m = App(Lam(name, m), bound)
                    case (_, "letdown", name, bound):
                        m = LetDown(name, bound, m)
                    case (_, "if"):
                        self.expect("then", "'then'")
                        stack.append((-1, "if", m))
                        break
                    case (_, "if", cond):
                        self.expect("else", "'else'")
                        stack.append((-1, "if", cond, m))
                        break
                    case (_, "if", cond, then):
                        m = If(cond, then, m)
                    case (_, "("):
                        self.expect(")", "')'")
                    case (_, "[|"):
                        self.expect("|]", "'|]'")
                        m = UpML(m)
                    case (_, "$" | "lift" as kind, _):
                        self.expect(")", "')'")
                        m = DownML(m) if kind == "$" else Lift(m)
                    case (_, "eval", annot):
                        self.expect(")", "')'")
                        m = Eval(m, annot)
                    case (_, "astctor", tok, annot, args) as frame:
                        args.append(m)
                        if self.peek().kind == ",":
                            self.take()
                            stack.append(frame)
                            break
                        m = self._ast_ctor(tok, annot, args)

    def _binder_annot(self, tok: _Token) -> TypeExpr | None:
        """The optional `: T` and the `.` after a binder's names."""
        annot = None
        if self.peek().kind == ":":
            self.take()
            annot = self.type_expr()
            if tok.kind == "rec" and not isinstance(annot, Arrow):
                raise ParseError(tok.span,
                                 "recursion annotation must be a function type")
        self.expect(".", "'.'")
        return annot

    def _eval_annot(self, tok: _Token) -> TypeExpr | None:
        """The {Type} after eval, astEval or #eval: required in typed mode,
        rejected in untyped mode and after any other tag or constructor."""
        if tok.value != "eval":
            if self.peek().kind == "{":
                ctor = "astEval" if tok.kind == "astctor" else "eval"
                raise ParseError(self.peek().span,
                                 f"only {ctor} carries a type annotation")
            return None
        name = {"eval": "eval", "astctor": "astEval", "tag": "#eval"}[tok.kind]
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

    def _ast_ctor(self, tok: _Token, annot: TypeExpr | None,
                  args: list[Term]) -> Term:
        """The AST constructor tok(args), once its ')' is next."""
        close = self.expect(")", "')'")
        if not signature.check_arity(tok.value, len(args)):
            spec = signature.lookup(tok.value)
            wanted = "1 or more" if spec.arity is None else str(spec.arity)
            raise ParseError(
                SourceSpan(tok.span.start, close.span.end),
                f"{self._spelling(tok)} takes {wanted} argument(s), got {len(args)}")
        return AstCtor(Tag(tok.value, annot), tuple(args))

    ### types

    def type_expr(self) -> TypeExpr:
        """A type; arrows associate to the right. The stack holds each
        domain waiting for its codomain, and None for each open '('."""
        stack: list[TypeExpr | None] = []
        while True:
            tok = self.take()
            if tok.kind == "(":
                stack.append(None)
                continue
            if tok.kind != "ident":
                self.fail(tok, "a type")
            if tok.value in _TYPE_NAMES:
                ty = _TYPE_NAMES[tok.value]
            elif tok.value == "Tag":
                ty = TagType(self.expect("tag", "a #tag").value)
            else:
                raise ParseError(tok.span, f"unknown type name {tok.value!r}")
            while self.peek().kind != "->":
                while stack and stack[-1] is not None:
                    ty = Arrow(stack.pop(), ty)
                if not stack:
                    return ty
                self.expect(")", "')'")
                stack.pop()
            self.take()
            stack.append(ty)

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
