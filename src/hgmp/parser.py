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
Unicode decimal digits, of any length; a - right before it makes it
negative unless the token before the - ends a value. A string is
double-quoted, with the four escapes \\\\ \\" \\n and \\t. A tag is # and
the name characters after it. Any other character is an error. Tokens
are two parallel lists, of kinds and of values, read off one findall of
one regex that gives each token's text (a negative literal split after a
value is two tokens): a symbol's or keyword's text is its own kind, one
table lookup, and any other text is classified by its first character.
No token keeps its offsets: a ParseError, the lexer's own too, finds its
token's byte span again by matching the text once more.

In typed mode eval, astEval and #eval require a {Type} annotation; in
untyped mode the annotation is rejected. Surface arity of every AST
constructor is checked against the signature registry while parsing
(promote only needs one or more arguments).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from . import signature
from .syntax import (
    INT, BOOL, STRING, CODE,
    App, Arrow, AstCtor, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam,
    LetDown, Lift, Rec, StrLit, TagLit, TagType, Term, TypeExpr, UpML,
    Var, BINOPS, TAG_OF_SPELLING, TAGS, _APP,
    int_of_text, int_text, pretty_type, tag_of,
)

MODES = ("typed", "untyped")


def is_typed(mode: str) -> bool:
    """Whether mode, one of MODES, is "typed"; a ValueError otherwise."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    return mode == "typed"


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

# Tokens a value can end with: a '-' directly after one of these is the
# binary operator, otherwise '-' right before digits starts a negative
# integer literal (there is no general unary minus).
_OPERAND_ENDERS = frozenset(
    {"int", "string", "ident", "true", "false", "tag", ")", "|]", "}"})

# The token texts that are their own kind and value: the symbols, the
# keywords, and "", the end of the text.
_SYMBOLS = ("[|", "|]", "->", "==", "-", *"(){},.:\\$+*=")
_KIND_OF_TEXT = {"": "eof"} | {s: s for s in (*_SYMBOLS, *(
    "let letdown in if then else rec true false eval lift").split())}

# One match per token: spaces and comments, then the one group: a symbol
# (longest first), int, word, string, #tag, other character or the end of
# text, in turn, so every match succeeds. A '-' before digits is left to
# the int; a string stops at '"', a bad escape or the end.
_TOKEN = re.compile(r"""
    [ \t\r\n]*(?:--[^\n]*[ \t\r\n]*)*
    ( %s
    | -?\d+
    | [^\W\d][\w']*
    | "[^"\\]*(?:\\[\\"nt][^"\\]*)*(?:"|\\.|\\?\Z)
    | \#[\w']*
    | .
    | \Z )
""" % "|".join(re.escape(s) + r"(?!\d)" * (s == "-")
               for s in sorted(_SYMBOLS, key=len, reverse=True)),
    re.VERBOSE | re.DOTALL)


def _token_span(text: str, kinds: list, tok: int,
                first_char: bool = False) -> SourceSpan:
    """The UTF-8 byte span of token tok, or of its first character, found
    by matching the text again: each match is one token, but one longer
    than the "-" its kind says is two, a negative literal split after a
    value. A lone surrogate counts the 3 bytes surrogatepass gives it."""
    n = 0
    for m in _TOKEN.finditer(text):
        j, i = m.span(1)
        if n < len(kinds) and kinds[n] == "-" and i - j > 1:
            if n == tok:
                first_char = True
            else:
                n, j = n + 1, j + 1
        if n == tok:
            return SourceSpan(*(len(text[:k].encode("utf-8", "surrogatepass"))
                                for k in (j, j + 1 if first_char else i)))
        n += 1


def _tokens(text: str) -> tuple[list, list]:
    """The tokens of text, ending with "eof": kinds and values, in parallel."""
    texts = _TOKEN.findall(text)
    if len(texts) > 1 and not texts[-2]:  # after trailing spaces, eof twice
        texts.pop()
    kinds, values = [], []
    for s in texts:
        kind = _KIND_OF_TEXT.get(s)
        if kind is not None:
            value = kind
        elif (value := TAG_OF_SPELLING.get(s)) is not None:
            kind = "tag" if s[0] == "#" else "astctor"
        elif (c := s[0]).isalpha() or c == "_":
            kind, value = "ident", s
        elif c == "-" or c.isdecimal():  # \d is a Unicode decimal digit
            if c == "-" and kinds and kinds[-1] in _OPERAND_ENDERS:
                kinds.append("-")
                values.append("-")  # and the int after it
                s = s[1:]
            kind, value = "int", int_of_text(s)
        elif c == '"':
            try:  # the four escapes are JSON's; it refuses an unclosed text
                kind, value = "string", json.loads(s, strict=False)
            except ValueError:  # a bad escape: s[-1] after an odd run of \
                run = len(s) - 1 - len(s[:-1].rstrip("\\"))
                raise ParseError(_token_span(text, kinds, len(kinds)),
                                 f"bad escape {s[-2:]}"
                                 if run % 2 and s[-1] not in '\\"nt'
                                 else "unterminated string literal") from None
        elif c == "#":
            raise ParseError(_token_span(text, kinds, len(kinds)),
                             f"unknown tag {s}")
        else:  # any other character; \w also takes ² and Ⅻ, which start no name
            raise ParseError(_token_span(text, kinds, len(kinds), True),
                             f"unexpected character {c!r}")
        kinds.append(kind)
        values.append(value)
    values[-1] = None
    return kinds, values


### parser

# (level, operator) an operand's next token continues it with: app or a binop
_AFTER_OPERAND = {k: (_APP, "app") for k in (
    "ident", "int", "string", "true", "false", "tag", "astctor", "eval",
    "lift", "$", "[|", "(")} | {
        symbol: (level, op) for op, (symbol, level) in BINOPS.items()}

# the most bytes of an integer literal that an error message spells out
_SPELLED_INT = 40

_TYPE_NAMES = {pretty_type(t): t for t in (INT, BOOL, STRING, CODE)}


class _Parser:
    """Each method starts at a token index and returns the index after
    what it took; every path that reads the last token, eof, fails."""

    def __init__(self, text: str, mode: str):
        self.typed = is_typed(mode)
        self.text = text
        self.kinds, self.values = _tokens(text)

    def want(self, pos: int, kind: str, what: str) -> tuple[object, int]:
        """The value of token pos, which must be of this kind, and pos + 1."""
        if self.kinds[pos] != kind:
            self.fail(pos, what)
        return self.values[pos], pos + 1

    def span(self, tok: int) -> SourceSpan:
        return _token_span(self.text, self.kinds, tok)

    def fail(self, tok: int, *expected: str):
        kind, span = self.kinds[tok], self.span(tok)
        size = span.end - span.start
        # a long literal is described by its span: spelling it back would
        # copy every digit into the message, at a quadratic conversion
        found = ("end of input" if kind == "eof" else
                 f"integer literal {size} bytes long"
                 if kind == "int" and size > _SPELLED_INT else
                 repr(self._spelling(tok)))
        raise ParseError(span, f"unexpected {found}", expected)

    def _spelling(self, tok: int) -> str:
        # a keyword's or symbol's value is itself
        kind, value = self.kinds[tok], self.values[tok]
        return (int_text(value) if kind == "int" else
                TAGS[value].ast if kind == "astctor" else
                TAGS[value].sharp if kind == "tag" else value)

    ### terms

    def term(self, pos: int) -> tuple[Term, int]:
        """A term, parsed in one loop over an explicit stack.

        Each frame on the stack waits for a subterm. An operator frame
        (level, name, lhs) waits for its right operand; application is
        the operator "app". A construct frame (-1, name, ...) is a
        binder, an open bracket, or one stage of let, letdown or if,
        waiting for its next part; no operator reduces it, so an
        operator chain inside a construct ends at the construct.
        """
        kinds, values = self.kinds, self.values
        stack: list[tuple] = [(-1, "top")]  # "top" takes the whole term
        while True:
            # a term starts here: push the constructs that open it, up to
            # its first atom
            tok, pos = pos, pos + 1
            kind = kinds[tok]
            if kind == "ident":
                m = Var(values[tok])
            elif kind == "int":
                m = IntLit(values[tok])
            elif kind == "(" or kind == "if" or kind == "[|":
                stack.append((-1, kind))
                continue
            elif kind == "\\":
                param, pos = self.want(pos, "ident", "a parameter name")
                annot, pos = self._binder_annot(tok, pos)
                stack.append((-1, kind, param, annot))
                continue
            elif kind == "let" or kind == "letdown":
                name, pos = self.want(pos, "ident", "a name")
                _, pos = self.want(pos, "=", "'='")
                stack.append((-1, kind, name))
                continue
            elif kind == "string":
                m = StrLit(values[tok])
            elif kind == "true" or kind == "false":
                m = BoolLit(kind == "true")
            elif kind == "tag":
                annot, pos = self._eval_annot(tok, pos)
                m = TagLit(tag_of(values[tok], annot))
            elif kind == "rec":
                name, pos = self.want(pos, "ident", "the function name")
                param, pos = self.want(pos, "ident", "a parameter name")
                annot, pos = self._binder_annot(tok, pos)
                stack.append((-1, kind, name, param, annot))
                continue
            elif kind == "eval" or kind == "lift" or kind == "$":
                annot, pos = (self._eval_annot(tok, pos) if kind == "eval"
                              else (None, pos))
                _, pos = self.want(pos, "(", "'('")
                stack.append((-1, kind, annot))
                continue
            elif kind == "astctor":
                annot, pos = self._eval_annot(tok, pos)
                _, pos = self.want(pos, "(", "'('")
                if kinds[pos] != ")":
                    stack.append((-1, kind, tok, annot, []))
                    continue
                m, pos = self._ast_ctor(tok, annot, [], pos)
            else:
                self.fail(tok, "a term")
            while True:
                # m is an operand: the operators before it that bind at
                # least as tightly as the token after it take it
                level, op = _AFTER_OPERAND.get(kinds[pos], (0, None))
                while stack[-1][0] >= level:
                    _, name, lhs = stack.pop()
                    m = App(lhs, m) if name == "app" else BinOp(name, lhs, m)
                if op is not None:
                    if op != "app":
                        pos += 1
                    stack.append((level, op, m))
                    break
                # m is a whole term: the construct waiting for it takes it
                frame = stack.pop()
                name = frame[1]
                if name == "(":
                    _, pos = self.want(pos, ")", "')'")
                elif name == "\\":
                    m = Lam(frame[2], m, frame[3])
                elif name == "let" or name == "letdown":
                    _, pos = self.want(pos, "in", "'in'")
                    stack.append((-1, name + " in", frame[2], m))
                    break
                elif name == "let in":
                    m = App(Lam(frame[2], m), frame[3])
                elif name == "if":
                    _, pos = self.want(pos, "then", "'then'")
                    stack.append((-1, "then", m))
                    break
                elif name == "then":
                    _, pos = self.want(pos, "else", "'else'")
                    stack.append((-1, "else", frame[2], m))
                    break
                elif name == "else":
                    m = If(frame[2], frame[3], m)
                elif name == "[|":
                    _, pos = self.want(pos, "|]", "'|]'")
                    m = UpML(m)
                elif name == "$" or name == "lift" or name == "eval":
                    _, pos = self.want(pos, ")", "')'")
                    m = (DownML(m) if name == "$" else Lift(m)
                         if name == "lift" else Eval(m, frame[2]))
                elif name == "astctor":
                    frame[4].append(m)
                    if kinds[pos] == ",":
                        stack.append(frame)
                        pos += 1
                        break
                    m, pos = self._ast_ctor(frame[2], frame[3], frame[4], pos)
                elif name == "letdown in":
                    m = LetDown(frame[2], frame[3], m)
                elif name == "rec":
                    m = Rec(frame[2], frame[3], m, frame[4])
                else:  # "top"
                    return m, pos

    def _binder_annot(self, tok: int, pos: int) -> tuple[TypeExpr | None, int]:
        """The optional `: T` and the `.` after a binder's names."""
        annot = None
        if self.kinds[pos] == ":":
            annot, pos = self.type_expr(pos + 1)
            if self.kinds[tok] == "rec" and not isinstance(annot, Arrow):
                raise ParseError(self.span(tok),
                                 "recursion annotation must be a function type")
        _, pos = self.want(pos, ".", "'.'")
        return annot, pos

    def _eval_annot(self, tok: int, pos: int) -> tuple[TypeExpr | None, int]:
        """The {Type} after eval, astEval or #eval: required in typed mode,
        rejected in untyped mode and after any other tag or constructor."""
        brace = self.kinds[pos] == "{"
        if self.values[tok] != "eval":
            if brace:
                ctor = "astEval" if self.kinds[tok] == "astctor" else "eval"
                raise ParseError(self.span(pos),
                                 f"only {ctor} carries a type annotation")
            return None, pos
        name = self._spelling(tok)
        if self.typed:
            if not brace:
                raise ParseError(self.span(tok),
                                 f"{name} requires a {{Type}} annotation in typed mode")
            annot, pos = self.type_expr(pos + 1)
            _, pos = self.want(pos, "}", "'}'")
            return annot, pos
        if brace:
            raise ParseError(self.span(pos),
                             f"{name} takes no annotation in untyped mode")
        return None, pos

    def _ast_ctor(self, tok: int, annot: TypeExpr | None,
                  args: list[Term], pos: int) -> tuple[Term, int]:
        """The AST constructor tok(args), once its ')' is token pos."""
        _, after = self.want(pos, ")", "')'")
        if not signature.check_arity(self.values[tok], len(args)):
            wanted = signature.arity_text(self.values[tok])
            raise ParseError(
                SourceSpan(self.span(tok).start, self.span(pos).end),
                f"{self._spelling(tok)} takes {wanted} argument(s), got {len(args)}")
        return AstCtor(tag_of(self.values[tok], annot), tuple(args)), after

    ### types

    def type_expr(self, pos: int) -> tuple[TypeExpr, int]:
        """A type; arrows associate to the right. The stack holds each
        domain waiting for its codomain, and None for each open '('."""
        kinds = self.kinds
        stack: list[TypeExpr | None] = []
        while True:
            tok, pos = pos, pos + 1
            name = self.values[tok]
            if kinds[tok] == "(":
                stack.append(None)
                continue
            if kinds[tok] != "ident":
                self.fail(tok, "a type")
            if name in _TYPE_NAMES:
                ty = _TYPE_NAMES[name]
            elif name == "Tag":
                tag, pos = self.want(pos, "tag", "a #tag")
                ty = TagType(tag)
            else:
                raise ParseError(self.span(tok),
                                 f"unknown type name {name!r}")
            while kinds[pos] != "->":
                while stack and stack[-1] is not None:
                    ty = Arrow(stack.pop(), ty)
                if not stack:
                    return ty, pos
                _, pos = self.want(pos, ")", "')'")
                stack.pop()
            pos += 1
            stack.append(ty)

    def finish(self, pos: int):
        if self.kinds[pos] != "eof":
            self.fail(pos, "end of input")


def parse_term(text: str, mode: str = "untyped") -> Term:
    """Parse a complete term; raises ParseError with a byte span on failure."""
    parser = _Parser(text, mode)
    term, pos = parser.term(0)
    parser.finish(pos)
    return term


def parse_type(text: str) -> TypeExpr:
    parser = _Parser(text, "typed")
    ty, pos = parser.type_expr(0)
    parser.finish(pos)
    return ty
