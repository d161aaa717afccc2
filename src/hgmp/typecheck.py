"""Monotyped checking with unification-based inference.

Checking is interspersed with reduction rather than done upfront: splice
bodies must have type Code, the compiled residual is checked as a whole,
and each eval re-checks the code it is about to run against its
annotation. Inference is monomorphic (no generalisation); it exists
because compiled-in lambdas built from astLam carry no annotations.

Inference unifies in one fixed order, and each unification names a term
and which side is found: the order decides which mismatch is reported
and how it reads, so inference skips only unifications that cannot fail.
Each rule unifies a child's type in its own frame: the checker takes a
Python frame a level (two where an AST constructor starts), as ct does.

An environment maps variable names to types: any mapping, or None for
the empty one. A binder extends it into a new dict, so an inner binder
hides an outer one of the same name.
"""

from __future__ import annotations

import itertools
import sys
from collections.abc import Mapping
from types import MappingProxyType

from . import signature
from .syntax import (
    BOOL, CODE, COMPILE_TIME, INT, STRING,
    App, Arrow, AstCtor, BinOp, BoolLit, Eval, If, IntLit, Lam, Lift,
    MetaVar, Rec, StrLit, TAGS, TagLit, TagType, Term, TypeExpr, Var,
    pretty, pretty_type,
)

class TypeErrorDetail(Exception):
    """A rejected program, with enough detail to say why and where."""

    def __init__(self, message: str, *, kind: str = "mismatch",
                 expected: TypeExpr | None = None,
                 found: TypeExpr | None = None,
                 at: Term | None = None,
                 phase: str = "residual check"):
        super().__init__(message)
        self.message = message
        # mismatch | unbound | arity | ambiguous | malformed | depth
        self.kind = kind
        self.expected = expected
        self.found = found
        self.at = at
        self.phase = phase

    def describe(self) -> str:
        """The message with the offending term and the phase, unprefixed."""
        s = self.message
        if self.at is not None:
            s += f" at `{pretty(self.at)}`"
        return f"{s} ({self.phase})"

    def __str__(self):
        return f"error[type]: {self.describe()}"


EMPTY_ENV = MappingProxyType({})  # no variable is typed

# Each literal's type, which lift takes; and by tag, the atom an AST
# constructor for a variable or a literal wraps.
_LIT_TYPE = {IntLit: INT, StrLit: STRING, BoolLit: BOOL}
_ATOM_TYPE = {"var": STRING, **{c.ctor: ty for c, ty in _LIT_TYPE.items()}}


class _Engine:
    def __init__(self, phase: str):
        self.phase = phase
        self.solution: dict[int, TypeExpr] = {}
        self._fresh = itertools.count()

    def fresh(self) -> MetaVar:
        return MetaVar(next(self._fresh))

    def prune(self, t: TypeExpr) -> TypeExpr:
        """Follow solved meta-variables one level."""
        while type(t) is MetaVar and t.ident in self.solution:
            t = self.solution[t.ident]
        return t

    def resolve(self, t: TypeExpr) -> TypeExpr:
        t = self.prune(t)
        if isinstance(t, Arrow):
            return Arrow(self.resolve(t.src), self.resolve(t.dst))
        return t

    def _occurs(self, ident: int | None, t: TypeExpr) -> bool:
        """Whether meta-variable ident (any, when None) occurs in t."""
        t = self.prune(t)
        if isinstance(t, MetaVar):
            return ident is None or t.ident == ident
        if isinstance(t, Arrow):
            return self._occurs(ident, t.src) or self._occurs(ident, t.dst)
        return False

    def unify(self, found: TypeExpr, expected: TypeExpr,
              at: Term | None = None):
        if found is expected:
            return
        found = self.prune(found)
        expected = self.prune(expected)
        if found is expected or found == expected:  # INT etc. are shared
            return
        if isinstance(found, MetaVar):
            if self._occurs(found.ident, expected):
                raise TypeErrorDetail(
                    "infinite type", kind="mismatch", at=at, phase=self.phase)
            self.solution[found.ident] = expected
            return
        if isinstance(expected, MetaVar):
            self.unify(expected, found, at)
            return
        if isinstance(found, Arrow) and isinstance(expected, Arrow):
            self.unify(found.src, expected.src, at)
            self.unify(found.dst, expected.dst, at)
            return
        holes: dict[int, str] = {}
        raise TypeErrorDetail(
            f"expected {pretty_type(self.resolve(expected), holes=holes)}, "
            f"found {pretty_type(self.resolve(found), holes=holes)}",
            kind="mismatch", expected=self.resolve(expected),
            found=self.resolve(found), at=at, phase=self.phase)

    ### inference proper

    def infer(self, env: Mapping[str, TypeExpr], m: Term) -> TypeExpr:
        # The commonest classes first, each tested by identity.
        cls = type(m)
        if cls is BinOp:
            self.unify(self.infer(env, m.lhs), INT, m.lhs)
            self.unify(self.infer(env, m.rhs), INT, m.rhs)
            return BOOL if m.op == "eq" else INT
        if cls is Var:
            ty = env.get(m.name)
            if ty is None:
                raise TypeErrorDetail(f"unbound variable {m.name}",
                                      kind="unbound", at=m, phase=self.phase)
            return ty
        if cls in _LIT_TYPE:
            return _LIT_TYPE[cls]
        if cls is App:
            fn_ty = self.infer(env, m.fn)
            arg_ty = self.infer(env, m.arg)
            fn_ty = self.prune(fn_ty)  # inferring arg may have solved it
            if type(fn_ty) is Arrow:
                # What unifying with Arrow(arg_ty, fresh) would do, but
                # for the fresh variable, which would only alias dst.
                self.unify(fn_ty.src, arg_ty, at=m)
                return fn_ty.dst
            res = self.fresh()
            self.unify(fn_ty, Arrow(arg_ty, res), at=m)
            return res
        if cls is Lam:
            arg_ty = m.annot if m.annot is not None else self.fresh()
            return Arrow(arg_ty, self.infer({**env, m.param: arg_ty}, m.body))
        if cls is If:
            self.unify(self.infer(env, m.cond), BOOL, m.cond)
            then_ty = self.infer(env, m.then)
            self.unify(self.infer(env, m.orelse), then_ty, m)
            return then_ty
        match m:
            case TagLit(tag):
                return TagType(tag.name)
            case Rec(self_name, param, body, annot):
                fn_ty = (annot if annot is not None
                         else Arrow(self.fresh(), self.fresh()))
                # Of a repeated name (rec f f.) the parameter wins.
                env = {**env, self_name: fn_ty, param: fn_ty.src}
                self.unify(self.infer(env, body), fn_ty.dst, m)
                return fn_ty
            case Eval(body, annot):
                if annot is None:
                    raise TypeErrorDetail(
                        "eval without a type annotation cannot be checked",
                        kind="malformed", at=m, phase=self.phase)
                self.unify(self.infer(env, body), CODE, body)
                return annot
            case Lift(body):
                ty = self.resolve(self.infer(env, body))
                if ty in _LIT_TYPE.values():
                    return CODE
                if isinstance(ty, MetaVar):
                    raise TypeErrorDetail(
                        "cannot tell whether the lifted value is an Int, "
                        "String or Bool", kind="ambiguous", at=m,
                        phase=self.phase)
                raise TypeErrorDetail(
                    f"lift applies to Int, String or Bool, found "
                    f"{pretty_type(ty, holes={})}", kind="mismatch",
                    found=ty, at=m, phase=self.phase)
            case AstCtor(tag, args):
                return self._infer_ast(env, m, tag.name, args)
        if type(m) in COMPILE_TIME:
            raise TypeErrorDetail(
                "compile-time constructs cannot be typed",
                kind="malformed", at=m, phase=self.phase)
        raise TypeError(f"not a Term: {m!r}")

    def _infer_ast(self, env: Mapping[str, TypeExpr], m: Term, name: str,
                   args: tuple[Term, ...]) -> TypeExpr:
        row, count = TAGS[name], len(args)
        # A fixed arity is one comparison; check_arity decides the rest.
        if count != row.arity and not signature.check_arity(name, count):
            raise TypeErrorDetail(
                f"AST constructor for {name} takes "
                f"{signature.arity_text(name)} argument(s), "
                f"got {count}", kind="arity", at=m, phase=self.phase)
        atom_ty = _ATOM_TYPE.get(name)
        if atom_ty is not None:  # a literal of that type needs no inference
            if _LIT_TYPE.get(type(args[0])) is not atom_ty:
                self.unify(self.infer(env, args[0]), atom_ty, args[0])
            return CODE
        if name == "promote":
            head = self.resolve(self.infer(env, args[0]))
            if isinstance(head, MetaVar):
                raise TypeErrorDetail(
                    "cannot tell which tag astPromote promotes",
                    kind="ambiguous", at=args[0], phase=self.phase)
            if not isinstance(head, TagType):
                raise TypeErrorDetail(
                    f"first argument of astPromote must be a tag, found "
                    f"{pretty_type(head, holes={})}", kind="mismatch",
                    found=head, at=args[0], phase=self.phase)
            rest = args[1:]
            if head.tag == "promote":
                # A promoted promote names the tag it rebuilds in second
                # position; without one its conversion down has no rule.
                if len(args) < 2:
                    raise TypeErrorDetail(
                        "promoted astPromote needs a tag in second position",
                        kind="arity", at=m, phase=self.phase)
                second = self.resolve(self.infer(env, args[1]))
                if not isinstance(second, TagType):
                    raise TypeErrorDetail(
                        "second argument of a promoted astPromote must be "
                        f"a tag, found {pretty_type(second, holes={})}",
                        kind="mismatch", found=second, at=args[1],
                        phase=self.phase)
                rest = args[2:]
            # Remaining children are Code, except that tag values may
            # ride along one level.
            for a in rest:
                if type(a) is AstCtor:
                    self._infer_ast(env, a, a.tag.name, a.args)
                    continue
                ty = self.resolve(self.infer(env, a))
                if isinstance(ty, TagType):
                    continue
                self.unify(ty, CODE, at=a)
            return CODE
        n_binders = len(row.cls.binds)
        for binder in args[:n_binders]:
            # Binder slots must literally be astStr(..): a computed
            # binder could not be named statically.
            match binder:
                case AstCtor(tag, (inner,)) if tag.name == "string":
                    self.unify(self.infer(env, inner), STRING, inner)
                case _:
                    raise TypeErrorDetail(
                        f"binder argument of ast constructor for {name} "
                        "must be an astStr(..)", kind="mismatch",
                        at=binder, phase=self.phase)
        # The arguments after the binders are code.
        for a in args[n_binders:]:
            if type(a) is AstCtor:
                self._infer_ast(env, a, a.tag.name, a.args)
            else:
                self.unify(self.infer(env, a), CODE, a)
        return CODE


def infer_open(env: Mapping[str, TypeExpr] | None, m: Term,
               phase: str = "residual check") -> TypeExpr:
    """Inference under env without the ambiguity gate; the result may
    contain unresolved meta-variables. Mostly for tests and diagnostics."""
    eng = _Engine(phase)
    return eng.resolve(eng.infer(env or EMPTY_ENV, m))


def _solve(env: Mapping[str, TypeExpr] | None, m: Term, phase: str,
           expected: TypeExpr | None = None) -> TypeExpr:
    """m's type, unified with expected when one is given. A type that
    still contains meta-variables after solving is reported as ambiguous
    rather than silently defaulted. A term nested deeper than the
    recursion limit lets the checker go is a TypeErrorDetail of kind
    depth, which names no term: printing one that deep could overflow."""
    eng = _Engine(phase)
    try:
        ty = eng.infer(env or EMPTY_ENV, m)
        if expected is not None:
            eng.unify(ty, expected, at=m)
        ty = eng.resolve(ty)
    except RecursionError:
        raise TypeErrorDetail(
            "term nested deeper than the recursion limit "
            f"({sys.getrecursionlimit()}) allows", kind="depth",
            phase=phase) from None
    if eng._occurs(None, ty):
        raise TypeErrorDetail(
            f"ambiguous type {pretty_type(ty, holes={})}",
            kind="ambiguous", at=m, phase=phase)
    return ty


def infer(env: Mapping[str, TypeExpr] | None, m: Term,
          phase: str = "residual check") -> TypeExpr:
    """Principal monomorphic type of m under env, or a TypeErrorDetail."""
    return _solve(env, m, phase)


def check(env: Mapping[str, TypeExpr] | None, m: Term, expected: TypeExpr,
          phase: str = "residual check") -> None:
    """Infer m's type under env, unify it with expected; raises on failure."""
    _solve(env, m, phase, expected)


def unify(a: TypeExpr, b: TypeExpr) -> dict[int, TypeExpr] | None:
    """Most general unifier of two types as a meta-variable assignment,
    or None when they clash (or a meta-variable would become infinite)."""
    eng = _Engine("residual check")
    try:
        eng.unify(a, b)
    except TypeErrorDetail:
        return None
    return {ident: eng.resolve(MetaVar(ident)) for ident in eng.solution}
