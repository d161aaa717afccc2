"""Term language: the lambda core plus every meta-programming construct.

Terms are immutable; every operation here is pure. The same Term type is
the value universe for all four reduction relations, so AST-constructor
nodes are ordinary data (structurally variadic -- malformed arities like
astInt(1, 1) must be representable so later stages can reject them).
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter, is_
from typing import NamedTuple

from . import signature


### nodes

def node(cls):
    """Class decorator: cls as a frozen, slotted dataclass whose __init__
    sets each field's slot through that slot's descriptor.

    A frozen dataclass's own __init__ assigns each field with
    object.__setattr__, which costs about three times a call of the slot
    descriptor's __set__, and a quoted program builds tens of thousands
    of nodes. As dataclasses does, the __init__ is written as source: the
    fields in order, each with its default, then __post_init__ when the
    class has one. Immutability, ==, hash, repr and __match_args__ are
    the dataclass's own."""
    cls = dataclass(frozen=True, slots=True)(cls)
    ns, params, body = {}, [], []
    for f in fields(cls):
        ns["_set_" + f.name] = getattr(cls, f.name).__set__
        params.append(f.name)
        if f.default is not MISSING:
            ns["_default_" + f.name] = f.default
            params[-1] += "=_default_" + f.name
        body.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n "
         + "\n ".join(body), ns)
    cls.__init__ = ns["__init__"]
    cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return cls


### types

class TypeExpr:
    """Base for static types: a base type (Int, Bool, String or Code),
    Tag#t, an arrow, or an inference-only meta-variable."""

    __slots__ = ()


@node
class BaseType(TypeExpr):
    name: str


@node
class TagType(TypeExpr):
    tag: str

    def __post_init__(self):
        _known_tag(self.tag)


@node
class Arrow(TypeExpr):
    src: TypeExpr
    dst: TypeExpr


@node
class MetaVar(TypeExpr):
    """Inference-only placeholder; never part of a reported type."""

    ident: int


INT = BaseType("Int")
BOOL = BaseType("Bool")
STRING = BaseType("String")
CODE = BaseType("Code")


def pretty_type(t: TypeExpr, prec: int = 0,
                holes: dict[int, str] | None = None) -> str:
    """t's text, an arrow in parentheses when prec is above 0. A hole
    prints as ?n; given holes, which maps the holes already named and is
    shared across calls, as a, b, .., z, then a1, a2, .. in order of
    appearance, so that no raw meta-variable reaches a message."""
    match t:
        case BaseType(name):
            return name
        case TagType(tag):
            return "Tag" + TAGS[tag].sharp
        case Arrow(src, dst):
            s = (f"{pretty_type(src, 1, holes)} -> "
                 f"{pretty_type(dst, 0, holes)}")
            return f"({s})" if prec > 0 else s
        case MetaVar(ident):
            if holes is None:
                return f"?{ident}"
            if ident not in holes:
                fresh = len(holes)
                holes[ident] = (chr(ord("a") + fresh) if fresh < 26
                                else f"a{fresh - 25}")
            return holes[ident]
    raise TypeError(f"not a TypeExpr: {t!r}")


### tags

@node
class Tag:
    """First-class constructor name. The eval tag carries the result-type
    annotation in typed pipelines (eval's AST mirror has no extra slot)."""

    name: str
    eval_annot: TypeExpr | None = None

    def __post_init__(self):
        _known_tag(self.name)
        if self.eval_annot is not None and self.name != "eval":
            raise ValueError("only the eval tag carries a type annotation")


def _known_tag(name: str):
    if name not in TAGS:
        raise ValueError(f"unknown tag name: {name!r}")


class TagRow(NamedTuple):
    """A tagged signature row's record in TAGS: what the parser, pretty,
    the tag checks, ul, dl and the checker read of the tag."""

    sharp: str  # the tag literal's spelling: #str for the row "string"
    ast: str  # the AST constructor's spelling: astStr
    tag: Tag  # the tag without an annotation, one shared value
    cls: type | None  # the Term class _shape attaches; None for promote
    arity: int | None  # the row's; None when variadic


TAGS: dict[str, TagRow] = {}  # by row name
TAG_OF_SPELLING: dict[str, str] = {}  # #str and astStr to "string"


def _register_tag(spec: signature.CtorSpec, cls: type | None):
    """Enter a tagged row in TAGS and its #t and astT in TAG_OF_SPELLING."""
    sharp, ast = "#" + spec.tag, "ast" + spec.tag.capitalize()
    TAGS[spec.name] = row = TagRow(sharp, ast, None, cls, spec.arity)
    TAGS[spec.name] = row._replace(tag=Tag(spec.name))  # Tag reads TAGS
    TAG_OF_SPELLING[sharp] = TAG_OF_SPELLING[ast] = spec.name


### terms

class Term:
    """A term, with one uniform view of its shape.

    @_shape attaches a class to its signature row (`ctor`) and names the
    fields holding the row's arguments, in order. The row's binder
    positions make the leading ones `binds`, the fields holding bound
    names, which bound_names() reads; the rest are `kids`, which
    children() reads and rebuild() replaces; a binder class also has
    rebind(names, kids), which replaces both. Any other field (an
    annotation, an operator) is data that rebuild and rebind keep. Both
    return the node itself when nothing would change, so a term that a
    traversal leaves alone stays one object. The generic traversals
    below (free variables, substitution, alpha-equivalence), the JSON
    encoding and the congruence rules of ct, ul and dl read nothing
    else.
    """

    __slots__ = ()
    ctor: str | None = None  # AstCtor and TagLit have no row of their own
    binds: tuple[str, ...] = ()
    kids: tuple[str, ...] = ()

    def children(self) -> tuple[Term, ...]:
        return ()

    def bound_names(self) -> tuple[str, ...]:
        return ()

    def rebuild(self, kids) -> Term:
        """This node with its children replaced, in order: the node
        itself when each new child is the old child object."""
        return self

    def ast_tag(self) -> Tag:
        """The tag of this node's AST one meta-level up (shared)."""
        return TAGS[self.ctor].tag

    @classmethod
    def from_ast(cls, tag: Tag, args: list) -> Term:
        """The node an AST tagged `tag` denotes, from its arguments one
        level down: bound names as strings, then the children."""
        return cls(*args)


def _reader(names):
    """A function reading the named fields of a term, as a tuple."""
    if not names:
        return lambda m: ()
    get = attrgetter(*names)  # one name reads a bare value
    return (lambda m: (get(m),)) if len(names) == 1 else lambda m: get(m)


def _shape(rows: str | tuple[str, ...], *args: str):
    """Class decorator attaching a Term class to its signature row(s);
    args name the fields holding the row's arguments (leaves, whose one
    argument is an atom, name none)."""
    def attach(cls):
        names = (rows,) if isinstance(rows, str) else rows
        # The rows one class stands for (the binops) bind alike.
        (bound,) = {len(signature.lookup(r).binders) for r in names}
        cls.binds, cls.kids = args[:bound], args[bound:]
        cls.bound_names = _reader(cls.binds)
        if cls.kids:
            # The children are consecutive fields; rebuild passes the
            # fields around them through the constructor unchanged.
            order = [f.name for f in fields(cls)]
            start = order.index(cls.kids[0])
            end = start + len(cls.kids)
            assert tuple(order[start:end]) == cls.kids
            before, after = _reader(order[:start]), _reader(order[end:])
            children = cls.children = _reader(cls.kids)

            def rebuild(m, kids):
                if all(map(is_, kids, children(m))):
                    return m
                return cls(*before(m), *kids, *after(m))
            cls.rebuild = rebuild
        if cls.binds:
            # The bound names are the fields just before the children.
            first = start - len(cls.binds)
            assert tuple(order[first:start]) == cls.binds
            ahead = _reader(order[:first])

            def rebind(m, names, kids):
                if tuple(names) == cls.bound_names(m):  # rebuild keeps them
                    return rebuild(m, kids)
                return cls(*ahead(m), *names, *kids, *after(m))
            cls.rebind = rebind
        if isinstance(rows, str):
            cls.ctor = rows
        for spec in map(signature.lookup, names):
            if spec.tag is not None:
                _register_tag(spec, cls)
        return cls
    return attach


@_shape("var")
@node
class Var(Term):
    name: str


@_shape("app", "fn", "arg")
@node
class App(Term):
    fn: Term
    arg: Term


@_shape("lam", "param", "body")
@node
class Lam(Term):
    param: str
    body: Term
    annot: TypeExpr | None = None


@_shape("rec", "self_name", "param", "body")
@node
class Rec(Term):
    """Recursive function; self_name is bound to the whole function in body."""

    self_name: str
    param: str
    body: Term
    annot: Arrow | None = None


def _host_typed(lit):
    """A literal's __post_init__: its value must be exactly of its
    class's host type, which HOST_LITERAL sets."""
    if type(lit.value) is not lit.host:
        raise ValueError(f"{type(lit).__name__} value must be "
                         f"{lit.host.__name__}, "
                         f"got {type(lit.value).__name__}")


@_shape("int")
@node
class IntLit(Term):
    value: int
    __post_init__ = _host_typed


@_shape("string")
@node
class StrLit(Term):
    value: str
    __post_init__ = _host_typed


@_shape("bool")
@node
class BoolLit(Term):
    value: bool
    __post_init__ = _host_typed


# Binding levels, for the parser and pretty: application binds tightest,
# then * then +/- then ==; a whole term binds loosest, an atom tightest.
_TERM, _EQ, _ADD, _MUL, _APP, _ATOM = range(6)
# The binary operators by row name: each one's symbol and binding level.
BINOPS = {"add": ("+", _ADD), "sub": ("-", _ADD), "mul": ("*", _MUL),
          "eq": ("==", _EQ)}


@_shape(tuple(BINOPS), "lhs", "rhs")
@node
class BinOp(Term):
    op: str
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if self.op not in BINOPS:
            raise ValueError(f"unknown operator: {self.op!r}")

    @property
    def ctor(self) -> str:
        return self.op

    @classmethod
    def from_ast(cls, tag: Tag, args: list) -> Term:
        return cls(tag.name, *args)


@_shape("if", "cond", "then", "orelse")
@node
class If(Term):
    cond: Term
    then: Term
    orelse: Term


@node
class AstCtor(Term):
    tag: Tag
    args: tuple[Term, ...]

    def children(self) -> tuple[Term, ...]:
        return self.args

    def rebuild(self, kids) -> Term:
        if all(map(is_, kids, self.args)):
            return self
        return AstCtor(self.tag, tuple(kids))


@node
class TagLit(Term):
    tag: Tag


@_shape("downML", "body")
@node
class DownML(Term):
    """Splice $(e): run at compile time, replaced by the code it returns."""

    body: Term


@_shape("upML", "body")
@node
class UpML(Term):
    """Quote [| e |]: compile-time expansion of e into AST constructors."""

    body: Term


@_shape("eval", "body")
@node
class Eval(Term):
    """Run-time code execution; annot is the declared result type (typed mode)."""

    body: Term
    annot: TypeExpr | None = None

    def ast_tag(self) -> Tag:
        return tag_of("eval", self.annot)

    @classmethod
    def from_ast(cls, tag: Tag, args: list) -> Term:
        return cls(*args, tag.eval_annot)


@_shape("lift", "body")
@node
class Lift(Term):
    body: Term


@_shape("letdown", "name", "bound", "body")
@node
class LetDown(Term):
    """Compile-time let: bound value is visible inside splices in body."""

    name: str
    bound: Term
    body: Term


_register_tag(signature.lookup("promote"), None)
HOST_LITERAL = {int: IntLit, bool: BoolLit, str: StrLit}  # by the value's type
for _host, _lit in HOST_LITERAL.items():
    _lit.host = _host
LEAVES = frozenset({*HOST_LITERAL.values(), TagLit})  # no children


def tag_of(name: str, annot: TypeExpr | None = None) -> Tag:
    """The tag named name with annot: without one, the shared plain tag."""
    row = TAGS.get(name)
    return row.tag if row is not None and annot is None else Tag(name, annot)


def mk_ast(tag_name: str, *args: Term, annot: TypeExpr | None = None) -> AstCtor:
    return AstCtor(tag_of(tag_name, annot), tuple(args))


### free variables

_UNBIND = object()  # on free_vars' stack: the binder's names lie under it


def free_vars(m: Term) -> set[str]:
    """Variables occurring outside any binder for them; strings inside AST
    constructors are data. A binder binds its names in all its children (a
    LetDown's bound term too, as subst does). The walk is top-down on one
    stack: `bound` counts the binders of each name around the node at hand,
    and a binder's names, pushed under its children with a private marker
    on top, unbind them after. A child that is no Term is a TypeError."""
    out, bound, stack = set(), {}, [m]
    try:
        while stack:
            m = stack.pop()
            if type(m) is Var:
                if not bound.get(m.name):
                    out.add(m.name)
            elif m is _UNBIND:  # a binder's children are done
                for x in stack.pop():
                    bound[x] -= 1
            else:
                if m.binds:
                    stack.append(names := m.bound_names())
                    stack.append(_UNBIND)
                    for x in names:
                        bound[x] = bound.get(x, 0) + 1
                stack.extend(m.children())
    except AttributeError:  # no binds, or no children
        raise TypeError(f"not a Term: {m!r}") from None
    return out


### substitution

def subst(m: Term, n: Term, x: str) -> Term:
    """Capture-avoiding substitution m{n/x} of the one value n.

    Pushes unchanged through splices, quotes, lift and eval. Every binder
    is handled alike, from its signature row: a binder of x shadows it in
    all the node's children (a LetDown's bound term too). Where x is free
    in its children, a bound name free in n is first renamed to its first
    primed variant outside the free variables of n and of the children,
    and its names."""
    if m.binds:
        return _subst_binder(m, n, x)
    if type(m) is Var:
        return n if m.name == x else m
    kids = m.children()
    if not kids:
        return m
    # A variable or leaf child is substituted here, without a call.
    return m.rebuild([(n if k.name == x else k) if type(k) is Var
                      else k if type(k) in LEAVES else subst(k, n, x)
                      for k in kids])


def _subst_binder(m: Term, n: Term, x: str) -> Term:
    names = m.bound_names()
    if x in names:
        return m
    kids = m.children()
    fv_n = free_vars(n)
    if not fv_n.isdisjoint(names):
        fv_kids = set().union(*map(free_vars, kids))
        if x not in fv_kids:
            return m
        avoid = fv_n | fv_kids | set(names)  # fv_kids holds x
        names = list(names)
        # Each to its first free primed variant, innermost binder
        # first: of a repeated name (rec f f.) the last one owns the uses.
        for i in reversed(range(len(names))):
            if names[i] in fv_n:
                renamed = names[i] + "'"
                while renamed in avoid:
                    renamed += "'"
                avoid.add(renamed)
                kids = [subst(k, Var(renamed), names[i]) for k in kids]
                names[i] = renamed
    return m.rebind(names, [subst(k, n, x) for k in kids])


### alpha equivalence

def alpha_eq(a: Term, b: Term) -> bool:
    """Equality up to consistent renaming of bound variables.

    Names inside AST constructors are string data and compare literally.
    Binder type annotations are inference hints and are ignored; eval
    annotations change run-time behaviour and are compared.
    """
    return _alpha(a, b, {}, {}, 0)


def _alpha(a: Term, b: Term, env_a: dict, env_b: dict, depth: int) -> bool:
    if type(a) is not type(b):
        return False
    if type(a) is Var:
        x, y = a.name, b.name
        return env_a.get(x, ("free", x)) == env_b.get(y, ("free", y))
    kids_a, kids_b = a.children(), b.children()
    if a.binds:
        # Bound name i sits at depth + i (a repeated name takes the last
        # binder's); binder annotations are ignored.
        env_a = {**env_a, **{v: depth + i
                             for i, v in enumerate(a.bound_names())}}
        env_b = {**env_b, **{v: depth + i
                             for i, v in enumerate(b.bound_names())}}
        depth += len(a.binds)
    elif a.rebuild([None] * len(kids_a)) != b.rebuild([None] * len(kids_b)):
        # Any other constructor holds equal data once the children are
        # blanked out (operator, tag, literal, eval annotation, arity).
        return False
    return all(_alpha(u, v, env_a, env_b, depth)
               for u, v in zip(kids_a, kids_b))


### meta-level-free check

def is_ml_free(m: Term) -> bool:
    """True iff no splice, quote or compile-time let remains anywhere in m.

    Evals survive compilation on purpose, so they do not count.
    """
    if isinstance(m, (DownML, UpML, LetDown)):
        return False
    return all(is_ml_free(k) for k in m.children())


### pretty-printing

# The lexer reads these four escapes; pretty writes them back.
_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n",
                          "\t": "\\t"})


def _escape(s: str) -> str:
    return s.translate(_ESCAPES)


# No limit that sys.set_int_max_str_digits accepts is below this many digits.
_SAFE_DIGITS = sys.int_info.str_digits_check_threshold


def int_text(n: int) -> str:
    """The decimal text of the integer n, whatever its size. str(n) refuses
    more digits than sys.get_int_max_str_digits() (4300 by default); past
    that, n is split at a power of ten and each part converted alike."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + int_text(-n)
    half = n.bit_length() * 3 // 20  # about half of n's decimal digits
    high, low = divmod(n, 10 ** half)
    return int_text(high) + int_text(low).zfill(half)


def int_of_text(text: str) -> int:
    """The integer a decimal numeral spells, whatever its length: int_text
    read back. int(text) refuses as many digits as str(n) does."""
    if len(text) <= _SAFE_DIGITS:
        return int(text)
    if text[0] == "-":
        return -int_of_text(text[1:])
    half = len(text) // 2
    return int_of_text(text[:-half]) * 10 ** half + int_of_text(text[-half:])


def _eval_annot(annot: TypeExpr | None) -> str:
    """The {T} after eval, astEval or #eval; nothing when annot is None."""
    return "" if annot is None else "{" + pretty_type(annot) + "}"


def pretty(m: Term) -> str:
    """Concrete syntax for m; parsing it back yields m structurally.

    Each distinct term object in m is laid out once per call; every other
    occurrence of it reuses that text."""
    return _pp(m, _TERM, {})


def printer():
    """pretty with one memo across its calls, for one render of many
    terms that share subterms: each distinct term object is laid out once.
    Every term printed must stay alive while the printer is in use, as
    the memo is keyed by object identity."""
    memo = {}
    return lambda m: _pp(m, _TERM, memo)


def _pp(m: Term, prec: int, memo: dict) -> str:
    """m's text where the context binds at prec: its layout, in
    parentheses when prec is above the level m binds at. memo maps
    id(term) to the term's (layout, level), so that a term is laid out
    once however often it occurs."""
    key = id(m)
    laid = memo.get(key)
    if laid is None:
        match m:  # the commonest classes first
            case App(fn, arg):
                laid = (f"{_pp(fn, _APP, memo)} {_pp(arg, _ATOM, memo)}",
                        _APP)
            case BinOp(op, lhs, rhs):
                symbol, level = BINOPS[op]
                laid = (f"{_pp(lhs, level, memo)} {symbol} "
                        f"{_pp(rhs, level + 1, memo)}", level)
            case If(cond, then, orelse):
                laid = (f"if {_pp(cond, _TERM, memo)} "
                        f"then {_pp(then, _TERM, memo)} "
                        f"else {_pp(orelse, _TERM, memo)}", _TERM)
            case Var(name):
                laid = name, _ATOM
            case IntLit(value):
                # A negative literal binds like a term, not an atom: printed
                # bare after an identifier it would lex as a subtraction.
                laid = int_text(value), _TERM if value < 0 else _ATOM
            case StrLit(value):
                laid = f'"{_escape(value)}"', _ATOM
            case BoolLit(value):
                laid = "true" if value else "false", _ATOM
            case TagLit(tag):
                laid = (TAGS[tag.name].sharp + _eval_annot(tag.eval_annot),
                        _ATOM)
            case AstCtor(tag, args):
                head = TAGS[tag.name].ast + _eval_annot(tag.eval_annot)
                laid = (head + "(" + ", ".join([_pp(a, _TERM, memo)
                                                for a in args]) + ")", _ATOM)
            case DownML(body):
                laid = "$(" + _pp(body, _TERM, memo) + ")", _ATOM
            case UpML(body):
                laid = "[| " + _pp(body, _TERM, memo) + " |]", _ATOM
            case Eval(body, annot):
                laid = ("eval" + _eval_annot(annot) + "("
                        + _pp(body, _TERM, memo) + ")", _ATOM)
            case Lift(body):
                laid = "lift(" + _pp(body, _TERM, memo) + ")", _ATOM
            case Lam(param, body, annot):
                head = (f"\\{param}" if annot is None
                        else f"\\{param}:{pretty_type(annot)}")
                laid = f"{head}. {_pp(body, _TERM, memo)}", _TERM
            case Rec(self_name, param, body, annot):
                head = f"rec {self_name} {param}"
                if annot is not None:
                    head += f" : {pretty_type(annot)}"
                laid = f"{head}. {_pp(body, _TERM, memo)}", _TERM
            case LetDown(name, bound, body):
                laid = (f"letdown {name} = {_pp(bound, _TERM, memo)} "
                        f"in {_pp(body, _TERM, memo)}", _TERM)
            case _:
                raise TypeError(f"not a Term: {m!r}")
        memo[key] = laid
    text, level = laid
    return f"({text})" if prec > level else text
