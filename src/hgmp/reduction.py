"""The four big-step relations and the two-phase pipeline.

ct compiles: it sweeps a term, expanding quotes (via ul) and executing
splices (whose results are converted down via dl), and leaves everything
else alone. dl turns an AST value into the program it denotes. ul turns
ordinary syntax into its AST representation. rt is call-by-value
execution extended with AST values, eval, lift and promoted ASTs.

Every rule application burns one unit from a shared fuel budget, so
divergence surfaces as a distinct FuelExhausted outcome rather than a
hang. A relation returns only its output. A traced run also records
derivations, whose rule names follow the conventional bracketed names
for these relations: a rule's premises are the derivations of the
sub-evaluations it ran, in the order they ran, collected on one trail.

rt has two evaluators with the same values, errors and fuel. `_rt` is the
reference: call-by-value with capture-avoiding substitution, dispatched
on the node's class, commonest first. It runs every traced run, because
derivations show substituted terms. A traced run runs each
application's body once per function and argument (an equal literal,
or the same other value), recorded once it has run: a repeat spends
the fuel that run spent and returns its value and Derivation object.
A leaf, a rule with no premises (a type check too), is one Derivation
per rule, term and output object in a traced run of any relation,
though each occurrence still spends its unit. So a trace is a DAG read
as a tree, and the renderers write each repeated derivation once, a
leaf in one step.
`_machine`, an environment machine, runs every untraced rt (the
pipeline's, eval_rt's, and ct's for splices and letdown), open terms
and the open code eval builds included. A function evaluates to a
closure, and integers, booleans and strings are host values (Python
ints, bools and strs), so arithmetic builds no term. Values are read
back wherever the reference would hold a term (a result, an AST
argument, eval's input to dl, lift, an error's offending term): a host
value is boxed into its literal, and a closure is read back by
replaying the substitutions the reference made, one value at a time,
so a binder renamed to avoid capture gets the same primes. On both
evaluators, an AST whose arguments all run to themselves is returned as
the node it was. A leaf operand (a variable bound to a value that is not
an AST, or an integer literal) and an operator on two integer leaves are
evaluated inside the step that consumes them, with no call of their own
(fused operands, in the manner of Proebsting's superoperators), and so
is an AST constructor's argument that is a literal, a tag or an atom (an
AST of one such leaf, as astInt(3)). ct and dl likewise take a leaf child
(for ct a variable, literal or tag, for dl an atom) in the parent's step,
leaving the derivation its own call would.

rt is deterministic, so the machine shares repeats too, as memo
functions: a closure keeps the value of its application to an integer,
boolean or string that returns one of these, with the fuel the body
spent. A repeat with that fuel left spends it and returns the value;
with less, the body runs again and runs out on the term a fresh run
names. A closure's table is made at its first application that returns
such a value, and stores only applications that begin once it is made,
so a chain of distinct calls stores nothing while fib stores each value
it meets again, and the table is emptied when it is full (see _machine).
"""

from __future__ import annotations

import json
import operator
import os
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

from .syntax import (
    HOST_LITERAL, LEAVES, TAGS,
    App, AstCtor, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam, LetDown,
    Lift, Rec, StrLit, TagLit, Term, TypeExpr, UpML, Var,
    free_vars, int_of_text, int_text, mk_ast, node, pretty, pretty_type,
    printer, subst,
)
from . import typecheck
from .parser import is_typed
from .typecheck import CODE, EMPTY_ENV, TypeErrorDetail

DEFAULT_FUEL = 100_000


@node
class Derivation:
    """One rule application: premises in left-to-right rule order.

    Derivations are immutable and may be shared: a traced rt run returns
    one object for every application of a function to an argument it has
    run before, and a traced run of any relation one object for every
    leaf (a rule with no premises, a type check too) on the same rule,
    term and output objects. A shared premise still counts, costs fuel
    and is rendered at each place it occurs, as in a tree."""

    rule: str
    relation: str  # ct | dl | ul | rt | type
    term_in: Term
    term_out: object  # Term, or TypeExpr for relation "type"
    premises: tuple["Derivation", ...] = ()


class EvalError(Exception):
    STUCK = "Stuck"
    FUEL = "FuelExhausted"
    TYPE = "TypeError"

    def __init__(self, kind: str, phase: str, offending: Term | None,
                 message: str, detail: TypeErrorDetail | None = None):
        super().__init__(message)
        self.kind = kind
        self.phase = phase
        self.offending = offending
        self.message = message
        self.detail = detail

    def __str__(self):
        s = f"error[{self.phase}]: {self.kind}: {self.message}"
        if self.offending is not None:
            s += f"\n  at: {pretty(self.offending)}"
        return s


class _Run:
    """Per-run state: fuel budget, pipeline mode, trace switch, trail and,
    in bodies, what a traced run shares: its applications (keyed by the
    function and argument, stored once its body has run, see _rt's App)
    and its leaves (keyed by rule, term and output, see _d). spend says
    where on the trail a rule's premises start; in a traced run each
    sub-evaluation the rule runs leaves its derivation there, in the
    order it runs, and _d replaces them with the rule's own. Exceptions
    are never caught inside a run, so a partial trail dies with its run."""

    __slots__ = ("remaining", "typed", "trace", "bodies", "trail")

    def __init__(self, fuel: int, typed: bool, trace: bool):
        self.remaining = fuel
        self.typed = typed
        self.trace = trace
        self.bodies = {}
        self.trail = []

    def spend(self, phase: str, term: Term) -> int:
        self.remaining -= 1
        if self.remaining < 0:
            raise EvalError(EvalError.FUEL, phase, term,
                            "rule application budget exhausted")
        return len(self.trail)


def _stuck(phase: str, term: Term, message: str):
    raise EvalError(EvalError.STUCK, phase, term, message)


def _d(run: _Run, at: int, rule: str | None, relation: str, m: Term, out):
    """out, the result of a rule about m whose premises start at trail
    position at. A traced run first replaces them with the rule's
    Derivation. A rule of None is named after the constructor of the side
    that is not an AST (the output, for dl), from _RULE_NAMES: `App ct`,
    or a bare `Add` in rt. A leaf, a rule with no premises (a Type check
    too), is one Derivation per rule, term and output object in a run,
    kept in run.bodies under (rule, id(m), id(out)); the Derivation
    holds both, so the ids stay valid."""
    if run.trace:
        if rule is None:
            named = out if relation == "dl" else m
            ctor = named.ctor
            if ctor is None:  # an AST value: a promote, or any other
                ctor = "promote" if named.tag.name == "promote" else None
            rule = _RULE_NAMES[ctor, relation]
        trail = run.trail
        if at == len(trail):  # a leaf
            key = rule, id(m), id(out)
            d = run.bodies.get(key)
            if d is None:
                d = run.bodies[key] = Derivation(rule, relation, m, out)
            trail.append(d)
        else:
            trail[at:] = [Derivation(rule, relation, m, out,
                                     tuple(trail[at:]))]
    return out


class _RuleNames(dict):
    """The names of the rules named after a constructor: by its row and
    the relation, and an AST value's by whether it is a promote
    ("promote") or not (None). The row, not the class: BinOp stands for
    four rows. Each is made when first asked for, so a row registered
    later has names too. Interned: every node holds one."""

    def __missing__(self, key):
        ctor, relation = key
        stem = "Ast_c" if ctor is None else ctor.capitalize()
        name = self[key] = sys.intern(stem if relation == "rt"
                                      else f"{stem} {relation}")
        return name


_RULE_NAMES = _RuleNames()
# Leaf rules, which each relation's dispatch reads: ct's by class; ul's
# by class, with the plain tag of the atom it makes; dl's atoms by tag,
# with their one argument's class. ct's and dl's loops over a node's
# children also take such a child in the node's step, when the fuel left
# covers its unit, and leave the Derivation its own call would.
_CT_LEAVES = {Var: "Var ct", IntLit: "Const ct", StrLit: "Const ct",
              BoolLit: "Const ct", TagLit: "Tag ct"}
_UL_LEAVES = {cls: (_RULE_NAMES[cls.ctor, "ul"], TAGS[cls.ctor].tag)
              for cls in (Var, IntLit, StrLit, BoolLit)}
_DL_ATOMS = {"var": (StrLit, "Var dl"), "int": (IntLit, "Int dl"),
             "string": (StrLit, "String dl"), "bool": (BoolLit, "Bool dl")}


def _checked(run: _Run, m: Term, phase: str,
             expected: TypeExpr | None = None) -> TypeExpr | None:
    """In a typed run, m checked against expected, or its type inferred
    when expected is None: that type, with its Type premise on a traced
    run's trail; None when untyped. A rejection is an EvalError of kind
    TypeError."""
    if not run.typed:
        return None
    try:
        if expected is None:
            expected = typecheck.infer(EMPTY_ENV, m, phase=phase)
        else:
            typecheck.check(EMPTY_ENV, m, expected, phase=phase)
    except TypeErrorDetail as err:
        raise EvalError(EvalError.TYPE, "type", m, err.describe(),
                        detail=err)
    return _d(run, len(run.trail), "Type", "type", m, expected)


### compile time

def _ct(m: Term, run: _Run):
    at = run.spend("ct", m)
    cls = type(m)
    if cls is UpML:
        return _d(run, at, "UpML ct", "ct", m, _ul(m.body, run))
    if cls is DownML:
        a = _ct(m.body, run)
        _checked(run, a, "downML check", CODE)
        c = _dl(_rt_entry(a, run), run)
        return _d(run, at, "DownML ct", "ct", m, c)
    if cls is LetDown:
        a = _ct(m.bound, run)
        _checked(run, a, "letdown check")
        c = _ct(subst(m.body, _rt_entry(a, run), m.name), run)
        return _d(run, at, "Let ct", "ct", m, c)
    # Every other constructor compiles its children and is rebuilt; a
    # leaf, which has none, is itself under its own rule.
    rule, outs = _CT_LEAVES.get(cls), []
    for k in m.children():
        leaf = _CT_LEAVES.get(type(k))
        if leaf is None or not run.remaining:
            k = _ct(k, run)
        else:
            run.remaining -= 1
            _d(run, len(run.trail), leaf, "ct", k, k)
        outs.append(k)
    return _d(run, at, rule, "ct", m, m.rebuild(outs))


### down one meta-level

def _dl(m: Term, run: _Run):
    at = run.spend("dl", m)
    cls = type(m)
    if cls is TagLit:
        return _d(run, at, "Tag dl", "dl", m, m)
    if cls is not AstCtor:
        _stuck("dl", m, "term is not an AST value")
    tag, args = m.tag, m.args
    name, count = tag.name, len(args)
    atom = _DL_ATOMS.get(name)
    if atom is not None and count == 1 and type(x := args[0]) is atom[0]:
        out = Var(x.value) if name == "var" else x  # else a literal's AST
        return _d(run, at, atom[1], "dl", m, out)
    row = TAGS[name]
    cls = row.cls  # one lookup: the row's class, arity and spelling
    if cls is not None and cls.kids and count == row.arity:
        # Bound names come first and must convert down to strings.
        bound, outs = len(cls.binds), []
        for a in args:
            if bound and len(outs) == bound:
                if not all(type(s) is StrLit for s in outs):
                    what = ("binder did not reduce to a string" if bound == 1
                            else "binders did not reduce to strings")
                    _stuck("dl", m, f"{row.ast} {what}")
                outs = [s.value for s in outs]
            if (run.remaining and type(a) is AstCtor and len(a.args) == 1
                    and (atom := _DL_ATOMS.get(a.tag.name)) is not None
                    and type(x := a.args[0]) is atom[0]):
                out = Var(x.value) if a.tag.name == "var" else x
                run.remaining -= 1
                a = _d(run, len(run.trail), atom[1], "dl", a, out)
            else:
                a = _dl(a, run)
            outs.append(a)
        return _d(run, at, None, "dl", m, cls.from_ast(tag, outs))
    if name == "promote" and count >= 1:
        head = _dl(args[0], run)
        if not isinstance(head, TagLit):
            _stuck("dl", m, "astPromote head did not reduce to a tag")
        if head.tag.name != "promote":
            # Children move down with it; the rebuilt constructor is not
            # arity-checked here -- a later stage (dl again, or a type
            # check) owns rejecting a malformed result.
            out = AstCtor(head.tag, tuple([_dl(a, run) for a in args[1:]]))
            return _d(run, at, "Promote dl 1", "dl", m, out)
        if count >= 2:
            inner = _dl(args[1], run)
            if isinstance(inner, TagLit):
                out = AstCtor(tag, (inner, *[_dl(a, run) for a in args[2:]]))
                return _d(run, at, "Promote dl 2", "dl", m, out)
        _stuck("dl", m, "promoted astPromote needs a tag in second position")
    _stuck("dl", m,
           f"no down-level rule for ast constructor {name} "
           f"with {count} argument(s)")


### up one meta-level

def _ul(m: Term, run: _Run):
    at = run.spend("ul", m)
    cls = type(m)
    leaf = _UL_LEAVES.get(cls)
    if leaf is not None:
        out = AstCtor(leaf[1], (StrLit(m.name) if cls is Var else m,))
        return _d(run, at, leaf[0], "ul", m, out)
    if cls is TagLit:
        return _d(run, at, "Tag ul", "ul", m, m)
    if cls is UpML:
        return _d(run, at, "UpML ul", "ul", m, _ul(_ul(m.body, run), run))
    if cls is DownML:
        # The hole's code is compiled and spliced as-is: it will
        # produce its AST when the surrounding residual runs.
        return _d(run, at, "DownML ul", "ul", m, _ct(m.body, run))
    if cls is LetDown:
        _stuck("ul", m,
               "letdown has no AST representation and cannot be quoted")
    outs = [_ul(k, run) for k in m.children()]
    if cls is AstCtor:  # a promote of its tag and its arguments' ASTs
        out = AstCtor(TAGS["promote"].tag, (TagLit(m.tag), *outs))
        return _d(run, at, "Ast ul", "ul", m, out)
    # Every other constructor becomes its AST: bound names as strings,
    # then the children's ASTs.
    names = [mk_ast("string", StrLit(s)) for s in m.bound_names()]
    return _d(run, at, None, "ul", m, AstCtor(m.ast_tag(), (*names, *outs)))


### run time

def _rt(m: Term, run: _Run):
    at = run.spend("rt", m)
    cls = type(m)  # the commonest classes first
    if cls is App:
        f = _rt(m.fn, run)
        if not isinstance(f, (Lam, Rec)):
            _stuck("rt", m, "application of a non-function value")
        v = _rt(m.arg, run)
        # A traced run keeps one entry per f and argument (a literal
        # by its class and value, so BoolLit(True) is not IntLit(1),
        # any other by identity), stored once the body has run: f and v,
        # so the ids stay valid, the fuel the body spent, its value and
        # derivation. rt is deterministic: a repeat with that fuel left
        # spends it and returns them; with less, its body, equal to the
        # first's, runs out as a fresh run would. A body that raises
        # stores nothing, and one that meets its own pair diverges.
        if run.trace:
            key = ((id(f), type(v), v.value) if type(v) in _CONSTS
                   else (id(f), id(v)))
            entry = run.bodies.get(key)
            if entry is not None and entry[2] <= run.remaining:
                _, _, cost, res, derivation = entry
                run.remaining -= cost
                run.trail.append(derivation)
                return _d(run, at, "App", "rt", m, res)
        remaining = run.remaining
        res = _rt(_beta(f, f.body, v), run)
        if run.trace:
            run.bodies[key] = (f, v, remaining - run.remaining, res,
                               run.trail[-1])
        return _d(run, at, "App", "rt", m, res)
    if cls is BinOp:
        a, b = _rt(m.lhs, run), _rt(m.rhs, run)
        out = _arith(m.op, a.value if type(a) in _CONSTS else a,
                     b.value if type(b) in _CONSTS else b, m)
        return _d(run, at, None, "rt", m, HOST_LITERAL[type(out)](out))
    if cls in _CONSTS:
        return _d(run, at, "Const", "rt", m, m)
    if cls is If:
        c = _rt(m.cond, run)
        if not isinstance(c, BoolLit):
            _stuck("rt", m, "if condition is not a boolean")
        v = _rt(m.then if c.value else m.orelse, run)
        return _d(run, at, "If", "rt", m, v)
    if cls is AstCtor:
        # A node whose arguments all run to themselves is kept.
        out = m.rebuild([_rt(a, run) for a in m.args])
        return _d(run, at, None, "rt", m, out)
    if cls is Lam or cls is Rec:
        return _d(run, at, None, "rt", m, m)
    if cls is TagLit:
        return _d(run, at, "Tag", "rt", m, m)
    if cls is Var:
        _stuck("rt", m, f"unbound variable {m.name}")
    if cls is Eval:
        n = _eval_code(_rt(m.body, run), m, run)
        return _d(run, at, "Eval rt", "rt", m, _rt(n, run))
    if cls is Lift:
        return _d(run, at, "Lift", "rt", m, _lift(_rt(m.body, run), m))
    if cls is DownML or cls is UpML or cls is LetDown:
        _stuck("rt", m, "compile-time construct reached run time")
    raise TypeError(f"not a Term: {m!r}")


def _beta(f: Lam | Rec, part: Term, v: Term) -> Term:
    """part of f's body with the substitutions applying f to v makes: f
    for a Rec's self name, unless its parameter hides it, then v for the
    parameter."""
    if type(f) is Rec and f.self_name != f.param:
        part = subst(part, f, f.self_name)
    return subst(part, v, f.param)


### run time on an environment machine

class _Closure:
    """The machine's value for a function: its code, and the environment
    it was evaluated in with the closure whose application made that
    (see _close). An integer, boolean or string is the host value itself,
    boxed into its literal by _read_back; every other value is the term
    the reference semantics holds. memo is None until an application of
    the closure to a host value first returns one; then it maps an
    argument that is a host value (a bool by its own key, so True is not
    1) to the host value the closure's application to it returned and
    the fuel its body spent."""

    __slots__ = ("code", "env", "origin", "term", "memo")

    def __init__(self, code: Term, env: dict, origin: _Closure | None):
        self.code = code  # a Lam or a Rec
        self.env = env
        self.origin = origin
        self.term = None  # the read-back, once it is asked for
        self.memo = None  # made at the first host-valued return


_CONSTS = frozenset(HOST_LITERAL.values())  # the literals rt's Const takes
_BOOL_KEYS = (object(), object())  # False's and True's memo keys, not 0 or 1
_MEMO_SIZE = 1024  # the most values a closure's memo holds
_INT_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
            "eq": operator.eq}


def _read_back(v) -> Term:
    """The term the substitution semantics holds for the machine value v:
    a host value boxed into its literal, a closure read back by _close."""
    cls = type(v)
    box = HOST_LITERAL.get(cls)
    if box is not None:
        return box(v)
    if cls is not _Closure:
        return v
    if v.term is None:
        v.term = _close(v.code, v.env, v.origin)
    return v.term


def _close(m: Term, env: dict | None = None,
           origin: _Closure | None = None) -> Term:
    """The term the reference holds where the machine holds m in env.
    Every env but the empty one is made by applying a closure, origin,
    and m lies in its body under no binder: the reference holds m's
    place in origin's read-back with the substitutions _beta makes,
    one value at a time, so a binder renamed to avoid capture gets the
    same primes."""
    if origin is None:
        return m
    code, ref = origin.code, _read_back(origin)
    # ref is code with values substituted: the same shape down to m.
    # Where m stands at more than one place, each holds the same term.
    pairs = [(code.body, ref.body)]
    while pairs[-1][0] is not m:
        part, body = pairs.pop()
        if not part.binds:
            pairs.extend(zip(part.children(), body.children()))
    return _beta(ref, pairs[-1][1], _read_back(env[code.param]))


def _rt_entry(m: Term, run: _Run) -> Term:
    """rt as the pipeline, a splice, a letdown and eval_rt run it: on the
    reference _rt when the run is traced, else on the machine."""
    if run.trace:
        return _rt(m, run)
    return _read_back(_machine(m, {}, None, run))


def _machine(m: Term, env: dict, origin: _Closure | None, run: _Run):
    """rt of m without substitution: a variable looks its value up in
    env (one env does not bind is stuck, as in _rt), a function
    evaluates to a _Closure, and a literal to its host value. A closure's
    body runs in its env with its parameter bound, and itself as origin.
    It spends one unit of fuel wherever _rt spends one, in the same
    order, and its errors hold the terms _rt's would. Tail positions loop.

    Leaf operands are fused into their parent's step: the function of an
    application, when it is a variable bound to a closure; a BinOp's
    operands, and an application's argument or an if's condition, when
    they are a variable bound to a value that is not an AST or an integer
    literal; such an argument or condition that is a BinOp of two of
    these holding ints; and an AST constructor's literal and tag
    arguments, and its atoms (an AST of one literal or tag: two units).
    A fused operand spends the units its own call would, and is taken
    only when the fuel left covers them all; else it gets its call,
    which runs out on the term _rt names. The code eval produces
    runs in the empty environment, closed or not.

    An application of a closure to a host value first looks the argument
    up in the closure's memo: with the stored fuel left, it spends that
    fuel and takes the stored value; else it runs the body. Every return
    goes through one exit, which stores a host value under the first such
    application this call ran: every later one is its tail call, with
    the same value. The fuel stored is the fuel left when that
    application began less the fuel left now. It stores only when the
    closure already had a memo as that application began; a closure with
    none gets an empty one at that exit instead. So count's chain of
    distinct calls, which all begin before the first returns, stores
    nothing, and fib stores what it meets after its first descent. A
    full memo (_MEMO_SIZE values) is emptied before the next store, so
    arguments that never come again fill a bounded table. A call that
    raises stores nothing."""
    first = None  # the closure this call first applied to a host value
    while True:
        run.remaining -= 1
        if run.remaining < 0:
            raise EvalError(EvalError.FUEL, "rt", _close(m, env, origin),
                            "rule application budget exhausted")
        cls = type(m)
        if cls is Var:
            if m.name not in env:
                _stuck("rt", m, f"unbound variable {m.name}")
            v = env[m.name]
            if type(v) is not AstCtor:
                out = v
                break
            # _rt would run the AST substituted here again: one unit for
            # each of its nodes, so it runs again here too.
            run.remaining += 1
            m, env, origin = v, {}, None
        elif cls is App or cls is If:
            if cls is If:
                x = m.cond
            else:  # the function, then its argument
                x = m.fn
                if (type(x) is Var and run.remaining
                        and type(f := env.get(x.name)) is _Closure):
                    run.remaining -= 1
                else:
                    f = _machine(x, env, origin, run)
                    if type(f) is not _Closure:
                        _stuck("rt", _close(m, env, origin),
                               "application of a non-function value")
                x = m.arg
            t = type(x)
            if t is BinOp and run.remaining > 2:
                a, b = x.lhs, x.rhs
                a = (env.get(a.name) if type(a) is Var else
                     a.value if type(a) is IntLit else None)
                b = (env.get(b.name) if type(b) is Var else
                     b.value if type(b) is IntLit else None)
                if type(a) is int and type(b) is int:
                    run.remaining -= 3
                    v = _INT_OPS[x.op](a, b)
                else:
                    v = _machine(x, env, origin, run)
            elif run.remaining and (
                    t is Var and (v := env.get(x.name)) is not None
                    and type(v) is not AstCtor
                    or t is IntLit and type(v := x.value) is int):
                run.remaining -= 1
            else:
                v = _machine(x, env, origin, run)
            if cls is If:
                if type(v) is not bool:
                    _stuck("rt", _close(m, env, origin),
                           "if condition is not a boolean")
                m = m.then if v else m.orelse
                continue
            t = type(v)
            if t is int or t is str or t is bool:
                key = _BOOL_KEYS[v] if t is bool else v
                memo = f.memo
                if memo is not None:
                    done = memo.get(key)
                    if done is not None and done[1] <= run.remaining:
                        run.remaining -= done[1]
                        out = done[0]
                        break
            else:
                key = None
            code = f.code
            if type(code) is Lam:
                env = {**f.env, code.param: v}
            else:  # the parameter wins when it is also the self name
                env = {**f.env, code.self_name: f, code.param: v}
            m, origin = code.body, f
            if key is not None and first is None:
                first, first_key = f, key
                start = run.remaining if memo is not None else None
        elif cls is BinOp:
            x = m.lhs
            if run.remaining and (
                    type(x) is Var and (a := env.get(x.name)) is not None
                    and type(a) is not AstCtor
                    or type(x) is IntLit and type(a := x.value) is int):
                run.remaining -= 1
            else:
                a = _machine(x, env, origin, run)
            x = m.rhs
            if run.remaining and (
                    type(x) is Var and (b := env.get(x.name)) is not None
                    and type(b) is not AstCtor
                    or type(x) is IntLit and type(b := x.value) is int):
                run.remaining -= 1
            else:
                b = _machine(x, env, origin, run)
            if type(a) is int and type(b) is int:
                out = _INT_OPS[m.op](a, b)
            else:
                out = _arith(m.op, a, b, m, env, origin)
            break
        elif cls is IntLit or cls is StrLit or cls is BoolLit:
            out = m.value
            break
        elif cls is Lam or cls is Rec:
            out = _Closure(m, env, origin)
            break
        elif cls is TagLit:
            out = m
            break
        elif cls is AstCtor:
            # A leaf argument (a literal or tag) and an AST of one leaf
            # (an atom such as astInt(3)) run to themselves, their nodes
            # kept, in this step when the fuel left covers their units.
            # A node whose arguments all come back as they were is kept.
            outs = []
            for a in m.args:
                t = type(a)
                if t in LEAVES and run.remaining:
                    run.remaining -= 1
                elif (t is AstCtor and run.remaining > 1 and len(a.args) == 1
                      and type(a.args[0]) in LEAVES):
                    run.remaining -= 2
                else:
                    a = _read_back(_machine(a, env, origin, run))
                outs.append(a)
            out = m.rebuild(outs)
            break
        elif cls is Eval:
            v = _read_back(_machine(m.body, env, origin, run))
            m = _eval_code(v, m, run, env, origin)
            env, origin = {}, None
        elif cls is Lift:
            v = _read_back(_machine(m.body, env, origin, run))
            out = _lift(v, m, env, origin)
            break
        elif cls is DownML or cls is UpML or cls is LetDown:
            _stuck("rt", _close(m, env, origin),
                   "compile-time construct reached run time")
        else:
            raise TypeError(f"not a Term: {m!r}")
    if first is not None and type(out) in HOST_LITERAL:
        memo = first.memo
        if memo is None:
            first.memo = {}
        elif start is not None:
            if len(memo) == _MEMO_SIZE:
                memo.clear()
            memo[first_key] = out, start - run.remaining
    return out


def _eval_code(v: Term, m: Eval, run: _Run, *where) -> Term:
    """The code eval m runs once its body has run to v: v converted down
    and, in a typed run, checked against m's annotation. A traced run
    leaves the dl and check premises on the trail. On the machine, where
    is m's env and origin, so a stuck eval names the term _rt holds."""
    n = _dl(v, run)
    if run.typed and m.annot is None:
        _stuck("rt", _close(m, *where),
               "eval without annotation in a typed run")
    _checked(run, n, "eval check", m.annot)
    return n


def _lift(v: Term, m: Lift, *where) -> AstCtor:
    """The AST lift m builds once its body has run to v. where is as in
    _eval_code, so a stuck lift names the term _rt holds."""
    if type(v) not in _CONSTS:
        _stuck("rt", _close(m, *where),
               "lift applies to integers, strings and booleans")
    return AstCtor(v.ast_tag(), (v,))


def _arith(op: str, a, b, m: BinOp, *where):
    """The host value BinOp m computes from its operands' values a and b:
    a literal's as its host value, any other value as it is. where is as
    in _eval_code, so a stuck operator names the term _rt holds."""
    if type(a) is int and type(b) is int:
        return _INT_OPS[op](a, b)
    if op != "eq":
        _stuck("rt", _close(m, *where), f"{op} needs integer operands")
    if type(a) is str and type(b) is str:
        return a == b
    _stuck("rt", _close(m, *where), "== compares two integers or two strings")


### public entry points

def _fuel(fuel: int | None) -> int:
    """The given budget, else HGMP_FUEL, else the default; at least 1."""
    if fuel is None:
        env = os.environ.get("HGMP_FUEL")
        if not env:
            return DEFAULT_FUEL
        try:
            fuel = int(env)
        except ValueError:
            raise ValueError(f"HGMP_FUEL is not an integer: {env!r}") from None
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    return fuel


def _start(m: Term, mode: str, fuel: int | None,
           trace: bool) -> tuple[_Run, set[str]]:
    """The run an entry point starts on m, once its arguments are checked
    (the budget by _fuel, the mode against MODES, and m by free_vars'
    walk, which raises TypeError at the first value in it that is not a
    Term), and m's free variables."""
    fuel, typed = _fuel(fuel), is_typed(mode)
    fv = free_vars(m)
    return _Run(fuel, typed, trace), fv


def _evaluate(relation, m: Term, mode: str, fuel: int | None, trace: bool):
    run, _ = _start(m, mode, fuel, trace)
    out = relation(m, run)
    return (out, run.trail[-1]) if trace else out


def eval_ct(m: Term, mode: str = "untyped", fuel: int | None = None,
            trace: bool = False):
    """Compile m: the result contains no splice, quote or compile-time let."""
    return _evaluate(_ct, m, mode, fuel, trace)


def eval_dl(m: Term, fuel: int | None = None, trace: bool = False):
    """Convert an AST value one meta-level down to the program it denotes."""
    return _evaluate(_dl, m, "untyped", fuel, trace)


def eval_ul(m: Term, mode: str = "untyped", fuel: int | None = None,
            trace: bool = False):
    """Convert a term one meta-level up to its AST representation."""
    return _evaluate(_ul, m, mode, fuel, trace)


def eval_rt(m: Term, mode: str = "untyped", fuel: int | None = None,
            trace: bool = False):
    """Call-by-value evaluation of a compiled (meta-level-free) term.

    Untraced, it runs on the environment machine, open or closed;
    traced, on substitution. Both give the same value, primes included,
    error and fuel use."""
    return _evaluate(_rt_entry, m, mode, fuel, trace)


@dataclass(frozen=True)
class PipelineResult:
    residual: Term
    residual_type: TypeExpr | None
    value: Term
    stages: tuple[tuple[str, Derivation], ...] | None = None


def run_pipeline(m: Term, mode: str = "untyped", fuel: int | None = None,
                 trace: bool = False) -> PipelineResult:
    """Compile once, then run: ct, an optional whole-residual type check,
    then rt. The residual is returned so it can be re-run without
    recompiling. A traced run's trail ends as the stages' derivations."""
    run, fv = _start(m, mode, fuel, trace)
    if fv:
        raise EvalError(EvalError.STUCK, "ct", m,
                        "term is not closed: free " + ", ".join(sorted(fv)))
    residual = _ct(m, run)
    residual_type = _checked(run, residual, "residual check")
    value = _rt_entry(residual, run)
    names = ("ct", "type", "rt") if run.typed else ("ct", "rt")
    return PipelineResult(residual, residual_type, value,
                          tuple(zip(names, run.trail)) if trace else None)


### rendering
#
# A trace repeats the same term objects at many nodes (substitution leaves
# unchanged subterms shared), and a traced run returns one Derivation
# object for every application it has run before, so a derivation is a
# DAG that reads as a tree. Every renderer reads it through _walk, and
# keeps memos keyed by id(term) and id(derivation) to write every distinct
# term object and derivation object once: a repeat reuses its text. The
# memos live for that render call only, while the objects they name are
# alive: an id is reused once its object dies.

_ENTER, _EXIT, _AGAIN = "enter", "exit", "again"


def _walk(d: Derivation, seen):
    """Read d as a tree on one explicit stack, so depth costs no Python
    recursion. The first time it meets an object x it yields (_ENTER, x),
    the events of x's premises in order, then (_EXIT, x); every later
    time, (_AGAIN, x). The caller stores id(x) in seen on _ENTER."""
    stack = [d]
    while stack:
        x = stack.pop()
        if x is _EXIT:
            yield _EXIT, stack.pop()
        elif id(x) in seen:
            yield _AGAIN, x
        else:
            yield _ENTER, x
            stack.append(x)
            stack.append(_EXIT)
            stack += x.premises[::-1]


def to_json(obj) -> str:
    """The text json.dumps(obj, sort_keys=True, separators=(",", ":"))
    writes, for obj made of dicts, lists, tuples and strings whose leaves
    may also be Terms, as {"ctor", "children", "atom"?, "annot"?}, and
    Derivations, as derivation_to_json describes them. Each distinct term
    or derivation object is encoded once per call."""
    parts: list[str] = []
    _write_json(obj, parts, {}, {})
    return "".join(parts)


def _write_json(o, parts: list[str], memo: dict, spans: dict):
    """Append o's text to parts: containers by plain recursion, as they
    nest only a few levels, and derivations as _walk reads them. memo is
    _term_json's; spans maps id(derivation) to where its text starts in
    parts while its premises are written, then to its [start, end) in
    parts, then to that text joined."""
    cls = type(o)
    if cls is str:
        parts.append(_json_str(o))
    elif cls is Derivation:
        last = _ENTER  # a comma goes before each premise but the first
        tails = {}  # (relation, rule): the text that closes its object
        for event, x in _walk(o, spans):
            if event is not _EXIT and last is not _ENTER:
                parts.append(",")
            last = event
            if event is _ENTER:
                spans[id(x)] = len(parts)
                out = x.term_out
                out = (_term_json(out, memo) if isinstance(out, Term)
                       else '{"type":' + _json_str(pretty_type(out)) + "}")
                parts.append('{"in":' + _term_json(x.term_in, memo)
                             + ',"out":' + out + ',"premises":[')
            elif event is _EXIT:
                tail = tails.get((x.relation, x.rule))
                if tail is None:
                    tail = tails[x.relation, x.rule] = (
                        '],"relation":' + _json_str(x.relation)
                        + ',"rule":' + _json_str(x.rule) + "}")
                parts.append(tail)
                spans[id(x)] = spans[id(x)], len(parts)
            else:  # _AGAIN: written before
                span = spans[id(x)]
                if type(span) is tuple:
                    span = spans[id(x)] = "".join(parts[span[0]:span[1]])
                parts.append(span)
    elif cls is dict:
        for i, key in enumerate(sorted(o)):
            parts.append(("," if i else "{") + _json_str(key) + ":")
            _write_json(o[key], parts, memo, spans)
        parts.append("}" if o else "{}")
    elif cls is list or cls is tuple:
        for i, item in enumerate(o):
            parts.append("," if i else "[")
            _write_json(item, parts, memo, spans)
        parts.append("]" if o else "[]")
    elif isinstance(o, Term):
        parts.append(_term_json(o, memo))
    else:
        raise TypeError(f"cannot write {o!r} as trace JSON")


def _term_json(m: Term, memo: dict) -> str:
    """The JSON text of m; memo maps id(term) to the text of every term
    this render has written."""
    key = id(m)
    text = memo.get(key)
    if text is not None:
        return text
    cls = type(m)
    if cls is App or cls is BinOp or cls is If:  # the commonest: children only
        memo[key] = text = ('{"children":['
                            + ",".join([_term_json(k, memo)
                                        for k in m.children()])
                            + '],"ctor":' + _json_str(m.ctor) + "}")
        return text
    annot = None
    match m:
        case Var(name):
            ctor, atom = "var", _json_str(name)
        case IntLit(value):
            ctor, atom = "int", int_text(value)  # as json writes it, at any size
        case StrLit(value):
            ctor, atom = "str", _json_str(value)
        case BoolLit(value):
            ctor, atom = "bool", "true" if value else "false"
        case AstCtor(tag) | TagLit(tag):
            ctor = "ast" if cls is AstCtor else "tag"
            atom, annot = _json_str(tag.name), tag.eval_annot
        case _:
            # Every other constructor: its bound names as the atom (one
            # bare, several as a list) and its annotation, if it has one.
            names = m.bound_names()
            atom = ((_json_str(names[0]) if len(names) == 1
                     else "[" + ",".join(map(_json_str, names)) + "]")
                    if names else None)
            annot = getattr(m, "annot", None)
            ctor = m.ctor.lower()
    text = ('"children":[' + ",".join([_term_json(k, memo)
                                       for k in m.children()])
            + '],"ctor":' + _json_str(ctor) + "}")
    if atom is not None:
        text = '"atom":' + atom + "," + text
    if annot is not None:
        text = '"annot":' + _json_str(pretty_type(annot)) + "," + text
    memo[key] = text = "{" + text
    return text


def derivation_to_json(d: Derivation) -> dict:
    """{"rule", "relation", "in", "out", "premises"}: the terms as to_json
    encodes them, a type conclusion as {"type": ..}. This is to_json's
    text of d, read back; outside the tests, only the benchmark reads it."""
    return json.loads(to_json(d), parse_int=int_of_text)


def render_derivation(d: Derivation) -> str:
    """Indented text, one rule per line, premises above their conclusion
    and two spaces deeper. Each distinct term object is printed once per
    call, and each distinct derivation object written once."""
    lines: list[str] = []
    _render(d, printer(), lines, {})
    return "\n".join(lines)


def render_trace(stages) -> str:
    """The text trace of a run's (name, derivation) stages: each stage's
    derivation under a `-- name --` line. Each distinct term object is
    printed once per call, and each distinct derivation object written
    once, across the stages."""
    show, lines, spans = printer(), [], {}
    for name, d in stages:
        lines.append(f"-- {name} --")
        _render(d, show, lines, spans)
    return "\n".join(lines)


def _render(d: Derivation, show, lines: list[str], spans: dict):
    """Append d's lines, premises first, as _walk reads d. spans maps
    id(derivation) to where its lines start and its indent while its
    premises are written, then to their [start, end) and indent: a repeat
    is those line objects again at that indent, else re-indented copies."""
    indent = ""
    for event, x in _walk(d, spans):
        if event is _ENTER:
            spans[id(x)] = len(lines), indent
            indent += "  "
        elif event is _EXIT:
            start, indent = spans[id(x)]
            out = x.term_out
            out = show(out) if isinstance(out, Term) else pretty_type(out)
            lines.append(f"{indent}{x.rule}: {show(x.term_in)}"
                         f"  ={x.relation}=>  {out}")
            spans[id(x)] = start, len(lines), indent
        else:  # _AGAIN: written before
            start, end, at = spans[id(x)]
            if at == indent:
                lines.extend(lines[start:end])
            else:
                cut = len(at)
                lines.extend([indent + line[cut:]
                              for line in lines[start:end]])
