"""Seeded random term generators for the property suites.

Every suite that uses these passes an explicit random.Random(SEED), so
failures replay exactly. Generators only ever build terms the surface
grammar can express (registry arities respected, eval annotated only in
typed mode).
"""

from __future__ import annotations

import random

from hgmp.signature import lookup, registry
from hgmp.syntax import (
    BOOL, CODE, INT, STRING,
    App, Arrow, AstCtor, BinOp, BoolLit, DownML, Eval, If, IntLit, Lam,
    LetDown, Lift, Rec, StrLit, Tag, TagLit, TagType, TypeExpr, UpML, Var,
)

NAMES = ("a", "b", "c", "f", "g", "p", "q", "x", "y", "z")
STRINGS = ("", "x", "hi", "a b", 'quo"te', "new\nline", "päron")
TAGS = tuple(spec.name for spec in registry() if spec.tag is not None)
BINOP_NAMES = ("add", "sub", "mul", "eq")
# Tokens of the surface syntax, for token soup: most joins do not parse.
SOUP = ("x f 1 -2 \"s\" #lam #eval astInt astLam astEval astPromote "
        "\\ rec let letdown in if then else true false eval lift $ "
        "( ) [| |] { } , . : = == + - * -> Int Bool Tag Code").split()


def gen_constant(rng: random.Random):
    pick = rng.randrange(3)
    if pick == 0:
        return IntLit(rng.randint(-50, 10**6) if rng.random() < 0.9
                      else rng.randint(0, 10**30))
    if pick == 1:
        return StrLit(rng.choice(STRINGS))
    return BoolLit(rng.random() < 0.5)


def gen_type(rng: random.Random, depth: int = 2) -> TypeExpr:
    if depth <= 0 or rng.random() < 0.6:
        base = rng.randrange(5)
        if base == 0:
            return INT
        if base == 1:
            return BOOL
        if base == 2:
            return STRING
        if base == 3:
            return CODE
        return TagType(rng.choice(TAGS))
    return Arrow(gen_type(rng, depth - 1), gen_type(rng, depth - 1))


def _tag(rng: random.Random, name: str, typed: bool) -> Tag:
    if name == "eval" and typed:
        return Tag("eval", gen_type(rng, 1))
    return Tag(name)


def gen_ml_free(rng: random.Random, depth: int = 4,
                scope: tuple[str, ...] = (), with_eval: bool = False,
                typed: bool = False, names: tuple[str, ...] = NAMES):
    """Closed ml-free terms (scope lists usable variables, and names
    those a binder may take).

    By default also eval- and lift-free, which is what the up/down
    round-trip property wants; with_eval adds untyped evals and lifts.
    typed only affects tag spelling (eval tags carry annotations).
    """
    if depth <= 0:
        choices = ["const", "tag"] + (["var"] * 2 if scope else [])
        kind = rng.choice(choices)
        if kind == "var":
            return Var(rng.choice(scope))
        if kind == "tag":
            return TagLit(_tag(rng, rng.choice(TAGS), typed))
        return gen_constant(rng)
    kinds = ["const", "var", "lam", "rec", "app", "binop", "if", "ast", "tag"]
    if with_eval:
        kinds += ["eval", "lift"]
    kind = rng.choice(kinds)
    d = depth - 1
    if kind == "var" and scope:
        return Var(rng.choice(scope))
    if kind == "lam":
        name = rng.choice(names)
        return Lam(name, gen_ml_free(rng, d, scope + (name,), with_eval,
                                     typed, names))
    if kind == "rec":
        self_name, param = rng.choice(names), rng.choice(names)
        return Rec(self_name, param,
                   gen_ml_free(rng, d, scope + (self_name, param), with_eval,
                               typed, names))
    if kind == "app":
        return App(gen_ml_free(rng, d, scope, with_eval, typed, names),
                   gen_ml_free(rng, d, scope, with_eval, typed, names))
    if kind == "binop":
        return BinOp(rng.choice(BINOP_NAMES),
                     gen_ml_free(rng, d, scope, with_eval, typed, names),
                     gen_ml_free(rng, d, scope, with_eval, typed, names))
    if kind == "if":
        return If(gen_ml_free(rng, d, scope, with_eval, typed, names),
                  gen_ml_free(rng, d, scope, with_eval, typed, names),
                  gen_ml_free(rng, d, scope, with_eval, typed, names))
    if kind == "ast":
        name = rng.choice(TAGS)
        spec = lookup(name)
        count = spec.arity if spec.arity is not None else rng.randint(1, 3)
        args = [gen_ml_free(rng, d, scope, with_eval, typed, names)
                for _ in range(count)]
        if name == "promote":
            # A promote whose head is not a tag literal has no conversion
            # down, so its quote/unquote round trip is undefined.
            args[0] = TagLit(_tag(rng, rng.choice(TAGS), typed))
        return AstCtor(_tag(rng, name, typed), tuple(args))
    if kind == "tag":
        return TagLit(_tag(rng, rng.choice(TAGS), typed))
    if kind == "eval":
        return Eval(gen_ml_free(rng, d, scope, with_eval, typed, names),
                    gen_type(rng, 1) if typed else None)
    if kind == "lift":
        return Lift(gen_ml_free(rng, d, scope, with_eval, typed, names))
    return gen_constant(rng)


def gen_term(rng: random.Random, depth: int = 4, scope: tuple[str, ...] = (),
             typed: bool = False, quoted: int = 0):
    """Closed terms over the whole grammar; typed picks annotated eval.

    quoted tracks quote nesting so splices stay inside quotes often
    enough to be interesting but still parse in either mode.
    """
    if depth <= 0:
        return gen_ml_free(rng, 0, scope, typed=typed)
    kind = rng.choice(
        ("mlfree", "lam", "app", "binop", "if", "ast", "upml", "downml",
         "eval", "lift", "letdown"))
    d = depth - 1
    if kind == "lam":
        name = rng.choice(NAMES)
        annot = gen_type(rng, 1) if typed and rng.random() < 0.3 else None
        return Lam(name, gen_term(rng, d, scope + (name,), typed, quoted),
                   annot)
    if kind == "app":
        return App(gen_term(rng, d, scope, typed, quoted),
                   gen_term(rng, d, scope, typed, quoted))
    if kind == "binop":
        return BinOp(rng.choice(BINOP_NAMES),
                     gen_term(rng, d, scope, typed, quoted),
                     gen_term(rng, d, scope, typed, quoted))
    if kind == "if":
        return If(gen_term(rng, d, scope, typed, quoted),
                  gen_term(rng, d, scope, typed, quoted),
                  gen_term(rng, d, scope, typed, quoted))
    if kind == "ast":
        name = rng.choice(TAGS)
        spec = lookup(name)
        count = spec.arity if spec.arity is not None else rng.randint(1, 3)
        return AstCtor(_tag(rng, name, typed),
                       tuple(gen_term(rng, d, scope, typed, quoted)
                             for _ in range(count)))
    if kind == "upml":
        return UpML(gen_term(rng, d, scope, typed, quoted + 1))
    if kind == "downml" and quoted:
        return DownML(gen_term(rng, d, scope, typed, quoted - 1))
    if kind == "eval":
        annot = gen_type(rng, 1) if typed else None
        return Eval(gen_term(rng, d, scope, typed, quoted), annot)
    if kind == "lift":
        return Lift(gen_term(rng, d, scope, typed, quoted))
    if kind == "letdown":
        name = rng.choice(NAMES)
        return LetDown(name, gen_term(rng, d, scope, typed, quoted),
                       gen_term(rng, d, scope + (name,), typed, quoted))
    return gen_ml_free(rng, d, scope, typed=typed)


def gen_compile_candidate(rng: random.Random):
    """Closed terms biased towards a successful compile-time sweep."""
    pick = rng.random()
    if pick < 0.35:
        # a splice whose body is the quote of something harmless
        inner = gen_ml_free(rng, rng.randint(0, 3))
        shape = gen_ml_free(rng, rng.randint(0, 2))
        return App(Lam("h", DownML(UpML(inner))), shape)
    if pick < 0.6:
        return UpML(gen_term(rng, rng.randint(0, 3), (), False, 1))
    if pick < 0.8:
        return gen_ml_free(rng, rng.randint(0, 4))
    return gen_term(rng, rng.randint(0, 4))


def _ast_name(name: str):
    return AstCtor(Tag("string"), (StrLit(name),))


def gen_open_eval(rng: random.Random):
    """Closed untyped programs that bind the open lambda an eval produces
    under binders named like its free variables, and then apply it:

        (\\h. \\b. \\z. h b) (eval(astLam(astStr("q"), astVar("b")))) 5

    Substitution renames such a binder, so the open body keeps its name
    apart from the argument the binder receives."""
    free = rng.choice(NAMES)
    param = rng.choice(NAMES)
    var = rng.choice((free, free, param))
    body = AstCtor(Tag("var"), (StrLit(var),))
    if rng.random() < 0.4:
        body = AstCtor(Tag(rng.choice(BINOP_NAMES)),
                       (body, AstCtor(Tag("var"), (StrLit(free),))))
    code = Eval(AstCtor(Tag("lam"), (_ast_name(param), body)))
    fn = rng.choice(NAMES)
    binders = [free] + rng.sample(NAMES, rng.randint(0, 2))
    rng.shuffle(binders)
    scope = (fn, *binders)
    use = rng.random()
    if use < 0.3:
        inner = App(Var(fn), Var(rng.choice(scope)))
    elif use < 0.5:
        inner = Lam(rng.choice(NAMES), App(Var(fn), Var(rng.choice(scope))))
    elif use < 0.7:
        inner = BinOp("add", App(Var(fn), Var(rng.choice(scope))),
                      IntLit(1))
    else:
        inner = gen_ml_free(rng, rng.randint(0, 3), scope, with_eval=True)
    for name in reversed(binders):
        inner = Lam(name, inner)
    program = App(Lam(fn, inner), code)
    for _ in range(rng.randint(0, len(binders) + 1)):
        program = App(program, gen_ml_free(rng, rng.randint(0, 1)))
    return program


def _unreturned(rng: random.Random, body, typed: bool):
    """body with a piece next to it that its quote's conversion down does
    not give back as it was: a binder annotation (quoting erases it), a
    nested quote, a splice or an AST constructor."""
    pick = rng.randrange(4)
    if pick == 0:
        if rng.random() < 0.5:
            return Lam(rng.choice(NAMES), body, gen_type(rng, 1))
        return Rec(rng.choice(NAMES), rng.choice(NAMES), body,
                   Arrow(gen_type(rng, 1), gen_type(rng, 1)))
    if pick == 1:
        piece = UpML(gen_ml_free(rng, rng.randint(0, 2), typed=typed))
    elif pick == 2:
        piece = DownML(rng.choice((
            UpML(gen_ml_free(rng, rng.randint(0, 2), typed=typed)),
            AstCtor(Tag("int"), (IntLit(rng.randint(0, 9)),)))))
    else:
        piece = AstCtor(Tag(rng.choice(BINOP_NAMES)),
                        (AstCtor(Tag("int"), (IntLit(rng.randint(0, 9)),)),
                         gen_ml_free(rng, rng.randint(0, 1), typed=typed)))
    shape = rng.randrange(3)
    if shape == 0:
        return App(Lam(rng.choice(NAMES), body), piece)
    if shape == 1:
        return If(BoolLit(rng.random() < 0.5), body, piece)
    return BinOp(rng.choice(BINOP_NAMES), piece, body)


def gen_quoted_eval(rng: random.Random, typed: bool = False):
    """Closed programs that run the AST of a quote: through eval, through
    a splice, and bound to c and run twice,

        let c = [| e |] in eval(c) + eval(c)

    (or letdown c = [| e |] in $(c) + $(c)). Most bodies are ml-free, so
    their AST converts down to a term equal to the body; some also hold
    a piece that does not come back as it was (see _unreturned). In
    typed mode every eval carries a type, most bodies are typed terms
    made at it, and a function is applied to an argument of its type."""
    ty = gen_type(rng, 1) if typed else None
    while isinstance(ty, TagType):  # a tag's quote is the tag, not Code
        ty = gen_type(rng, 1)
    if typed and rng.random() < 0.7:
        body = gen_typed_term(rng, ty, (), rng.randint(1, 4))
    else:
        body = gen_ml_free(rng, rng.randint(0, 4), typed=typed)
    if rng.random() < 0.3:
        body = _unreturned(rng, body, typed)
    quote, pick = UpML(body), rng.randrange(4)
    if pick == 0:
        program = Eval(quote, ty)
    elif pick == 1:
        program = App(Lam("h", DownML(quote)),
                      gen_ml_free(rng, rng.randint(0, 1)))
    else:
        c, d = rng.sample(NAMES, 2)
        run = (Eval(Var(c), ty), Eval(Var(c), ty)) if pick == 2 else (
            DownML(Var(c)), DownML(Var(c)))
        use = (BinOp(rng.choice(BINOP_NAMES), *run)
               if ty in (None, INT) and rng.random() < 0.5
               else App(Lam(d, run[0]), run[1]))
        program = (App(Lam(c, use), quote) if pick == 2
                   else LetDown(c, quote, use))
    if isinstance(ty, Arrow):
        program = App(program, gen_typed_term(rng, ty.src, (), 1))
    elif not typed and rng.random() < 0.3:
        program = App(program, gen_ml_free(rng, rng.randint(0, 1)))
    return program


# Names with primes, as substitution renames to, for gen_env_capture.
PRIMED_NAMES = ("a", "b", "a'", "b'", "b''")


def gen_env_capture(rng: random.Random, typed: bool = False):
    """Open programs whose closures bind, in one environment, a name that
    is free in another of the values they bind:

        (\\a. \\b. \\z. a b) (\\q. b) 1

    Read back one name at a time, \\z. a b would become \\z. (\\q. 1) 1;
    substitution renames \\b instead, giving \\z. (\\q. b) 1. Every name,
    bound or free, is one of PRIMED_NAMES, so a binder is renamed to a
    name that a binder or a value already holds, and renamed again at a
    later substitution: (\\b. \\a. \\a'. b a) (\\z. a) 5 gives
    \\a''. (\\z. a) 5. The open value is a lambda or the open code of an
    eval, and the closure is returned, applied, or built inside
    generated code."""
    names = PRIMED_NAMES
    a, b = rng.sample(names, 2)
    q = rng.choice([n for n in names if n != b])
    if rng.random() < 0.3 and not typed:
        value = Eval(AstCtor(Tag("lam"), (_ast_name(q), AstCtor(
            Tag("var"), (StrLit(b),)))))
    else:
        uses_b = rng.choice((Var(b), App(Var(b), Var(q)),
                             BinOp(rng.choice(BINOP_NAMES), Var(q), Var(b))))
        value = Lam(q, uses_b)
    z = rng.choice(names)
    body = gen_ml_free(rng, rng.randint(0, 3), (a, b, z), with_eval=True,
                       typed=typed, names=names)
    if rng.random() < 0.5:
        body = App(Var(a), body if rng.random() < 0.5 else Var(b))
    program = App(App(Lam(a, Lam(b, Lam(z, body))), value),
                  gen_ml_free(rng, rng.randint(0, 2), with_eval=True,
                              typed=typed, names=names))
    if rng.random() < 0.4:
        program = App(program, gen_ml_free(rng, rng.randint(0, 1)))
    return program


def _numeric_leaf(rng: random.Random, ints: tuple[str, ...],
                  scope: tuple[str, ...] = ()):
    """A variable holding an int or a small integer; now and then any
    variable in scope, a boolean, a string or an AST."""
    pick = rng.random()
    if ints and pick < 0.5:
        return Var(rng.choice(ints))
    if pick < 0.93:
        return IntLit(rng.randint(0, 4))
    if scope and pick < 0.95:
        return Var(rng.choice(scope))
    return rng.choice((BoolLit(True), StrLit("s"),
                       AstCtor(Tag("int"), (IntLit(1),))))


def _numeric_op(rng: random.Random, ints: tuple[str, ...],
                scope: tuple[str, ...] = ()):
    """An operator on two leaves; `*` has a literal on its right, so no
    chain of calls squares a number again and again."""
    op = rng.choice(BINOP_NAMES)
    return BinOp(op, _numeric_leaf(rng, ints, scope),
                 IntLit(rng.randint(0, 4)) if op == "mul"
                 else _numeric_leaf(rng, ints, scope))


def gen_numeric_rec(rng: random.Random):
    """Closed untyped programs shaped like numeric recursion: a chain of
    lets (applied lambdas) binding constants, small functions, `twice`,
    compositions and a recursive function

        rec f x. if x == k then base else step

    whose step calls f on `x - 1` or `x - 2`, then the last function
    applied to a small argument. Most operands are variables and integer
    literals, the leaves the run-time machine evaluates in place; some
    are functions, booleans, strings or ASTs (also bound to a name),
    which it must not."""
    names = list(NAMES)
    rng.shuffle(names)
    lets = []  # (name, term), outermost first
    consts, fns, twice = (), [], []  # the let names by what they bind
    for name in names[:rng.randint(1, 5)]:
        scope = tuple(n for n, _ in lets)
        y = rng.choice([n for n in NAMES if n not in scope and n != name])
        ints = (y, *consts)
        pick = rng.randrange(7) if fns else rng.choice((0, 1, 4, 6))
        if pick == 0:
            op = rng.choice(BINOP_NAMES[:3])
            leaf = (IntLit(rng.randint(0, 4)) if op == "mul"
                    else _numeric_leaf(rng, ints, scope))
            term = Lam(y, BinOp(op, Var(y), leaf) if rng.random() < 0.5
                       else BinOp(op, leaf, Var(y)))
        elif pick == 1:
            g = rng.choice([n for n in NAMES if n != y])
            term = Lam(g, Lam(y, App(Var(g), App(Var(g), Var(y)))))
            twice.append(name)
        elif pick == 2 and twice:
            term = App(Var(rng.choice(twice)), Var(rng.choice(fns)))
        elif pick == 2:
            term = Lam(y, App(Var(rng.choice(fns)),
                              App(Var(rng.choice(fns)), Var(y))))
        elif pick == 3:
            term = Lam(y, If(BinOp("eq", Var(y), _numeric_leaf(rng, ints)),
                             App(Var(rng.choice(fns)), Var(y)),
                             App(Var(rng.choice(fns)),
                                 _numeric_op(rng, ints, scope))))
        elif pick == 6:
            term = rng.choice((IntLit(rng.randint(0, 4)), IntLit(1),
                               AstCtor(Tag("int"), (IntLit(1),)),
                               BoolLit(False), StrLit("s")))
            consts += (name,)
        else:
            term = _numeric_rec(rng, scope, consts, fns)
        lets.append((name, term))
        if pick not in (1, 6):
            fns.append(name)
    pick = rng.random()
    arg = (IntLit(rng.randint(0, 6)) if pick < 0.8
           else _numeric_op(rng, consts) if pick < 0.9
           else _numeric_leaf(rng, consts))
    program = App(Var(fns[-1]) if fns else _numeric_rec(rng, (), consts, []),
                  arg)
    for name, term in reversed(lets):
        program = App(Lam(name, program), term)
    return program


def _numeric_rec(rng: random.Random, scope: tuple[str, ...],
                 consts: tuple[str, ...], fns: list[str]):
    f, x = rng.sample([n for n in NAMES if n not in scope], 2)
    ints, inner = (x, *consts), scope + (f,)
    recur = App(Var(f), BinOp("sub", Var(x), IntLit(rng.choice((1, 1, 2)))))
    pick = rng.randrange(5)
    if pick == 0:
        step = recur
    elif pick == 1:
        step = BinOp(rng.choice(("add", "mul")),
                     _numeric_leaf(rng, ints, inner), recur)
    elif pick == 2:
        step = BinOp("add", recur,
                     App(Var(f), BinOp("sub", Var(x), IntLit(2))))
    elif pick == 3 and fns:
        step = App(Var(rng.choice(fns)), recur)
    else:
        step = App(Var(f), _numeric_op(rng, ints, inner))
    cond = BinOp("eq", Var(x), IntLit(rng.randint(0, 1))
                 if rng.random() < 0.85 else _numeric_leaf(rng, ints, inner))
    return Rec(f, x, If(cond, _numeric_leaf(rng, ints, inner), step))


### type-directed generation (for the typed-progress suite)

def gen_typed_term(rng: random.Random, ty: TypeExpr,
                   env: tuple[tuple[str, TypeExpr], ...] = (),
                   depth: int = 3):
    """A closed term whose staged pipeline should accept it at type ty."""
    candidates = [name for name, t in env if t == ty]
    if candidates and rng.random() < 0.3:
        return Var(rng.choice(candidates))
    if depth > 0 and rng.random() < 0.2:
        # an application at any type
        arg_ty = gen_type(rng, 1)
        fn = gen_typed_term(rng, Arrow(arg_ty, ty), env, depth - 1)
        arg = gen_typed_term(rng, arg_ty, env, depth - 1)
        return App(fn, arg)
    if depth > 0 and rng.random() < 0.15:
        # quote-splice round trip sits at every type
        return DownML(UpML(gen_typed_term(rng, ty, env, depth - 1)))
    if depth > 0 and rng.random() < 0.1:
        return Eval(UpML(gen_typed_term(rng, ty, (), depth - 1)), ty)
    if isinstance(ty, Arrow):
        name = rng.choice(NAMES)
        env2 = tuple((n, t) for n, t in env if n != name) + ((name, ty.src),)
        body = gen_typed_term(rng, ty.dst, env2, depth - 1)
        annot = ty.src if rng.random() < 0.5 else None
        return Lam(name, body, annot)
    if isinstance(ty, TagType):
        return TagLit(Tag(ty.tag, gen_type(rng, 1) if ty.tag == "eval"
                          else None))
    if ty == INT:
        if depth <= 0 or rng.random() < 0.4:
            return IntLit(rng.randint(0, 99))
        if rng.random() < 0.5:
            return BinOp(rng.choice(("add", "sub", "mul")),
                         gen_typed_term(rng, INT, env, depth - 1),
                         gen_typed_term(rng, INT, env, depth - 1))
        return If(gen_typed_term(rng, BOOL, env, depth - 1),
                  gen_typed_term(rng, INT, env, depth - 1),
                  gen_typed_term(rng, INT, env, depth - 1))
    if ty == BOOL:
        if depth <= 0 or rng.random() < 0.5:
            return BoolLit(rng.random() < 0.5)
        return BinOp("eq", gen_typed_term(rng, INT, env, depth - 1),
                     gen_typed_term(rng, INT, env, depth - 1))
    if ty == STRING:
        return StrLit(rng.choice(STRINGS))
    if ty == CODE:
        return _gen_code(rng, env, depth)
    raise AssertionError(f"no generator for type {ty!r}")


def _gen_code(rng: random.Random, env, depth: int):
    if depth <= 0:
        return AstCtor(Tag("int"), (IntLit(rng.randint(0, 9)),))
    pick = rng.randrange(7)
    d = depth - 1
    if pick == 0:
        return AstCtor(Tag("int"), (gen_typed_term(rng, INT, env, d),))
    if pick == 1:
        return AstCtor(Tag("string"), (gen_typed_term(rng, STRING, env, d),))
    if pick == 2:
        return AstCtor(Tag("var"), (gen_typed_term(rng, STRING, env, d),))
    if pick == 3:
        return AstCtor(Tag(rng.choice(("add", "sub", "mul"))),
                       (_gen_code(rng, env, d), _gen_code(rng, env, d)))
    if pick == 4:
        return AstCtor(Tag("lam"),
                       (AstCtor(Tag("string"), (StrLit(rng.choice(NAMES)),)),
                        _gen_code(rng, env, d)))
    if pick == 5:
        base = rng.choice((INT, STRING, BOOL))
        return Lift(gen_typed_term(rng, base, env, d))
    return UpML(gen_ml_free(rng, rng.randint(0, 2)))
