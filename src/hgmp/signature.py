"""Constructor signature registry.

One row per syntactic construct: its tag's spelling (when it has an AST
mirror), arity and binder positions. Who reads it:

* `syntax` attaches each Term class to its row, and gives each tagged
  row one record in `syntax.TAGS`: its `#t` and `astT` spellings, plain
  tag, class and arity, which the lexer, `pretty`, ul, dl and the checker
  read, so a new row parses and prints. The binder positions decide
  which of a class's fields are bound names and which are children;
  free variables, substitution and alpha-equivalence read that view.
* `reduction` writes the congruence rules of ct, ul and dl once over
  that view; the JSON encoding writes the bound names as its atom, and
  dl requires binder arguments to convert down to strings.
* `parser` and `typecheck` check AST-constructor arities here and state
  them in their errors through `arity_text`; the checker requires
  `astStr(..)` at the binder positions. The checker's type environment
  shadows, so it binds names without renaming.

Splices, quotes and compile-time lets have rows with no tag because they
are gone before any AST could mention them.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIADIC = None  # arity marker; only promote uses it


@dataclass(frozen=True)
class CtorSpec:
    name: str
    tag: str | None  # the tag's spelling; None when there is no AST mirror
    arity: int | None  # None means variadic (at least one argument)
    binders: tuple[int, ...] = ()

    def __post_init__(self):
        # Bound names lead a row's arguments: the generic rules read them
        # off the front, and the children after them.
        if self.binders != tuple(range(len(self.binders))):
            raise ValueError("binder positions must lead the arguments")
        if self.binders and (self.arity is None
                             or len(self.binders) >= self.arity):
            raise ValueError("a binding constructor needs a fixed arity "
                             "and a body after its binders")


_REGISTRY = (
    CtorSpec("var", "var", 1),
    CtorSpec("app", "app", 2),
    CtorSpec("lam", "lam", 2, binders=(0,)),
    CtorSpec("rec", "rec", 3, binders=(0, 1)),
    CtorSpec("int", "int", 1),
    CtorSpec("string", "str", 1),
    CtorSpec("bool", "bool", 1),
    CtorSpec("add", "add", 2),
    CtorSpec("sub", "sub", 2),
    CtorSpec("mul", "mul", 2),
    CtorSpec("eq", "eq", 2),
    CtorSpec("if", "if", 3),
    CtorSpec("eval", "eval", 1),
    CtorSpec("lift", "lift", 1),
    CtorSpec("promote", "promote", VARIADIC),
    CtorSpec("downML", None, 1),
    CtorSpec("upML", None, 1),
    CtorSpec("letdown", None, 3, binders=(0,)),
)

_BY_NAME = {spec.name: spec for spec in _REGISTRY}


def registry() -> tuple[CtorSpec, ...]:
    """The full, fixed constructor table for this calculus."""
    return _REGISTRY


def lookup(name: str) -> CtorSpec:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"no constructor named {name!r}") from None


def check_arity(tag: str, arg_count: int) -> bool:
    """True iff an AST constructor with this tag may take arg_count children."""
    spec = lookup(tag)
    if spec.arity is None:
        return arg_count >= 1
    return arg_count == spec.arity


def arity_text(tag: str) -> str:
    """The argument count check_arity wants for this tag, as an arity
    error states it: the number, or "1 or more" for a variadic row."""
    arity = lookup(tag).arity
    return "1 or more" if arity is None else str(arity)
