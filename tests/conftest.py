import sys
from dataclasses import dataclass

import pytest

from hgmp import signature, syntax
from hgmp.cli import _RECURSION_LIMIT
from hgmp.syntax import Term

# Big-step evaluation recurses along term structure; the fuel budget is
# the real bound, this only keeps CPython's limit out of the way. The
# tests run at the CLI's limit.
sys.setrecursionlimit(_RECURSION_LIMIT)


@pytest.fixture
def default_recursion_limit():
    """The interpreter's default recursion limit, 1,000, for one test."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def pair(monkeypatch):
    """A 2-ary `pair` row and its class, registered for one test only:
    _shape enters its tag and its spellings #pair and astPair."""
    monkeypatch.setitem(signature._BY_NAME, "pair",
                        signature.CtorSpec("pair", "pair", 2))
    for table, key in ((syntax.TAGS, "pair"),
                       (syntax.TAG_OF_SPELLING, "#pair"),
                       (syntax.TAG_OF_SPELLING, "astPair")):
        monkeypatch.setitem(table, key, None)  # undone: deleted

    @syntax._shape("pair", "fst", "snd")
    @dataclass(frozen=True)
    class Pair(Term):
        fst: Term
        snd: Term

    return Pair
