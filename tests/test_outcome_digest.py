"""Outcome digests: a standing oracle for refactors.

Each generator below makes a fixed number of seeded programs; each
runs through run_pipeline untraced and traced, at a budget that runs
out about one time in five. Every outcome is written as text: the
printed value, residual and residual type plus the to_json trace, or
else the error's kind, phase, message and str(), with the
TypeErrorDetail fields. The texts of one generator are hashed into one
SHA-256, so a failure names the generator whose outcomes moved. The
digests in outcome_digests.json were written by the code a refactor
starts from; a refactor that keeps behaviour keeps them.

A change that alters an outcome on purpose rewrites the file, and says
so, with:

    PYTHONPATH=src python tests/test_outcome_digest.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from hgmp.reduction import EvalError, run_pipeline, to_json
from hgmp.syntax import pretty, pretty_type

from gen_terms import (
    gen_compile_candidate, gen_numeric_rec, gen_open_eval, gen_term,
)

DIGESTS = Path(__file__).resolve().parent / "outcome_digests.json"
SEED = 12
FUEL = 3_000

# name: (program generator, pipeline mode, rounds); numeric recursion
# runs longest, so it gets fewer rounds
GENERATORS = {
    "gen_term": (lambda rng: gen_term(rng, rng.randint(0, 4)), "untyped",
                 600),
    "gen_term_typed": (lambda rng: gen_term(rng, rng.randint(0, 4),
                                            typed=True), "typed", 600),
    "gen_compile_candidate": (gen_compile_candidate, "untyped", 600),
    "gen_open_eval": (gen_open_eval, "untyped", 600),
    "gen_numeric_rec": (gen_numeric_rec, "untyped", 200),
}


def _shown(x, show) -> str:
    return "-" if x is None else show(x)


def outcome(program, mode: str, fuel: int, trace: bool) -> str:
    """One run's outcome as text."""
    try:
        result = run_pipeline(program, mode, fuel, trace=trace)
    except EvalError as err:
        text = [err.kind, err.phase, err.message, str(err)]
        detail = err.detail
        if detail is not None:
            text += [detail.kind, detail.message, detail.phase,
                     _shown(detail.expected, pretty_type),
                     _shown(detail.found, pretty_type),
                     _shown(detail.at, pretty)]
        return "error\n" + "\n".join(text)
    return "\n".join([
        "value", pretty(result.value), pretty(result.residual),
        _shown(result.residual_type, pretty_type),
        _shown(result.stages, to_json)])


def digest(name: str) -> str:
    make, mode, rounds = GENERATORS[name]
    rng = random.Random(f"{SEED}:{name}")
    h = hashlib.sha256()
    for _ in range(rounds):
        program = make(rng)
        fuel = rng.randint(1, 40) if rng.random() < 0.2 else FUEL
        for trace in (False, True):
            h.update(outcome(program, mode, fuel, trace).encode("utf-8"))
            h.update(b"\0")
    return h.hexdigest()


def test_outcomes_match_the_pinned_digests():
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    assert (pinned["seed"], pinned["fuel"]) == (SEED, FUEL)
    assert {name: digest(name) for name in GENERATORS} == pinned["digests"]


if __name__ == "__main__":
    sys.setrecursionlimit(20_000)  # as tests/conftest.py sets it
    DIGESTS.write_text(json.dumps(
        {"seed": SEED, "fuel": FUEL,
         "digests": {name: digest(name) for name in GENERATORS}},
        indent=2) + "\n", encoding="utf-8")
