"""Command-line front door: compile, run, step, typecheck, repl, corpus.

Exit codes: 0 success, 1 semantic/type/parse/print error, 2 usage error.
Results go to stdout; every diagnostic goes to stderr. With --trace json
stdout carries a single JSON document instead, or nothing if it fails.
A run's budget is --fuel (or the REPL's :fuel), else DEFAULT_FUEL; one
below 1 is a usage error, and no environment variable sets it.
The CLI runs at a recursion limit of _RECURSION_LIMIT; a term or run
nested deeper than that allows is `error[<stage>]: DepthExhausted` (the
stage, or step's relation, that overflowed), and under typecheck a
TypeErrorDetail of kind depth, each exit 1, never a traceback.

Printing takes one frame a level of the term, so a term that ct or rt
returned prints; a print that still overflows is `error[print]:
DepthExhausted`. A value, residual or offending term is first sized as
a tree on its DAG, since a value that shares its subterms can denote a
tree far larger than its objects: over _PRINT_CAP nodes, a value or
residual is `error[print]: TooLarge: term of N nodes, more than the
10000000 that print`, and an error prints that message, in parentheses,
as its `at:` term. Traces keep their tree formats, uncapped.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import typecheck
from .parser import MODES, ParseError, is_typed, parse_term
from .reduction import (
    DEFAULT_FUEL, Derivation, EvalError, _fuel, _too_deep, eval_ct, eval_dl,
    eval_rt, eval_ul, render_derivation, render_trace, run_pipeline, to_json,
)
from .syntax import Term, alpha_eq, pretty, pretty_type, tree_size
from .typecheck import EMPTY_ENV, TypeErrorDetail

# Big-step recursion tracks term depth; fuel is the real budget, this just
# keeps CPython out of the way at desk scale.
_RECURSION_LIMIT = 20_000
# The most nodes, read as a tree, that a printed value, residual or
# offending term may have.
_PRINT_CAP = 10 ** 7

_STEPPERS = {  # dl alone takes no mode
    "ct": eval_ct,
    "dl": lambda m, mode, fuel, trace: eval_dl(m, fuel, trace),
    "ul": eval_ul,
    "rt": eval_rt,
}


def _step(relation: str, m: Term, mode: str, fuel: int, trace: bool):
    """One relation applied to m: its output, and its derivation when
    trace is set (else None). Untraced, rt runs on closures."""
    out = _STEPPERS[relation](m, mode, fuel, trace)
    return out if trace else (out, None)


def _printed(write, *args) -> str:
    """write(*args), the text of a term or trace to print; one nested
    deeper than printing allows is EvalError DepthExhausted instead."""
    try:
        return write(*args)
    except RecursionError:
        raise _too_deep("print") from None


def _text(m: Term) -> str:
    """pretty(m) as _printed writes it; a term of more than _PRINT_CAP
    nodes, counted on its DAG, is EvalError TooLarge instead."""
    size = tree_size(m)
    if size > _PRINT_CAP:
        raise EvalError(EvalError.SIZE, "print", None,
                        f"term of {size} nodes, more than the {_PRINT_CAP} "
                        "that print")
    return _printed(pretty, m)


def _report(exc: Exception) -> str:
    """The text of an error: an EvalError's offending term as _text
    writes it, or why it cannot be, in parentheses."""
    if type(exc) is not EvalError:
        return str(exc)

    def show(m):
        try:
            return _text(m)
        except EvalError as why:
            return f"({why.message})"
    return exc.describe(show)


def _emit_trace(args, stages: list[tuple[str, Derivation]], residual: Term,
                residual_type, **value) -> bool:
    """Text traces go to stderr; json replaces stdout entirely, and is the
    only path that encodes the residual and the value. True when stdout
    has been written."""
    if args.trace == "text":
        print(_printed(render_trace, stages), file=sys.stderr)
    elif args.trace == "json":
        payload = {"residual": residual, **value, "stages": [
            {"stage": name, "derivation": d} for name, d in stages]}
        if residual_type is not None:
            payload["residualType"] = pretty_type(residual_type)
        print(_printed(to_json, payload))
        return True
    return False


def _read_text(path: str) -> str:
    """The file's text; one that is not UTF-8 is an OSError naming it."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from None


def cmd_compile(args, term: Term) -> int:
    residual, deriv = _step("ct", term, args.mode, args.fuel,
                            args.trace != "none")
    residual_type = None
    if args.mode == "typed":
        residual_type = typecheck.infer(EMPTY_ENV, residual,
                                        phase="residual check")
    if _emit_trace(args, [("ct", deriv)], residual, residual_type):
        return 0
    print(_text(residual))
    if residual_type is not None:
        print(f"-- : {pretty_type(residual_type)}")
    return 0


def cmd_run(args, term: Term) -> int:
    result = run_pipeline(term, args.mode, args.fuel,
                          trace=args.trace != "none")
    if _emit_trace(args, result.stages, result.residual,
                   result.residual_type, value=result.value):
        return 0
    print(_text(result.value))
    return 0


def cmd_step(args, term: Term) -> int:
    out, deriv = _step(args.relation, term, args.mode, args.fuel,
                       args.trace != "none")
    if args.trace == "json":
        print(_printed(to_json, {"out": out, "derivation": deriv}))
        return 0
    if args.trace == "text":
        print(_printed(render_derivation, deriv), file=sys.stderr)
    print(_text(out))
    return 0


def cmd_typecheck(args, term: Term) -> int:
    ty = typecheck.infer(EMPTY_ENV, term, phase="residual check")
    print(pretty_type(ty))
    return 0


### repl

_REPL_HELP = """directives:
  :mode typed|untyped   switch pipeline mode
  :fuel N               set the rule budget
  :trace on|off         print text derivations to stderr
  :ct E  :dl E  :ul E  :rt E   apply one relation to E
  :t E                  infer E's type
  :load FILE            run FILE through the pipeline
  :quit                 leave"""


def repl(args) -> int:
    """Each directive that runs a term calls the command it names, on the
    session's options in args; the session starts untraced."""
    args.trace = "none"
    while True:
        try:
            line = input("hgmp> ")
        except EOFError:
            print()
            return 0
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith(":"):
                head, _, rest = line.partition(" ")
                head, rest = head[1:], rest.strip()
                if head == "quit":
                    return 0
                if head == "help":
                    print(_REPL_HELP)
                elif head == "mode":
                    is_typed(rest)  # a ValueError unless rest is a mode
                    args.mode = rest
                elif head == "fuel":
                    try:
                        fuel = int(rest)
                    except ValueError:
                        raise ValueError(
                            f":fuel takes an integer, got {rest!r}") from None
                    args.fuel = _fuel(fuel)
                elif head == "trace":
                    if rest not in ("on", "off"):
                        raise ValueError(":trace takes on or off")
                    args.trace = "text" if rest == "on" else "none"
                elif head in _STEPPERS:
                    args.relation = head
                    cmd_step(args, parse_term(rest, args.mode))
                elif head == "t":
                    cmd_typecheck(args, parse_term(rest, args.mode))
                elif head == "load":
                    if not rest:
                        raise ValueError(":load takes a file name")
                    cmd_run(args, parse_term(_read_text(rest), args.mode))
                else:
                    raise ValueError(
                        f"unknown directive :{head} (:help lists them)")
            else:
                cmd_run(args, parse_term(line, args.mode))
        except (ParseError, EvalError, TypeErrorDetail, ValueError,
                OSError) as exc:
            print(_report(exc), file=sys.stderr)


### corpus runner

_DIRECTIVES = ("modes", "relation", "compare", "golden")
_COMPARISONS = ("value", "residual", "exact")


def _corpus_directives(text: str) -> dict:
    """Leading `-- key: value` comment lines configure a corpus case: each
    whose key is one word, a directive or not (_run_case fails a case
    with an unknown one). Any other comment line is prose."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("--"):
            if line:
                break
            continue
        key, colon, value = line[2:].partition(":")
        if colon and len(key.split()) == 1:
            out[key.strip()] = value.strip()
    return out


def _expected_for(path: str, mode: str) -> str | None:
    for candidate in (f"{path}.{mode}.expected", f"{path}.expected"):
        if os.path.exists(candidate):
            return _read_text(candidate).strip()
    return None


def _run_case(base: str, text: str, directives: dict, mode: str,
              fuel: int, golden_dir: str) -> list[str]:
    """Returns a list of failure messages; empty means the case passed."""
    name = os.path.basename(base)
    relation = directives.get("relation")
    if mode not in MODES:
        return [f"{name}: -- modes: " + (f"unknown mode {mode!r}" if mode
                                         else "names no mode")]
    unknown = [key for key in directives if key not in _DIRECTIVES]
    if unknown:
        return [f"{name} [{mode}]: -- {unknown[0]}: unknown directive "
                f"{unknown[0]!r}"]
    if relation and relation not in _STEPPERS:
        return [f"{name} [{mode}]: -- relation: unknown relation "
                f"{relation!r}"]
    compare = directives.get("compare", "value")
    if compare not in _COMPARISONS:
        return [f"{name} [{mode}]: -- compare: unknown comparison "
                f"{compare!r}"]
    failures = []
    expected = _expected_for(base, mode)
    if expected is None:
        return [f"{name} [{mode}]: no .expected file"]
    golden = directives.get("golden")
    # Only a golden reads derivations; every other case runs untraced.
    traced = bool(golden) and mode == "untyped"

    outcome_term = None
    outcome_error = None
    stages = None
    try:
        term = parse_term(text, mode)
        if relation:
            outcome_term, deriv = _step(relation, term, mode, fuel, traced)
            stages = ((relation, deriv),)
        else:
            result = run_pipeline(term, mode, fuel, trace=traced)
            outcome_term = (result.value if compare == "value"
                            else result.residual)
            stages = result.stages
    except ParseError as exc:
        outcome_error = ("parse", str(exc))
    except EvalError as exc:
        phase = "type" if exc.kind == EvalError.TYPE else exc.phase
        outcome_error = (phase, str(exc))

    if expected.startswith("error:"):
        want_phase = expected[len("error:"):].strip()
        if outcome_error is None:
            failures.append(
                f"{name} [{mode}]: expected error:{want_phase}, got "
                f"{pretty(outcome_term)}")
        elif outcome_error[0] != want_phase:
            failures.append(
                f"{name} [{mode}]: expected error:{want_phase}, got "
                f"error:{outcome_error[0]} ({outcome_error[1]})")
    elif outcome_error is not None:
        failures.append(f"{name} [{mode}]: expected a value, got "
                        f"error:{outcome_error[0]} ({outcome_error[1]})")
    else:
        try:
            want = parse_term(expected, mode)
        except ParseError as exc:
            return [f"{name} [{mode}]: .expected does not parse: {exc}"]
        # exact compares the printed text, binder annotations included
        if (pretty(want) != pretty(outcome_term) if compare == "exact"
                else not alpha_eq(want, outcome_term)):
            failures.append(
                f"{name} [{mode}]: expected {pretty(want)}, got "
                f"{pretty(outcome_term)}")

    if traced and not failures:
        golden_path = os.path.join(golden_dir, name + ".json")
        if not os.path.exists(golden_path):
            return [f"{name} [{mode}]: missing golden {golden_path}"]
        try:
            with open(golden_path, encoding="utf-8") as handle:
                want_text = json.dumps(json.load(handle)["derivation"],
                                       sort_keys=True, separators=(",", ":"))
        except (ValueError, KeyError, TypeError) as exc:
            # not JSON (or not UTF-8), not an object, or no derivation
            return [f"{name} [{mode}]: golden {golden_path} holds no "
                    f"derivation ({type(exc).__name__}: {exc})"]
        got = {stage: deriv for stage, deriv in stages}.get(golden)
        if got is None:
            failures.append(
                f"{name} [{mode}]: no {golden} derivation recorded")
        elif to_json(got) != want_text:
            failures.append(f"{name} [{mode}]: derivation differs "
                            f"from golden {golden_path}")
    return failures


def cmd_corpus(args) -> int:
    directory = args.file
    if not os.path.isdir(directory):
        print(f"not a directory: {directory}", file=sys.stderr)
        return 2
    golden_dir = os.path.join(directory, "golden")
    cases = sorted(f for f in os.listdir(directory) if f.endswith(".hgmp"))
    if not cases:
        print(f"no .hgmp files under {directory}", file=sys.stderr)
        return 1
    total = 0
    failures: list[str] = []
    for filename in cases:
        path = os.path.join(directory, filename)
        base = path[:-len(".hgmp")]
        text = _read_text(path)
        directives = _corpus_directives(text)
        # An empty modes line runs the case once, to fail it.
        for mode in directives.get("modes", "untyped").split() or [""]:
            total += 1
            failures.extend(
                _run_case(base, text, directives, mode, args.fuel, golden_dir))
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"{total - len(failures)}/{total} corpus cases passed")
    return 0 if not failures else 1


### entry point

@functools.cache  # built once per process; it holds no per-call state
def _build_argparser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hgmp",
        description="compile and run staged meta-programs")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, options=("mode", "fuel", "trace"), file_meta="FILE"):
        """p with the options its command reads, then its file argument."""
        if "mode" in options:
            p.add_argument("--mode", choices=MODES, default="untyped")
        if "fuel" in options:
            p.add_argument("--fuel", type=int, default=None,
                           help=f"rule budget (default {DEFAULT_FUEL})")
        if "trace" in options:
            p.add_argument("--trace", choices=("none", "text", "json"),
                           default="none")
        if file_meta:
            p.add_argument("file", metavar=file_meta)

    common(sub.add_parser("compile", help="run the compile-time relation"))
    common(sub.add_parser("run", help="compile, check (typed), execute"))
    step = sub.add_parser("step", help="apply a single relation")
    step.add_argument("--relation", choices=tuple(_STEPPERS), required=True)
    common(step)
    # typecheck and corpus print no derivation, and a session starts
    # untraced; typecheck runs nothing, and each corpus case names its
    # modes.
    common(sub.add_parser("typecheck", help="infer a term's type"),
           ("mode",))
    common(sub.add_parser("repl", help="interactive session"),
           ("mode", "fuel"), file_meta=None)
    common(sub.add_parser("corpus", help="run a corpus directory"),
           ("fuel",), file_meta="DIR")
    return top


_TERM_COMMANDS = {  # each runs the term in args.file
    "compile": cmd_compile,
    "run": cmd_run,
    "step": cmd_step,
    "typecheck": cmd_typecheck,
}


def main(argv: list[str] | None = None) -> int:
    sys.setrecursionlimit(_RECURSION_LIMIT)
    parser = _build_argparser()
    args = parser.parse_args(argv)
    if "fuel" in args:
        try:
            args.fuel = _fuel(args.fuel)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
    try:
        if args.command == "repl":
            return repl(args)
        if args.command == "corpus":
            return cmd_corpus(args)
        term = parse_term(_read_text(args.file), args.mode)
        return _TERM_COMMANDS[args.command](args, term)
    except (ParseError, TypeErrorDetail, EvalError, OSError) as exc:
        print(_report(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
