"""Calls into hgmp's layers, for the benchmark. Only this module imports hgmp.

Three ways to run a program:

* `run` is the user-visible path that the timed loop measures: source
  text -> parse_term -> run_pipeline -> pretty, or for trace-render one
  in-process `hgmp run --trace json|text FILE` with in-memory sinks.
* `traced_run` does the same work one public entry point at a time, with
  a span around each call (parse_term, free_vars, eval_ct, infer, eval_rt,
  pretty, derivation_to_json + json.dumps, render_derivation) and around
  eval_ul / eval_dl applied to each quoted body.
* `count_rules` reruns the pipeline with derivation trees and counts their
  nodes per relation. Every rule application spends one unit of fuel and
  makes one node, so these counts are the rule counts; `type` nodes are
  checks, not rules.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import hgmp
from hgmp import cli
from hgmp.reduction import derivation_to_json, render_derivation
from hgmp.typecheck import EMPTY_ENV

from programs import Program

FUEL = 10 ** 9  # far above every program's need (fib 16 takes 42,284 rules)
RELATIONS = ("ct", "ul", "dl", "rt")
PIPELINE_LAYERS = ("parser", "syntax.free_vars", "ct", "typecheck", "rt",
                   "syntax.pretty", "render.json", "render.text")
SIDE_LAYERS = ("ul", "dl")  # eval_ul / eval_dl on quoted bodies
ERROR_LAYERS = ("parser", "syntax", "ct", "ul", "dl", "typecheck", "rt",
                "render", "output")
HGMP_DIR = Path(hgmp.__file__).resolve().parent

# Innermost hgmp function on a traceback -> the layer that raised.
_LAYER_OF_FUNCTION = {
    "_ct": "ct", "_ul": "ul", "_dl": "dl", "_rt": "rt", "_arith": "rt",
    "term_to_json": "render", "derivation_to_json": "render",
    "render_derivation": "render", "_emit_trace": "render",
}
_LAYER_OF_MODULE = {"parser": "parser", "syntax": "syntax",
                    "typecheck": "typecheck", "signature": "syntax"}


class WrongOutput(Exception):
    """The program ran but printed something other than its expected value."""


@dataclass
class Result:
    value_text: str | None  # the printed value; None when stdout is a trace
    trace_chars: int = 0    # characters of trace the CLI wrote


def value_of(text: str) -> int | None:
    """The integer a printed value denotes (negatives print in parens)."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    try:
        return int(text)
    except ValueError:
        return None


def check(prog: Program, result: Result):
    """Raises WrongOutput unless `result` is what `prog` must print."""
    if result.value_text is None:
        if result.trace_chars == 0:
            raise WrongOutput(f"{prog.kind} {prog.size}: empty trace")
    elif value_of(result.value_text) != prog.expected:
        raise WrongOutput(f"{prog.kind} {prog.size}: expected "
                          f"{prog.expected}, got {result.value_text!r}")


def failing_layer(exc: BaseException) -> str:
    """Which layer raised `exc`, for the per-layer error counts."""
    if isinstance(exc, WrongOutput):
        return "output"
    if isinstance(exc, hgmp.ParseError):
        return "parser"
    if isinstance(exc, hgmp.TypeErrorDetail):
        return "typecheck"
    if isinstance(exc, hgmp.EvalError):
        return "typecheck" if exc.kind == hgmp.EvalError.TYPE else exc.phase
    for frame in reversed(traceback.extract_tb(exc.__traceback__)):
        path = Path(frame.filename)
        if path.parent == HGMP_DIR:
            layer = (_LAYER_OF_FUNCTION.get(frame.name)
                     or _LAYER_OF_MODULE.get(path.stem))
            if layer:
                return layer
    return "output"


class _Sink:
    """Write-only text stream that keeps only the number of characters."""

    def __init__(self):
        self.chars = 0

    def write(self, s: str) -> int:
        self.chars += len(s)
        return len(s)

    def flush(self):
        pass


class CliRunner:
    """Runs `hgmp run` in process on the workload's files, which it writes
    under `workdir`."""

    def __init__(self, workdir: Path, progs: list[Program]):
        self.paths: dict[str, str] = {}
        for prog in progs:
            if prog.source not in self.paths:
                path = workdir / f"p{len(self.paths):03d}.hgmp"
                path.write_text(prog.source, encoding="utf-8")
                self.paths[prog.source] = str(path)

    def run(self, prog: Program, trace: str) -> Result:
        out = _Sink() if trace == "json" else io.StringIO()
        err = _Sink() if trace == "text" else io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["run", "--mode", prog.mode, "--fuel", str(FUEL),
                             "--trace", trace, self.paths[prog.source]])
        if code != 0:
            message = err.getvalue() if isinstance(err, io.StringIO) else ""
            raise WrongOutput(f"{prog.kind} {prog.size}: hgmp run exited "
                              f"{code}: {message.strip()[:200]}")
        if trace == "json":
            return Result(None, out.chars)
        return Result(out.getvalue(), err.chars if trace == "text" else 0)


def run(prog: Program, runner: CliRunner | None) -> Result:
    """The timed, user-visible path."""
    if runner is not None:
        return runner.run(prog, prog.trace)
    term = hgmp.parse_term(prog.source, prog.mode)
    result = hgmp.run_pipeline(term, prog.mode, FUEL)
    return Result(hgmp.pretty(result.value))


### span-traced path

class Spans:
    """Spans of the traced pass, kept in memory: one (program, layer,
    start, end) record per call into a layer. `program` numbers the
    traced program, so the spans of one program share it."""

    def __init__(self, clock):
        self.clock = clock
        self.records: list[tuple[int, str, float, float]] = []
        self.program = 0
        self.failed_layer: str | None = None

    @contextlib.contextmanager
    def span(self, layer: str):
        start = self.clock()
        try:
            yield
        except Exception:
            self.failed_layer = self.failed_layer or layer
            raise
        finally:
            self.records.append((self.program, layer, start, self.clock()))


def children(m):
    """Direct sub-terms of a term, read off its dataclass fields."""
    for field in dataclasses.fields(m):
        v = getattr(m, field.name)
        if isinstance(v, hgmp.Term):
            yield v
        elif isinstance(v, tuple):
            yield from (x for x in v if isinstance(x, hgmp.Term))


def term_size(m) -> int:
    size, stack = 0, [m]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(children(node))
    return size


def quoted_bodies(m) -> list[tuple[object, bool]]:
    """Bodies of the outermost quotes in `m`, each with whether it is free
    of splices (only then is dl of its AST the body again)."""
    found, stack = [], [m]
    while stack:
        node = stack.pop()
        if isinstance(node, hgmp.UpML):
            found.append(node.body)
        else:
            stack.extend(children(node))
    out = []
    for body in found:
        stack, splice_free = [body], True
        while stack and splice_free:
            node = stack.pop()
            splice_free = not isinstance(node, hgmp.DownML)
            stack.extend(children(node))
        out.append((body, splice_free))
    return out


def derivation_nodes(d) -> int:
    size, stack = 0, [d]
    while stack:
        node = stack.pop()
        size += 1
        stack.extend(node.premises)
    return size


def traced_run(prog: Program, spans: Spans, counts: Counter) -> Result:
    """The timed path's work, one layer call at a time under spans, then
    eval_ul / eval_dl on the quoted bodies. For trace-render the relations
    build derivations and the matching renderer runs. Adds sizes to
    `counts`; raises WrongOutput if the value or a ul/dl round trip is
    wrong."""
    traced = prog.trace != "none"
    with spans.span("parser"):
        term = hgmp.parse_term(prog.source, prog.mode)
    with spans.span("syntax.free_vars"):
        free = hgmp.free_vars(term)
    if free:
        raise WrongOutput(f"{prog.kind} {prog.size}: free variables {free}")
    with spans.span("ct"):
        out = hgmp.eval_ct(term, prog.mode, FUEL, trace=traced)
    residual, d_ct = out if traced else (out, None)
    if prog.mode == "typed":
        with spans.span("typecheck"):
            hgmp.infer(EMPTY_ENV, residual, phase="residual check")
    with spans.span("rt"):
        out = hgmp.eval_rt(residual, prog.mode, FUEL, trace=traced)
    value, d_rt = out if traced else (out, None)
    if prog.trace == "json":
        with spans.span("render.json"):
            text = json.dumps([derivation_to_json(d) for d in (d_ct, d_rt)],
                              sort_keys=True, separators=(",", ":"))
        counts["render.json_bytes"] += len(text)
    elif prog.trace == "text":
        with spans.span("render.text"):
            text = "\n".join(render_derivation(d) for d in (d_ct, d_rt))
        counts["render.text_bytes"] += len(text)
    with spans.span("syntax.pretty"):
        shown = hgmp.pretty(value)
    check(prog, Result(shown))

    counts["parser.chars"] += len(prog.source)
    counts["ct.residual_nodes"] += term_size(residual)
    if traced:
        counts["render.derivation_nodes"] += (derivation_nodes(d_ct)
                                              + derivation_nodes(d_rt))
    for body, splice_free in quoted_bodies(term):
        with spans.span("ul"):
            ast = hgmp.eval_ul(body, prog.mode, FUEL)
        if splice_free:
            with spans.span("dl"):
                back = hgmp.eval_dl(ast, FUEL)
            if not hgmp.alpha_eq(back, body):
                spans.failed_layer = "dl"
                raise WrongOutput(f"{prog.kind} {prog.size}: dl of ul of a "
                                  "quoted body is not the body")
    return Result(shown)


### rule counts from derivation trees

def count_rules(prog: Program) -> Counter:
    """Rule applications per relation of one pipeline run, read from its
    derivation trees. Also `rt_stage` (rules in the rt stage alone) and
    `eval_rechecks` (type nodes under rt: eval{T} re-checks)."""
    term = hgmp.parse_term(prog.source, prog.mode)
    result = hgmp.run_pipeline(term, prog.mode, FUEL, trace=True)
    check(prog, Result(hgmp.pretty(result.value)))
    counts = Counter()
    for stage, deriv in result.stages:
        stack = [deriv]
        while stack:
            node = stack.pop()
            stack.extend(node.premises)
            if node.relation == "type":
                if stage == "rt":
                    counts["eval_rechecks"] += 1
                continue
            counts[node.relation] += 1
            if stage == "rt":
                counts["rt_stage"] += 1
    return counts


def rules(counts: Counter) -> int:
    return sum(counts[r] for r in RELATIONS)
