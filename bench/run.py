"""The hgmp benchmark: one workload per run, in one process and one thread.

    python3 bench/run.py --workload rt-numeric|meta-typed|trace-render \\
        --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: a seeded, fixed list of
programs (bench/programs.py) is run in order, over and over, and the next
program starts only when the previous one has finished and been checked
against its expected value. Right after every program a fixed reference
kernel runs (bench/refkernel.py); timings are reported in ref units, the
program's time over the kernel's, because the two drift together on a
shared machine.

--trace 0 times the loop and reports the end-to-end metrics. --trace 1
alternates plain passes and span-traced passes over the list and reports
the per-layer metrics. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics; the lines before it are a
readable report. bench/README.md explains the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# String hashing is randomised per process, and the layout it gives dicts
# and sets moves hgmp's speed by several percent from one process to the
# next. Every run therefore re-executes itself, once, with one fixed seed.
HASH_SEED = "0"
if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != HASH_SEED:
    os.environ["PYTHONHASHSEED"] = HASH_SEED
    os.execv(sys.executable, [sys.executable, *sys.argv])

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import programs  # noqa: E402
import refkernel  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_build"
RECURSION_LIMIT = 20_000  # what the hgmp CLI sets; deep programs need it
SETUP_REPEATS = 5
TAIL_PERCENTILE = 90
MIN_SAMPLES = 100  # so the tail percentile has at least 10 samples beyond it
REF_WINDOW = 5
MB = 1e6

# Programs are timed in CPU time of this single-threaded process: unlike
# wall time it leaves out the moments the VM is not running at all, which
# on a shared host add hundreds of milliseconds to random programs.
cpu_clock = time.process_time


def import_layers():
    """Imports hgmp from this checkout's src/. Returns the layers module and
    the CPU seconds the import took, or (None, 0) without hgmp."""
    sys.path.insert(0, str(SRC))
    c0 = cpu_clock()
    try:
        import layers
    except ImportError as exc:
        print(f"bench: cannot import hgmp from {SRC}: {exc}", file=sys.stderr)
        return None, 0
    imported = cpu_clock() - c0
    if layers.HGMP_DIR != (SRC / "hgmp").resolve():
        print(f"bench: hgmp was imported from {layers.HGMP_DIR}, not {SRC}",
              file=sys.stderr)
        return None, 0
    return layers, imported


@dataclass
class Sample:
    prog: programs.Program
    cpu: float    # program CPU seconds (the whole pipeline for a traced run)
    wall: float   # program wall seconds
    ref: float    # CPU seconds of the kernel call right after it
    result: object = None  # layers.Result, or None when the program failed


class Bench:
    """State of one benchmark run: the programs and what happened to them."""

    def __init__(self, layers, workload: str, seed: int, workdir: Path):
        self.layers = layers
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.errors = Counter()  # failing layer -> count
        self.progs: list[programs.Program] = []
        self.runner = None

    def fail(self, layer: str, exc: BaseException):
        self.errors[layer] += 1
        print(f"FAIL [{layer}] {type(exc).__name__}: {str(exc)[:300]}",
              file=sys.stderr)

    def setup(self):
        """Generate the programs, write the CLI's files and warm up on the
        smallest program of each kind."""
        self.progs = programs.WORKLOADS[self.workload](self.seed)
        if self.workload == "trace-render":
            self.workdir.mkdir(parents=True, exist_ok=True)
            self.runner = self.layers.CliRunner(self.workdir, self.progs)
        for prog in extremes(self.progs, min).values():
            self.attempt(prog)

    def attempt(self, prog) -> Sample:
        """Runs one program on the timed path, then the reference kernel,
        then checks the program's output."""
        self.attempted += 1
        w0, c0 = time.perf_counter(), cpu_clock()
        try:
            result, error = self.layers.run(prog, self.runner), None
        except Exception as exc:  # any failure counts; the loop goes on
            result, error = None, exc
        cpu, wall = cpu_clock() - c0, time.perf_counter() - w0
        sample = Sample(prog, cpu, wall, refkernel.timed_kernel(), result)
        if error is None:
            try:
                self.layers.check(prog, result)
            except self.layers.WrongOutput as exc:
                error = exc
        if error is not None:
            sample.result = None
            self.fail(self.layers.failing_layer(error), error)
        return sample

    def traced_attempt(self, prog, spans, sizes: Counter) -> Sample:
        self.attempted += 1
        spans.program += 1
        spans.failed_layer = None
        w0, c0 = time.perf_counter(), cpu_clock()
        try:
            result = self.layers.traced_run(prog, spans, sizes)
        except Exception as exc:
            self.fail(spans.failed_layer or self.layers.failing_layer(exc),
                      exc)
            result = None
        cpu, wall = cpu_clock() - c0, time.perf_counter() - w0
        return Sample(prog, cpu, wall, refkernel.timed_kernel(), result)

    def rule_counts(self) -> dict:
        """Derivation-tree rule counts of each distinct program; for
        trace-render also checks the untraced `hgmp run` output."""
        out = {}
        for prog in self.progs:
            key = (prog.source, prog.mode)
            if key in out:
                continue
            try:
                out[key] = self.layers.count_rules(prog)
                if self.runner is not None:
                    self.layers.check(prog, self.runner.run(prog, "none"))
            except Exception as exc:
                self.attempted += 1
                self.fail(self.layers.failing_layer(exc), exc)
                out[key] = Counter()
        return out

    def peak_memory(self) -> int:
        """Largest tracemalloc peak, in bytes, over the largest program of
        each kind and trace format, in a pass that is never timed."""
        peak = 0
        for prog in extremes(self.progs, max).values():
            self.attempted += 1
            tracemalloc.start()
            try:
                result = self.layers.run(prog, self.runner)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
                self.layers.check(prog, result)
            except Exception as exc:
                self.fail(self.layers.failing_layer(exc), exc)
            finally:
                tracemalloc.stop()
        return peak


def ref_now() -> float:
    """A ref unit measured on the spot: the median of three kernel calls."""
    return statistics.median(refkernel.timed_kernel() for _ in range(3))


def extremes(progs, pick) -> dict:
    """The smallest or largest (`pick` = min or max) program of each kind
    and trace format."""
    out = {}
    for prog in progs:
        key = (prog.kind, prog.trace)
        if key not in out or pick(prog.size, out[key].size) != out[key].size:
            out[key] = prog
    return out


def quantile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100 * len(ordered)) - 1)]


def ref_units(samples: list[Sample]) -> list[float]:
    """The ref unit for each sample: the median of the kernel calls made
    right after it and after its neighbours, REF_WINDOW on each side. The
    median drops a single disturbed kernel call but follows the machine's
    speed, which changes over seconds, not between programs."""
    refs = [s.ref for s in samples]
    return [statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i in range(len(refs))]


def ratios(samples: list[Sample]) -> list[float]:
    """Each program's CPU time in ref units; a failed program never meets
    any latency limit, so it counts as infinitely slow."""
    return [s.cpu / ref if s.result else math.inf
            for s, ref in zip(samples, ref_units(samples))]


def total_rules(layers, samples: list[Sample], counts: dict) -> int:
    return sum(layers.rules(counts[(s.prog.source, s.prog.mode)])
               for s in samples if s.result)


def rules_per_ref(layers, samples: list[Sample], counts: dict, size: int):
    """Rules completed per ref unit of program time, for each pass of the
    list (`size` samples); the median over passes."""
    lat = ratios(samples)
    return statistics.median(
        total_rules(layers, samples[i:i + size], counts)
        / sum(lat[i:i + size]) for i in range(0, len(samples), size))


def trace_chars(samples: list[Sample]) -> int:
    return sum(s.result.trace_chars for s in samples if s.result)


def end_to_end(bench: Bench, seconds: float, setup_s: float):
    """The timed closed loop, then the rule-count and memory passes."""
    samples: list[Sample] = []
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        samples.extend(bench.attempt(prog) for prog in bench.progs)
        now = time.perf_counter()
        # Whole passes only, so every run samples the same program mix;
        # stop at the pass boundary nearest to the time asked for.
        if (len(samples) >= MIN_SAMPLES
                and now - start + (now - p0) / 2 >= seconds):
            break
    timed = time.perf_counter() - start
    passes = len(samples) // len(bench.progs)
    counts = bench.rule_counts()
    peak = bench.peak_memory()
    lat = ratios(samples)
    fails = sum(1 for s in samples if not s.result)
    report = [
        f"latency_tail_ref is the p{TAIL_PERCENTILE} of {len(samples)} "
        f"samples ({passes} passes of {len(bench.progs)} programs)",
        f"fail_ratio {fails}/{len(samples)} = {fails / len(samples)}",
        f"trace_mb per pass {trace_chars(samples) / passes / MB}",
        f"timed for {timed:.2f} s; reference kernel median "
        f"{statistics.median(s.ref for s in samples) * 1000:.3f} ms CPU",
    ]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ref": (statistics.median(lat), "ref"),
        "latency_tail_ref": (quantile(lat, TAIL_PERCENTILE), "ref"),
        "rules_per_ref": (rules_per_ref(bench.layers, samples, counts,
                                        len(bench.progs)), "rules/ref"),
        "peak_mem_mb": (peak / MB, "MB"),
    }
    return metrics, report


def per_layer(bench: Bench, seconds: float):
    """Alternating plain and span-traced passes, two rule-count passes
    that must agree, and the one-off baseline reproduction."""
    layers = bench.layers
    plain: list[Sample] = []
    traced: list[Sample] = []
    spans, sizes = layers.Spans(cpu_clock), Counter()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.extend(bench.attempt(prog) for prog in bench.progs)
        traced.extend(bench.traced_attempt(prog, spans, sizes)
                      for prog in bench.progs)
    passes = len(traced) // len(bench.progs)
    counts = bench.rule_counts()
    if bench.rule_counts() != counts:
        bench.attempted += 1
        bench.fail("output", RuntimeError("rule counts differ between passes"))
    baseline = reproduce_baseline(bench)

    # Each layer's busy time, in the ref unit of the program it ran in.
    ref_of = dict(enumerate(ref_units(traced), start=1))
    busy = Counter()
    for program, layer, t0, t1 in spans.records:
        busy[layer] += (t1 - t0) / ref_of[program]
    rel = Counter()
    for s in traced:
        rel.update(counts[(s.prog.source, s.prog.mode)])
    pipeline_busy = sum(busy[layer] for layer in layers.PIPELINE_LAYERS)

    def per_pass(value):
        return value / passes

    m = {}
    for layer in layers.PIPELINE_LAYERS + layers.SIDE_LAYERS:
        m[f"{layer}.busy_ref"] = (busy[layer] / len(traced), "ref")
    m["parser.share"] = (busy["parser"] / pipeline_busy, "ratio")
    m["parser.chars"] = (per_pass(sizes["parser.chars"]), "count")
    m["parser.chars_per_ref"] = (sizes["parser.chars"] / busy["parser"],
                                 "chars/ref")
    for relation in layers.RELATIONS:
        m[f"{relation}.rules"] = (per_pass(rel[relation]), "count")
    m["ct.residual_nodes"] = (per_pass(sizes["ct.residual_nodes"]), "count")
    m["typecheck.eval_rechecks"] = (per_pass(rel["eval_rechecks"]), "count")
    m["rt.rules_per_ref"] = (rel["rt_stage"] / busy["rt"], "rules/ref")
    for key in ("render.json_bytes", "render.text_bytes"):
        m[key] = (per_pass(sizes[key]), "bytes")
    m["render.derivation_nodes"] = (per_pass(sizes["render.derivation_nodes"]),
                                    "count")
    m["trace_mb"] = (per_pass(trace_chars(plain)) / MB, "MB")
    m["trace.overhead_ratio"] = (sum(s.cpu for s in traced)
                                 / sum(s.cpu for s in plain), "ratio")
    m["wall.latency_p50_ms"] = (
        statistics.median(s.wall for s in plain if s.result) * 1000, "ms")
    m["wall.rules_per_s"] = (total_rules(layers, plain, counts)
                             / sum(s.wall for s in plain), "rules/s")
    m["ref.kops_per_s"] = (refkernel.OPS_PER_CALL / 1000
                           / statistics.median(s.ref for s in plain), "kops/s")
    for layer in layers.ERROR_LAYERS:
        m[f"{layer}.errors"] = (bench.errors[layer], "count")
    m.update(baseline)
    report = [f"{passes} plain and {passes} traced passes of "
              f"{len(bench.progs)} programs; {len(spans.records)} spans"]
    return m, report


def reproduce_baseline(bench: Bench) -> dict:
    """The ROADMAP's throwaway-script numbers, measured once: rt rules/s
    on fib 18 (untraced, wall time) and the size of `hgmp run --trace json`
    for fib 15."""
    layers = bench.layers
    fib18 = programs.fib_program(18)
    fib15 = programs.fib_program(15, "json")
    out = {"baseline.fib18_rules": (0, "count"),
           "baseline.fib18_rules_per_s": (0.0, "rules/s"),
           "baseline.fib15_json_mb": (0.0, "MB")}
    bench.attempted += 2
    try:
        t0 = time.perf_counter()
        result = layers.run(fib18, None)
        wall = time.perf_counter() - t0
        layers.check(fib18, result)
        rules = layers.rules(layers.count_rules(fib18))
        out["baseline.fib18_rules"] = (rules, "count")
        out["baseline.fib18_rules_per_s"] = (rules / wall, "rules/s")
    except Exception as exc:
        bench.fail(layers.failing_layer(exc), exc)
    try:
        workdir = bench.workdir / "baseline"
        workdir.mkdir(parents=True, exist_ok=True)
        result = layers.CliRunner(workdir, [fib15]).run(fib15, "json")
        out["baseline.fib15_json_mb"] = (result.trace_chars / MB, "MB")
    except Exception as exc:
        bench.fail(layers.failing_layer(exc), exc)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(programs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    os.environ.pop("HGMP_FUEL", None)  # fuel is passed explicitly
    sys.setrecursionlimit(RECURSION_LIMIT)
    startup = cpu_clock()  # interpreter start-up: not hgmp's, not counted
    layers, imported = import_layers()
    if layers is None:
        return 2
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    bench = Bench(layers, args.workload, args.seed, workdir)
    try:
        repeats = [imported / ref_now()]
        for _ in range(SETUP_REPEATS):
            c0 = cpu_clock()
            bench.setup()
            repeats.append((cpu_clock() - c0) / ref_now())
        setup_ref = repeats[0] + statistics.median(repeats[1:])
        setup_s = setup_ref * refkernel.NOMINAL_SECONDS
        if args.trace:
            metrics, report = per_layer(bench, args.seconds)
        else:
            metrics, report = end_to_end(bench, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bench.errors.values())
    print(f"workload {args.workload} seed {args.seed}: {len(bench.progs)} "
          f"programs, digest {programs.digest(bench.progs)}")
    print(f"fuel {layers.FUEL}, recursion limit {RECURSION_LIMIT}, "
          f"HGMP_FUEL cleared; set-up {setup_ref:.2f} ref: importing hgmp "
          f"{repeats[0]:.2f} ref ({imported:.3f} s CPU), then the median of "
          f"{SETUP_REPEATS} set-ups; interpreter start-up (not counted) "
          f"{startup:.3f} s CPU")
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
