"""Smoke test of the benchmark: python3 -m pytest bench/test_smoke.py

Runs each workload briefly in both modes and checks the output contract
against BENCHMARK.json, checks that rule counts equal fuel spent, and that
the benchmark fails cleanly where hgmp is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import programs  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_inputs_depend_only_on_the_seed():
    for make in programs.WORKLOADS.values():
        assert programs.digest(make(1)) == programs.digest(make(1))
        assert programs.digest(make(1)) != programs.digest(make(2))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_rule_counts_are_fuel(workload):
    """The smallest program of each kind needs exactly as much fuel as its
    derivation trees have rule nodes."""
    import hgmp
    smallest = {}
    for prog in programs.WORKLOADS[workload](3):
        if prog.kind not in smallest or prog.size < smallest[prog.kind].size:
            smallest[prog.kind] = prog
    for prog in smallest.values():
        rules = layers.rules(layers.count_rules(prog))
        term = hgmp.parse_term(prog.source, prog.mode)
        hgmp.run_pipeline(term, prog.mode, rules)
        with pytest.raises(hgmp.EvalError) as info:
            hgmp.run_pipeline(term, prog.mode, rules - 1)
        assert info.value.kind == hgmp.EvalError.FUEL


def test_fails_without_hgmp(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
