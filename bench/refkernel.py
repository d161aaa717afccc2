"""The reference kernel: a fixed, allocation-heavy pure-Python loop.

Timings on a shared virtual machine drift by tens of percent between
minutes and between processes, as neighbours load the other hyperthread,
and the drift moves pure-Python loops alike. The benchmark therefore runs
this kernel right after every timed program and expresses the program's
time in ref units: one ref unit is the time of one kernel call. The kernel
does not import hgmp and must never change, or ref units stop being
comparable across commits.

One call builds trees of small dicts and lists and prints them back to
text recursively, much as hgmp builds terms and pretty-prints or
serialises them. About 10 ms on a 2-vCPU x86-64 VM. Of the kernels tried
(this one, a substitution interpreter over frozen dataclasses, and
`json.dumps` of the same trees), this one followed hgmp's programs most
closely through the machine's slow and fast phases.
"""

from __future__ import annotations

import gc
import time

TREES = 4
DEPTH = 9
NODES = 2 ** (DEPTH + 1) - 1
OPS_PER_CALL = TREES * NODES * 2  # nodes built plus nodes printed
CHECKSUM = 135052  # kernel()'s result; a different value means it changed
# A fixed scale from ref units to seconds, for the one timing that must be
# reported in seconds (set-up): about one kernel call's CPU time on an
# unloaded 2-vCPU x86-64 VM.
NOMINAL_SECONDS = 0.010


def _build(depth: int) -> dict:
    if depth == 0:
        return {"ctor": "int", "children": [], "atom": depth}
    return {"ctor": "app", "children": [_build(depth - 1), _build(depth - 1)]}


def _show(node: dict) -> str:
    kids = ",".join(_show(k) for k in node["children"])
    atom = node.get("atom")
    tail = "" if atom is None else f',"atom":{atom}'
    return f'{{"ctor":"{node["ctor"]}","children":[{kids}]{tail}}}'


def kernel() -> int:
    """One ref unit of work; returns a checksum so nothing is skipped."""
    return sum(len(_show(_build(DEPTH))) for _ in range(TREES))


def timed_kernel() -> float:
    """CPU seconds taken by one kernel call.

    The cyclic garbage collector is off during the call: a collection's
    cost depends on what the benchmarked program left alive, which would
    make the unit depend on the program before it.
    """
    gc.disable()
    try:
        t0 = time.process_time()
        check = kernel()
        t1 = time.process_time()
    finally:
        gc.enable()
    if check != CHECKSUM:
        raise RuntimeError("reference kernel checksum changed")
    return t1 - t0
