"""Deterministic cost ledger: Python instructions and calls, counted.

On a shared host, wall time of unchanged code moves by tens of percent
from run to run; these counts do not move at all.  A ``sys.settrace``
tracer with ``f_trace_opcodes`` counts every Python bytecode
instruction and every Python call made on the calling thread.  Work
done in C (slicing, hashing, dict operations) is invisible to it, so
the counts attribute and size a change; wall-time medians stay the
ground truth for speed claims.

Two workloads, both at seed 7:

* ``kernel_long``: the five designs of ``perfbench/kernel_long.py``,
  built and driven exactly as that workload does (the module is only
  imported).  One full drive per design from its pristine snapshot;
  reports cycles, ops and calls per cycle, and whether the output
  matched the design's oracle.
* ``paper_sweep``: ``perfbench/campaigns.paper_sweep(7)``, every
  scenario run inline through ``execute_scenario`` with one design
  cache.  Reports ops and calls per family and a sha256 digest of the
  family's metric rows, so a change that alters any result shows up
  next to its cost.

Run from anywhere (about 30 s); it takes no flags and prints one JSON
object::

    python benchmarks/count_ops.py > ops.json

Counts depend on the Python minor version, which the output records.
"""

from __future__ import annotations

import gc
import hashlib
import json
import pathlib
import platform
import sys
from typing import Any, Callable

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 7


def count(fn: Callable[[], Any]) -> tuple[Any, int, int]:
    """Run *fn* while counting: ``(result, ops, calls)``.

    Counts the calling thread only.  The garbage collector is run first
    and held off while counting (as ``timeit`` does), so finalizers of
    earlier garbage never land in the count.  Whatever tracer was
    installed before (a coverage tool, a debugger) is put back
    afterwards; it misses the calls made while counting.
    """
    ops = calls = 0

    def trace(frame, event, _arg):
        nonlocal ops, calls
        if event == "opcode":
            ops += 1
        elif event == "call":
            calls += 1
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        return trace

    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        result = fn()
    finally:
        sys.settrace(previous)
        if gc_was_enabled:
            gc.enable()
    return result, ops, calls


def kernel_long() -> dict[str, dict[str, Any]]:
    import kernel_long as workload

    designs = workload.make_designs(SEED)
    workload.build_all(designs)
    out = {}
    for design in designs:
        design.sim.restore(design.pristine)
        cycles, ops, calls = count(design.drive)
        out[design.name] = {
            "cycles": cycles,
            "ops": ops,
            "calls": calls,
            "ops_per_cycle": round(ops / cycles, 2),
            "calls_per_cycle": round(calls / cycles, 2),
            "output_ok": design.output_ok(),
        }
    return out


def paper_sweep() -> dict[str, Any]:
    from campaigns import paper_sweep as sweep_spec

    from repro.sweep.runner import execute_scenario
    from repro.sweep.spec import from_dict

    spec = from_dict(sweep_spec(SEED))
    cache: dict = {}
    families: dict[str, dict[str, Any]] = {}
    rows: dict[str, list] = {}
    for scenario in spec.scenarios:
        row, ops, calls = count(
            lambda: execute_scenario(scenario, spec.engine, cache)
        )
        fam = families.setdefault(
            scenario.family, {"scenarios": 0, "ops": 0, "calls": 0}
        )
        fam["scenarios"] += 1
        fam["ops"] += ops
        fam["calls"] += calls
        rows.setdefault(scenario.family, []).append(
            [scenario.key, row["status"], row.get("metrics")]
        )
    for name, fam in families.items():
        blob = json.dumps(rows[name], sort_keys=True).encode()
        fam["digest"] = hashlib.sha256(blob).hexdigest()
    return {
        "families": dict(sorted(families.items())),
        "total_ops": sum(f["ops"] for f in families.values()),
        "total_calls": sum(f["calls"] for f in families.values()),
        "errors": sum(
            status != "ok" for fam in rows.values() for _k, status, _m in fam
        ),
    }


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    report = {
        "python": ".".join(platform.python_version_tuple()[:2]),
        "seed": SEED,
        "kernel_long": kernel_long(),
        "paper_sweep": paper_sweep(),
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
