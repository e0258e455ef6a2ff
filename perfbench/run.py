"""The repository benchmark: end-to-end and per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload kernel_long --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond the request timers; ``--trace 1`` spends half of ``--seconds``
untraced and half traced (kernel profiler, job/service span traces and
timers around public calls into each layer) and reports the per-layer
metrics plus the tracing overhead.  Workloads, metric names, units and
the end-to-end metric each per-layer metric should move live in
``perfbench/ledger.py``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it carries
the exact simulated statistics, the sample counts and the machine
calibration.  The program under test is built from ``src/`` next to
this directory; without it the benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import importlib
import json
import pathlib
import signal
import sys

import ledger

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_LIMIT_S = 170


def _check_benchmark_json() -> None:
    """``BENCHMARK.json`` must list exactly the ledger's metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return
    spec = json.loads(path.read_text(encoding="utf-8"))
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
        "workloads": {w["name"] for w in spec["workloads"]},
    }
    ours = {
        "end_to_end": {k: v[0] for k, v in ledger.END_TO_END.items()},
        "per_layer": {k: v[0] for k, v in ledger.PER_LAYER.items()},
        "workloads": set(ledger.WORKLOADS),
    }
    if declared != ours:
        raise SystemExit("BENCHMARK.json disagrees with perfbench/ledger.py")


def _timed_out(_signum, _frame) -> None:
    raise TimeoutError(f"benchmark run exceeded {RUN_LIMIT_S} s")


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _report(workload: str, result: ledger.Result, trace: bool) -> None:
    print(f"# {workload}: {ledger.WORKLOADS[workload]}")
    print(f"# samples: {json.dumps(result.samples, sort_keys=True)}")
    print(f"# error_rate: {result.failed}/{result.attempted} operations "
          f"failed, were refused or produced wrong output")
    for err in result.errors:
        print(f"#   FAILED {err}")
    print("# end-to-end (untraced):")
    for name, (unit, better, _bound) in ledger.END_TO_END.items():
        print(f"  {name:<18} {_fmt(result.end_to_end[name]):>14} {unit:<12} "
              f"({better} is better; "
              f"{ledger.MEANING[workload][name]})")
    if not trace:
        return
    print("# per-layer (traced run):")
    for name, (unit, _better, moves) in ledger.PER_LAYER.items():
        if name in result.layers:
            print(f"  {name:<40} {_fmt(result.layers[name]):>12} "
                  f"{unit:<9} moves {moves}")
    idle = len(ledger.PER_LAYER) - len(result.layers)
    print(f"# {idle} per-layer metrics belong to other workloads and "
          f"read 0 here")
    print(f"# obs.trace_overhead = {result.layers['obs.trace_overhead']:.4f} "
          f"(traced wall / untraced wall)")
    print(f"# per-layer numbers account for "
          f"{100 * result.layers['obs.attributed_frac']:.1f}% of the traced "
          f"wall time")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(ledger.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").exists():
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    _check_benchmark_json()
    # A hung run fails loudly (cleanup still runs) instead of overrunning.
    signal.signal(signal.SIGALRM, _timed_out)
    signal.alarm(RUN_LIMIT_S)
    sys.path.insert(0, str(SRC))
    calibration = {"start_s": ledger.calibrate()}
    module = importlib.import_module(args.workload)
    result = module.run(
        args.seed, args.seconds, bool(args.trace),
        {"perfbench": str(HERE), "src": str(SRC)},
    )
    calibration["end_s"] = ledger.calibrate()
    signal.alarm(0)
    trace = bool(args.trace)
    _report(args.workload, result, trace)
    if trace:
        metrics = {
            name: {"value": result.layers.get(name, 0), "unit": unit}
            for name, (unit, _better, _moves) in ledger.PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": result.end_to_end[name], "unit": unit}
            for name, (unit, _better, _bound) in ledger.END_TO_END.items()
        }
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "exact": result.exact,
        "samples": result.samples,
        "calibration_s": calibration,
        "errors": result.errors,
    }, sort_keys=True))
    print(json.dumps({
        "correct": result.failed == 0 and result.attempted > 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
