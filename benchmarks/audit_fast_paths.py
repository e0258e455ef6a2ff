"""Fast-path audit: what each hand-written step or plan saves, counted.

Every ``compile_comb`` / ``compile_seq`` override is a second copy of a
cycle behaviour the plain ``combinational`` / ``capture`` / ``commit``
methods already define (the naive oracle runs nothing else).  The
compiled engine falls back to those methods for any component whose
hook returns ``None``, so an override can be "removed" without editing
a file: patch it to return ``None`` and count again.

For the unpatched tree and then once per override in :data:`OVERRIDES`,
this script starts a fresh interpreter, patches that one override and
runs ``count_ops.kernel_long()`` and ``count_ops.paper_sweep()`` (see
``benchmarks/count_ops.py``).  A fresh interpreter per variant matters:
within one process a design's first drive counts more ops than later
ones (lazy imports, first-call caches), so in-process reruns are not
comparable.

For each override it prints the largest ops ratio and the largest calls
ratio (variant over unpatched; per cycle for the ``kernel_long``
designs, per family for the paper sweep) and where each occurs, the
verdict under the audit rule (an override stays if removing it raises
ops *or* calls by at least 5% on a benchmark workload that runs it),
and any mismatch that would make the comparison void: a different cycle
count, a failed output oracle, a changed metric-row digest or a
scenario error.

Run from anywhere; it takes no flags and prints a markdown table.  It
takes about eight minutes on a 2-vCPU host with Python 3.11 (19 counts
of ~25 s each).  It exits 1 if any variant shows a mismatch::

    python benchmarks/audit_fast_paths.py
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
from typing import Any

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The rule's threshold: removing an override must cost this much.
KEEP_RATIO = 1.05

#: Every hand-written step or plan in ``src/``, as (module, class,
#: hook).  ``tests/test_count_ops.py`` checks that this list is complete.
OVERRIDES: tuple[tuple[str, str, str], ...] = (
    ("repro.core.meb", "FullMEB", "compile_comb"),
    ("repro.core.meb", "FullMEB", "compile_seq"),
    ("repro.core.meb", "ReducedMEB", "compile_comb"),
    ("repro.core.meb", "ReducedMEB", "compile_seq"),
    ("repro.core.endpoints", "MTSource", "compile_comb"),
    ("repro.core.endpoints", "MTSource", "compile_seq"),
    ("repro.core.endpoints", "MTSink", "compile_seq"),
    ("repro.core.monitor", "MTMonitor", "compile_seq"),
    ("repro.core.function", "MTFunction", "compile_comb"),
    ("repro.core.function", "MTContextFunction", "compile_comb"),
    ("repro.core.function", "MTVariableLatencyUnit", "compile_comb"),
    ("repro.core.function", "MTVariableLatencyUnit", "compile_seq"),
    ("repro.core.barrier", "Barrier", "compile_comb"),
    ("repro.core.barrier", "Barrier", "compile_seq"),
    ("repro.core.operators", "MBranch", "compile_comb"),
    ("repro.core.operators", "MMerge", "compile_comb"),
    ("repro.apps.processor.core", "PCUnit", "compile_comb"),
    ("repro.apps.processor.core", "PCUnit", "compile_seq"),
)


def _count(override: tuple[str, str, str] | None) -> dict[str, Any]:
    """Both counts in a child interpreter, *override* patched out."""
    paths = [str(ROOT / d) for d in ("src", "perfbench", "benchmarks")]
    child = (
        "import importlib, json, sys\n"
        f"sys.path[:0] = {paths!r}\n"
        f"override = {override!r}\n"
        "if override is not None:\n"
        "    module, cls, hook = override\n"
        "    owner = getattr(importlib.import_module(module), cls)\n"
        "    assert hook in vars(owner), override\n"
        "    setattr(owner, hook, lambda self, store: None)\n"
        "import count_ops\n"
        "print(json.dumps({'kernel_long': count_ops.kernel_long(),\n"
        "                  'paper_sweep': count_ops.paper_sweep()}))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True,
        check=True,
    )
    return json.loads(done.stdout)


def _ratios(base: dict[str, Any], variant: dict[str, Any]) -> dict[str, Any]:
    """Largest ops/calls ratios over designs and families, plus flags."""
    best = {"ops": (1.0, "-"), "calls": (1.0, "-")}
    flags: list[str] = []

    def note(kind: str, where: str, old: float, new: float) -> None:
        ratio = new / old if old else 1.0
        if ratio > best[kind][0]:
            best[kind] = (ratio, where)

    for name, b in base["kernel_long"].items():
        v = variant["kernel_long"][name]
        if v["cycles"] != b["cycles"]:
            flags.append(f"{name} cycles {b['cycles']} -> {v['cycles']}")
        if not v["output_ok"]:
            flags.append(f"{name} oracle failed")
        note("ops", name, b["ops_per_cycle"], v["ops_per_cycle"])
        note("calls", name, b["calls_per_cycle"], v["calls_per_cycle"])
    families = variant["paper_sweep"]["families"]
    for name, b in base["paper_sweep"]["families"].items():
        v = families[name]
        if v["digest"] != b["digest"]:
            flags.append(f"{name} digest changed")
        note("ops", f"{name} family", b["ops"], v["ops"])
        note("calls", f"{name} family", b["calls"], v["calls"])
    if variant["paper_sweep"]["errors"]:
        flags.append(f"{variant['paper_sweep']['errors']} scenario errors")
    return {"ops": best["ops"], "calls": best["calls"], "flags": flags}


def main() -> int:
    base = _count(None)
    print("| override | removed: ops (where) | removed: calls (where) "
          "| verdict | mismatches |")
    print("|---|---|---|---|---|")
    void = 0
    for override in OVERRIDES:
        _module, cls, hook = override
        found = _ratios(base, _count(override))
        (ops, ops_at), (calls, calls_at) = found["ops"], found["calls"]
        verdict = "keep" if max(ops, calls) >= KEEP_RATIO else "delete"
        void += bool(found["flags"])
        print(f"| `{cls}.{hook}` | x{ops:.3f} ({ops_at}) "
              f"| x{calls:.3f} ({calls_at}) | {verdict} "
              f"| {'; '.join(found['flags']) or '-'} |", flush=True)
    return 1 if void else 0


if __name__ == "__main__":
    sys.exit(main())
