"""Regression gates: diff a fresh run against its committed baseline.

Usage::

    python benchmarks/check_regression.py {kernel|sweep|coverage} [baseline.json] [current.json]

Each gate is one ``GATES`` entry:

* ``kernel`` gates the speedup ratios ``bench_kernel_perf.py`` writes per
  workload; raw cycles/s are machine-dependent, the ratios are not.
  ``ensemble_speedup`` exists only on the ensemble-capable mt_*
  workloads and ``profile_overhead`` (cps after a profiler
  attach/detach round trip vs plain, nominally 1.0) only on mt_pipeline.
* ``sweep`` and ``coverage`` gate the per-scenario metrics of
  ``examples/campaigns/paper_sweep.toml`` and ``fuzz_campaign.toml``;
  coverage also gates the campaign's summary coverage and fault-oracle
  pass rate (``oracle_ok`` is 0/1 per fault scenario).

Campaign metrics are deterministic, so any sweep or coverage delta is a
code change; the tolerance separates deliberate re-baselining from
accidental drift.  Every gate applies one rule set, with tolerance
``BENCH_TOLERANCE`` (default 0.25):

* a metric regresses when it moves more than the tolerance in its worse
  direction;
* a baseline row (workload, or ok scenario) that is missing or failed in
  the current run regresses; a new row is listed but not gated;
* a baseline metric missing from the current row regresses; a metric
  the baseline lacks, or holds as 0, is not gated.

The markdown delta table goes to stdout, to ``<current dir>/<delta
name>`` (a CI artifact even when the gate passes) and, when
``GITHUB_STEP_SUMMARY`` is set, to the job summary.  Exits 0 when nothing
regressed, 1 on a regression, 2 on a usage error or a missing input.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
from typing import NamedTuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class Gate(NamedTuple):
    title: str
    baseline: str  # default paths, relative to the repo root
    current: str
    delta_name: str  # written next to the current report
    #: ``"workloads"`` (a name -> metrics mapping) or ``"scenarios"``
    #: (the ok scenario rows, keyed by scenario key).
    rows: str
    #: ``(metric key, display label, True when higher is better)``.
    metrics: tuple[tuple[str, str, bool], ...]
    #: ``(key path under the report's summary, display label)``; higher is better.
    summary: tuple[tuple[tuple[str, ...], str], ...] = ()


GATES = {
    "kernel": Gate(
        "Benchmark regression gate",
        "BENCH_kernel.json",
        "benchmarks/results/BENCH_kernel.json",
        "regression_delta.md",
        "workloads",
        (
            ("compiled_speedup", "compiled/naive", True),
            ("ensemble_speedup", "ensemble/serial", True),
            ("profile_overhead", "profile-off/plain", True),
        ),
    ),
    "sweep": Gate(
        "Campaign regression gate",
        "BENCH_sweep.json",
        "sweep-results/paper_sweep.json",
        "sweep_regression_delta.md",
        "scenarios",
        (
            ("cycles", "cycles", False),
            ("cycles_per_digest", "cyc/digest", False),
            ("utilization", "util", True),
            ("ipc", "ipc", True),
        ),
    ),
    "coverage": Gate(
        "Coverage regression gate",
        "BENCH_coverage.json",
        "fuzz-results/fuzz_campaign.json",
        "coverage_regression_delta.md",
        "scenarios",
        (
            ("coverage_pct", "cov %", True),
            ("new_states", "states", True),
            ("mutants_kept", "kept", True),
            ("oracle_ok", "oracle", True),
        ),
        summary=(
            (("coverage_pct",), "summary cov %"),
            (("fault_oracles", "pass_rate"), "fault-oracle pass rate"),
        ),
    ),
}


def tolerance() -> float:
    raw = os.environ.get("BENCH_TOLERANCE", "0.25")
    try:
        value = float(raw)
    except ValueError:
        raise SystemExit(f"invalid BENCH_TOLERANCE {raw!r} (want a float)")
    if not 0 <= value < 1:
        raise SystemExit(f"BENCH_TOLERANCE {value} out of range [0, 1)")
    return value


def _rows(report: dict, source: str) -> dict[str, dict]:
    if source == "workloads":
        return report.get("workloads", {})
    scenarios = report.get("scenarios", ())
    return {row["key"]: row.get("metrics", {}) for row in scenarios if row.get("status") == "ok"}


def _summary(report: dict, path: tuple[str, ...]):
    node = report.get("summary", {})
    for part in path:
        if not isinstance(node, dict):
            return None
        node = node.get(part)
    return node


def compare(name: str, baseline: dict, current: dict, tol: float):
    """Return (markdown lines, regression messages) for gate *name*."""
    gate = GATES[name]
    run = [r.get("campaign", {}).get("name") or r.get("mode", "?") for r in (baseline, current)]
    lines = [
        f"### {gate.title}",
        "",
        f"baseline `{run[0]}` vs current `{run[1]}`; tolerance {tol:.0%}",
        "",
        f"| {gate.rows[:-1]} | metric | baseline | current | delta | status |",
        "|---|---|---|---|---|---|",
    ]
    regressions: list[str] = []

    def check(row, label, base, cur, higher_better):
        if not isinstance(base, (int, float)):
            return  # the baseline does not gate this metric
        if not isinstance(cur, (int, float)):
            regressions.append(f"{row}: gated metric {label!r} missing from the current report")
            lines.append(f"| `{row}` | {label} | {base:g} | — | — | ❌ missing metric |")
            return
        if base == 0:
            return  # a ratio over zero is meaningless; skip
        delta = (cur - base) / base
        ok = cur >= base * (1 - tol) if higher_better else cur <= base * (1 + tol)
        status = "✅ ok" if ok else "❌ regressed"
        lines.append(f"| `{row}` | {label} | {base:g} | {cur:g} | {delta:+.1%} | {status} |")
        if not ok:
            direction = "dropped" if higher_better else "rose"
            regressions.append(
                f"{row}: {label} {direction} {base:g} -> {cur:g} "
                f"({delta:+.1%}, tolerance {tol:.0%})"
            )

    for path, label in gate.summary:
        check("summary", label, _summary(baseline, path), _summary(current, path), True)
    base_rows = _rows(baseline, gate.rows)
    cur_rows = _rows(current, gate.rows)
    for key, base_metrics in base_rows.items():
        cur_metrics = cur_rows.get(key)
        if cur_metrics is None:
            regressions.append(f"{key}: missing or failed in current report")
            lines.append(f"| `{key}` | — | — | — | — | ❌ missing |")
            continue
        for metric, label, higher_better in gate.metrics:
            check(key, label, base_metrics.get(metric), cur_metrics.get(metric), higher_better)
    for key in cur_rows:
        if key not in base_rows:
            lines.append(f"| `{key}` | — | new | — | — | ℹ not gated |")
    return lines, regressions


def main(argv: list[str]) -> int:
    if not 2 <= len(argv) <= 4 or argv[1] not in GATES:
        print(f"usage: {argv[0]} {{{'|'.join(GATES)}}} [baseline.json] [current.json]")
        return 2
    name, gate = argv[1], GATES[argv[1]]
    baseline_path = pathlib.Path(argv[2]) if len(argv) > 2 else REPO_ROOT / gate.baseline
    current_path = pathlib.Path(argv[3]) if len(argv) > 3 else REPO_ROOT / gate.current
    for path, what in ((baseline_path, "baseline"), (current_path, "current")):
        if not path.is_file():
            print(f"error: {what} results not found at {path}")
            return 2
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    current = json.loads(current_path.read_text(encoding="utf-8"))
    lines, regressions = compare(name, baseline, current, tolerance())
    if regressions:
        lines += ["", "**Regressions:**", ""]
        lines += [f"- {msg}" for msg in regressions]
    report = "\n".join(lines) + "\n"
    print(report)
    delta_path = current_path.parent / gate.delta_name
    try:
        delta_path.write_text(report, encoding="utf-8")
    except OSError as exc:  # the table is advisory; never fail on it
        print(f"warning: could not write {delta_path}: {exc}")
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as fh:
            fh.write(report)
    return 1 if regressions else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
