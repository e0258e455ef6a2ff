"""benchmarks/check_regression.py — the kernel, sweep and coverage gates.

One script serves all three gates through one ``compare()`` and one
``main()``; each class below pins one gate.  ``_gate()`` returns the
script with its gate name bound, so ``compare(baseline, current, tol)``
and ``main([prog, baseline, current])`` read the same for every gate.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import pathlib
import sys
from types import SimpleNamespace

import pytest

from repro.sweep import load_spec, run_campaign

ROOT = pathlib.Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py"
)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def _bound(name):
    """Gate *name*, with ``compare``/``main`` taking no gate argument."""
    return SimpleNamespace(
        compare=functools.partial(check_regression.compare, name),
        main=lambda argv: check_regression.main([argv[0], name, *argv[1:]]),
    )


@pytest.mark.parametrize("name", sorted(check_regression.GATES))
def test_committed_baseline_passes_against_itself(name):
    path = ROOT / check_regression.GATES[name].baseline
    baseline = json.loads(path.read_text(encoding="utf-8"))
    lines, regressions = check_regression.compare(name, baseline, baseline, 0.0)
    assert not regressions
    assert any("✅" in line for line in lines)


def test_usage_errors_exit_2(capsys):
    assert check_regression.main(["x"]) == 2
    assert check_regression.main(["x", "nope"]) == 2
    assert check_regression.main(["x", "kernel", "a", "b", "c"]) == 2
    assert "kernel|sweep|coverage" in capsys.readouterr().out


@pytest.mark.parametrize("raw", ["abc", "1.5", "-0.1"])
def test_tolerance_is_range_checked(raw, monkeypatch):
    monkeypatch.setenv("BENCH_TOLERANCE", raw)
    with pytest.raises(SystemExit):
        check_regression.tolerance()


class TestKernelRegressionGate:
    """``check_regression.py kernel`` — the engine-comparison ratios."""

    @staticmethod
    def _gate():
        return _bound("kernel")

    @staticmethod
    def _results():
        return {
            "mode": "full",
            "python": "3.11",
            "workloads": {
                "mt_pipeline": {
                    "compiled_speedup": 3.85,
                    "ensemble_speedup": 10.57,
                    "profile_overhead": 0.95,
                },
                "md5": {"compiled_speedup": 4.19},
            },
        }

    def test_identical_results_pass(self):
        gate = self._gate()
        lines, regressions = gate.compare(self._results(), self._results(), 0.25)
        assert not regressions
        assert any("✅" in line for line in lines)

    def test_ratio_drop_beyond_tolerance_regresses(self):
        gate = self._gate()
        current = self._results()
        current["workloads"]["mt_pipeline"]["compiled_speedup"] = 2.5  # -35%
        current["workloads"]["mt_pipeline"]["ensemble_speedup"] = 9.0  # -15%
        _lines, regressions = gate.compare(self._results(), current, 0.25)
        assert len(regressions) == 1
        assert "mt_pipeline" in regressions[0]
        assert "compiled/naive" in regressions[0]

    def test_ratio_absent_from_both_not_gated(self):
        gate = self._gate()
        lines, regressions = gate.compare(self._results(), self._results(), 0.25)
        assert not regressions
        assert not any("`md5`" in line and "ensemble/serial" in line for line in lines)

    def test_missing_workload_regresses(self):
        gate = self._gate()
        current = self._results()
        del current["workloads"]["md5"]
        _lines, regressions = gate.compare(self._results(), current, 0.25)
        assert regressions == ["md5: missing or failed in current report"]

    def test_new_workload_not_gated(self):
        gate = self._gate()
        current = self._results()
        current["workloads"]["mt_ring"] = {"compiled_speedup": 1.0}
        lines, regressions = gate.compare(self._results(), current, 0.25)
        assert not regressions
        assert any("mt_ring" in line and "not gated" in line for line in lines)

    def test_baseline_ratio_missing_from_current_regresses(self):
        gate = self._gate()
        current = self._results()
        del current["workloads"]["mt_pipeline"]["profile_overhead"]
        _lines, regressions = gate.compare(self._results(), current, 0.25)
        assert len(regressions) == 1
        assert "profile-off/plain" in regressions[0]
        assert "missing from the current report" in regressions[0]

    def test_main_writes_delta_and_exit_codes(self, tmp_path, monkeypatch):
        gate = self._gate()
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(self._results()), encoding="utf-8")
        cur_path.write_text(json.dumps(self._results()), encoding="utf-8")
        monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
        assert gate.main(["x", str(base_path), str(cur_path)]) == 0
        assert (tmp_path / "regression_delta.md").exists()
        bad = self._results()
        bad["workloads"]["md5"]["compiled_speedup"] = 1.0
        cur_path.write_text(json.dumps(bad), encoding="utf-8")
        assert gate.main(["x", str(base_path), str(cur_path)]) == 1
        monkeypatch.setenv("BENCH_TOLERANCE", "0.9")
        assert gate.main(["x", str(base_path), str(cur_path)]) == 0
        assert gate.main(["x", str(base_path), str(tmp_path / "nope")]) == 2


class TestSweepRegressionGate:
    """``check_regression.py sweep`` — the campaign-level gate."""

    @staticmethod
    def _gate():
        return _bound("sweep")

    @staticmethod
    def _report(**overrides):
        base = {
            "campaign": {"name": "t", "seed": 1, "engine": None, "workers": 1},
            "summary": {},
            "scenarios": [
                {
                    "key": "mt_pipeline(threads=2)/uniform",
                    "status": "ok",
                    "metrics": {"cycles": 100, "utilization": 0.8},
                },
                {
                    "key": "processor(threads=2)/bursty[kind=bursty]",
                    "status": "ok",
                    "metrics": {"cycles": 500, "ipc": 1.5},
                },
            ],
        }
        base.update(overrides)
        return base

    def test_identical_reports_pass(self):
        gate = self._gate()
        lines, regressions = gate.compare(self._report(), self._report(), 0.25)
        assert not regressions
        assert any("✅" in line for line in lines)

    def test_cycle_rise_and_ipc_drop_regress(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][0]["metrics"]["cycles"] = 150   # +50% cycles
        current["scenarios"][1]["metrics"]["ipc"] = 1.0      # -33% ipc
        lines, regressions = gate.compare(self._report(), current, 0.25)
        assert len(regressions) == 2
        assert any("cycles" in msg for msg in regressions)
        assert any("ipc" in msg for msg in regressions)

    def test_vanished_gated_metric_regresses(self):
        gate = self._gate()
        current = self._report()
        del current["scenarios"][0]["metrics"]["cycles"]  # shape drift
        _lines, regressions = gate.compare(self._report(), current, 0.25)
        assert regressions and "missing from the current report" in regressions[0]

    def test_missing_or_failed_scenario_regresses(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][1]["status"] = "error"
        _lines, regressions = gate.compare(self._report(), current, 0.25)
        assert regressions and "missing or failed" in regressions[0]

    def test_new_scenario_not_gated(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"].append({
            "key": "mt_ring(trips=2)/uniform",
            "status": "ok",
            "metrics": {"cycles": 10},
        })
        lines, regressions = gate.compare(self._report(), current, 0.25)
        assert not regressions
        assert any("not gated" in line for line in lines)

    def test_main_writes_delta_and_exit_codes(self, tmp_path, monkeypatch):
        gate = self._gate()
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(self._report()), encoding="utf-8")
        current = self._report()
        cur_path.write_text(json.dumps(current), encoding="utf-8")
        monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
        assert gate.main(["x", str(base_path), str(cur_path)]) == 0
        assert (tmp_path / "sweep_regression_delta.md").exists()
        current["scenarios"][0]["metrics"]["cycles"] = 1000
        cur_path.write_text(json.dumps(current), encoding="utf-8")
        assert gate.main(["x", str(base_path), str(cur_path)]) == 1
        assert gate.main(["x", str(tmp_path / "nope.json"), str(cur_path)]) == 2

    def test_committed_baseline_matches_a_fresh_campaign_run(self):
        """The acceptance property: the example campaign reproduces the
        committed BENCH_sweep.json scenario metrics bit-for-bit."""
        if sys.version_info < (3, 11):
            pytest.skip("tomllib needs Python 3.11+")
        gate = self._gate()
        root = ROOT
        baseline = json.loads(
            (root / "BENCH_sweep.json").read_text(encoding="utf-8")
        )
        spec = load_spec(root / "examples" / "campaigns" / "paper_sweep.toml")
        report = run_campaign(spec, workers=1)
        _lines, regressions = gate.compare(baseline, report, 0.0)
        assert not regressions


class TestCoverageRegressionGate:
    """``check_regression.py coverage`` — the fuzz-level gate."""

    @staticmethod
    def _gate():
        return _bound("coverage")

    @staticmethod
    def _report():
        return {
            "campaign": {"name": "t", "seed": 1, "engine": None, "workers": 1},
            "summary": {
                "coverage_pct": 50.0,
                "fault_oracles": {"scenarios": 2, "passed": 2,
                                  "pass_rate": 1.0},
            },
            "scenarios": [
                {
                    "key": "fuzz(base=mt_pipeline,threads=2)/fuzz",
                    "status": "ok",
                    "metrics": {"coverage_pct": 50.0, "new_states": 40,
                                "mutants_kept": 5},
                },
                {
                    "key": "fault(fault=drop,threads=2)/inject",
                    "status": "ok",
                    "metrics": {"oracle_ok": True},
                },
            ],
        }

    def test_identical_reports_pass(self):
        gate = self._gate()
        lines, regressions = gate.compare(self._report(), self._report(), 0.25)
        assert not regressions
        assert any("✅" in line for line in lines)

    def test_coverage_drop_and_oracle_flip_regress(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][0]["metrics"]["coverage_pct"] = 30.0  # -40%
        current["scenarios"][1]["metrics"]["oracle_ok"] = False
        current["summary"]["coverage_pct"] = 30.0
        current["summary"]["fault_oracles"]["pass_rate"] = 0.5
        _lines, regressions = gate.compare(self._report(), current, 0.25)
        assert len(regressions) == 4
        assert any("cov %" in msg for msg in regressions)
        assert any("oracle" in msg for msg in regressions)
        assert any("pass rate" in msg for msg in regressions)

    def test_missing_scenario_regresses_new_not_gated(self):
        gate = self._gate()
        current = self._report()
        current["scenarios"][1]["status"] = "error"
        current["scenarios"].append({
            "key": "fault(fault=duplicate,threads=2)/inject",
            "status": "ok",
            "metrics": {"oracle_ok": True},
        })
        lines, regressions = gate.compare(self._report(), current, 0.25)
        assert regressions and "missing or failed" in regressions[0]
        assert any("not gated" in line for line in lines)

    def test_main_writes_delta_and_exit_codes(self, tmp_path, monkeypatch):
        gate = self._gate()
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(self._report()), encoding="utf-8")
        cur_path.write_text(json.dumps(self._report()), encoding="utf-8")
        monkeypatch.delenv("BENCH_TOLERANCE", raising=False)
        assert gate.main(["x", str(base_path), str(cur_path)]) == 0
        assert (tmp_path / "coverage_regression_delta.md").exists()
        bad = self._report()
        bad["summary"]["coverage_pct"] = 1.0
        cur_path.write_text(json.dumps(bad), encoding="utf-8")
        assert gate.main(["x", str(base_path), str(cur_path)]) == 1
        assert gate.main(["x", str(base_path), str(tmp_path / "nope")]) == 2
