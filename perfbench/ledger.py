"""The benchmark's metric ledger and the helpers every workload shares.

This module is the single source of truth for metric names, units and
directions; ``BENCHMARK.json`` at the repository root lists the same
names (``run.py`` refuses to run if the two disagree).  Each per-layer
metric also records which end-to-end metric it should move and on
which workload, so a change that claims a gain on one layer can be
checked against the prediction written here before it was measured.
"""

from __future__ import annotations

import resource
import time
from statistics import median  # noqa: F401  (shared by the workloads)

#: workload -> one-line reason it was chosen, with its loop type.
WORKLOADS = {
    "kernel_long": (
        "closed loop, 1 client, in-process: long compiled-engine runs of "
        "5 prebuilt designs isolate the kernel/core/apps run-loop floor "
        "with no campaign or service code"
    ),
    "campaign_cold": (
        "closed loop, 1 client, fresh 2-worker JobService per campaign: a "
        "cold 144-scenario paper sweep stresses sweep.* orchestration, "
        "build/codegen and worker dispatch balance"
    ),
    "service_mixed": (
        "closed loop, 2 HTTP clients, python -m repro.serve --workers 2: 7 "
        "in 8 requests are dedup-store hits (pure service overhead), 1 in 8 "
        "simulate a never-seen seed"
    ),
}

#: name -> (unit, better, bound).  Every workload reports every one.
#: The time bounds are wide because the host's speed drifts: ten
#: back-to-back kernel_long runs spread by up to 22% (quartile distance
#: over median) with no change to the program.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "sim_cycles_per_s": ("cycles/s", "higher", 0.25),
    "scenarios_per_s": ("scenarios/s", "higher", 0.25),
    "req_per_s": ("req/s", "higher", 0.25),
    "req_p50_ms": ("ms", "lower", 0.25),
    "req_p95_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

#: What each end-to-end metric means on each workload.  A "request" is
#: the unit of work a user of that workload waits for.
MEANING = {
    "kernel_long": {
        "setup_s": "imports + build and snapshot of all 5 designs "
                   "(median of 5 fresh interpreters)",
        "sim_cycles_per_s": "simulated cycles / host s of the timed sim "
                            "calls, each design at its median run",
        "scenarios_per_s": "design runs / host s of the timed sim calls, "
                           "each design at its median run",
        "req_per_s": "design runs (restore + drive) per s, each design at "
                     "its median request",
        "req_p50_ms": "one design run to completion",
        "req_p95_ms": "one design run to completion",
        "peak_rss_mb": "benchmark process (it hosts the kernel)",
    },
    "campaign_cold": {
        "setup_s": "JobService construction + 2-worker pool start "
                   "(median over campaigns)",
        "sim_cycles_per_s": "campaign total_cycles / submit->report wall",
        "scenarios_per_s": "scenarios / submit->report wall",
        "req_per_s": "campaigns / submit->report wall",
        "req_p50_ms": "one cold campaign, spec expand -> report",
        "req_p95_ms": "one cold campaign, spec expand -> report",
        "peak_rss_mb": "largest of the service process and its workers",
    },
    "service_mixed": {
        "setup_s": "server spawn + wait_ready + hot-set warm-up "
                   "(median of 3 servers)",
        "sim_cycles_per_s": "miss total_cycles / miss submit->report wall",
        "scenarios_per_s": "scenarios answered / measured wall",
        "req_per_s": "HTTP campaign requests / measured wall",
        "req_p50_ms": "one HTTP campaign submit->report",
        "req_p95_ms": "one HTTP campaign submit->report",
        "peak_rss_mb": "server process high-water (VmHWM)",
    },
}

#: kernel_long's designs, in run order.
DESIGNS = ("mt_pipeline", "mt_chain", "processor", "md5_pipelined",
           "mt_bursty")

#: campaign_cold's design families (the paper sweep's seven).
FAMILIES = ("mt_pipeline", "mt_chain", "mt_ring", "md5", "processor",
            "fuzz", "fault")

_KERNEL_RUN = "sim_cycles_per_s on kernel_long; req_p95_ms on service_mixed"


def _per_layer() -> dict[str, tuple[str, str, str]]:
    """name -> (unit, better, which end-to-end metric it should move)."""
    rows: dict[str, tuple[str, str, str]] = {}
    for d in DESIGNS:
        rows[f"kernel.build_s.{d}"] = ("s", "lower", "setup_s on kernel_long")
        rows[f"kernel.run_s.{d}"] = ("s", "lower", _KERNEL_RUN)
        rows[f"kernel.us_per_cycle.{d}"] = ("us/cycle", "lower", _KERNEL_RUN)
        rows[f"kernel.settle_s.{d}"] = ("s", "lower", _KERNEL_RUN)
        rows[f"kernel.tick_s.{d}"] = ("s", "lower", _KERNEL_RUN)
        rows[f"kernel.fused_s.{d}"] = ("s", "lower", _KERNEL_RUN)
        rows[f"kernel.fusion_utilization.{d}"] = (
            "ratio", "higher", _KERNEL_RUN)
        rows[f"kernel.settle_iters_per_cycle.{d}"] = (
            "count", "lower", _KERNEL_RUN)
        rows[f"core.meb_s.{d}"] = ("s", "lower", _KERNEL_RUN)
        rows[f"kernel.snapshot_s.{d}"] = (
            "s", "lower", "scenarios_per_s on campaign_cold")
        rows[f"kernel.restore_s.{d}"] = (
            "s", "lower", "scenarios_per_s on campaign_cold")
        rows[f"kernel.cycles.{d}"] = (
            "count", "lower", "none (exact count; a speed-only change "
                              "leaves it identical)")
    sweep = "scenarios_per_s on campaign_cold"
    for name, unit, better in (
        ("sweep.spec.expand_s", "s", "lower"),
        ("sweep.runner.plan_s", "s", "lower"),
        ("sweep.runner.units", "count", "lower"),
        ("sweep.runner.ensemble_lanes", "count", "higher"),
        ("sweep.runner.build_s", "s", "lower"),
        ("sweep.runner.builds", "count", "lower"),
        ("sweep.runner.cache_hit_ratio", "ratio", "higher"),
        ("sweep.runner.simulate_s", "s", "lower"),
        *((f"sweep.runner.simulate_s.{f}", "s", "lower") for f in FAMILIES),
        ("sweep.runner.ensemble_fallbacks", "count", "lower"),
        ("sweep.jobs.worker_busy_s.max", "s", "lower"),
        ("sweep.jobs.worker_idle_frac", "ratio", "lower"),
        ("sweep.jobs.unattributed_s", "s", "lower"),
        ("sweep.report.aggregate_s", "s", "lower"),
        ("sweep.report.canonical_s", "s", "lower"),
        ("sweep.store.put_s", "s", "lower"),
    ):
        rows[name] = (unit, better, sweep)
    p50 = "req_p50_ms on service_mixed"
    p95 = "req_p95_ms and req_per_s on service_mixed"
    for name, unit, better, moves in (
        ("serve.http.ping_ms", "ms", "lower", p50),
        ("serve.submit_ms.hit", "ms", "lower", p50),
        ("serve.report_wait_ms.hit", "ms", "lower", p50),
        ("sweep.store.hit_rate", "ratio", "higher", p50),
        ("serve.submit_ms.miss", "ms", "lower", p95),
        ("serve.report_wait_ms.miss", "ms", "lower", p95),
        ("sweep.runner.simulate_s.miss", "s", "lower", p95),
        ("sweep.runner.build_s.miss", "s", "lower", p95),
        ("sweep.jobs.queue_depth.max", "count", "lower",
         "req_per_s on service_mixed"),
    ):
        rows[name] = (unit, better, moves)
    rows["obs.trace_overhead"] = (
        "ratio", "lower", "none (traced wall / untraced wall, per workload)")
    rows["obs.attributed_frac"] = (
        "ratio", "higher",
        "none (share of the traced wall the per-layer numbers account for)")
    return rows


PER_LAYER = _per_layer()


# ----------------------------------------------------------------------
# shared measurement helpers
# ----------------------------------------------------------------------

def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in 0..1) of *samples*."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop (best of 3).

    Recorded at the start and end of every run so numbers taken on
    different machines, or under different background load, can be
    normalised.  Context only; not an end-to-end metric.
    """
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        table = {}
        for i in range(200_000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = acc
        best = min(best, time.perf_counter() - t0)
    return best


def self_peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest high-water resident set of any reaped child, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def pid_peak_rss_mb(pid: int) -> float:
    """High-water resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Result:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.end_to_end: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.exact: dict = {}
        self.samples: dict[str, int] = {}

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record *what* if it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)
