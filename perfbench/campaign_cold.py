"""campaign_cold: one scaled paper sweep on a fresh 2-worker JobService.

Each request builds a new ``JobService`` (in-memory dedup store),
starts its pool with a one-scenario warm-up campaign whose design the
sweep never uses, then expands, submits and waits for the 144-scenario
sweep: every design builds cold in its worker, ensembles batch and
fuzz/fault scenarios fork.  The canonical report of every request must
equal a serial ``ensemble="off"`` inline reference, computed once per
run after the timed phase (so it cannot inflate the footprint the
workers inherit).

Traced mode reads each job's merged span trace (``JobService.trace``;
the workers record it through ``execute_unit(..., tracer=...)``) and
times the planning, aggregation, canonicalisation and store writes from
outside on the returned report.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import defaultdict

from campaigns import scaled_sweep
from ledger import (FAMILIES, Result, children_peak_rss_mb, median, quantile,
                    self_peak_rss_mb)

WORKERS = 2

#: Starts the pool; its design (one thread, one stage) is not in the sweep.
WARMUP = {
    "campaign": {"name": "pool-warmup", "seed": 0, "engine": "compiled"},
    "scenarios": [{"family": "mt_pipeline",
                   "params": {"threads": 1, "n_stages": 1},
                   "stimulus": {"kind": "uniform", "items_per_thread": 2}}],
}


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _exact(report: dict) -> dict:
    summary = report["summary"]
    return {
        "total_cycles": summary.get("total_cycles"),
        "coverage_pct": summary.get("coverage_pct"),
        "new_states": summary.get("new_states"),
        "fault_oracles": summary.get("fault_oracles"),
        "mutant_digest": _digest([
            row["metrics"].get("mutants_kept")
            for row in report["scenarios"] if row["family"] == "fuzz"
        ]),
        "canonical_digest": _digest(report),
    }


def _span_layers(spans: list[dict], family_of: dict[str, str]) -> dict:
    """Per-layer numbers from one job's merged span trace."""
    by_id = {s["span_id"]: s for s in spans}
    job = next(s for s in spans if s["name"] == "job")
    busy: dict[int, float] = defaultdict(float)
    out = {"build_s": 0.0, "builds": 0, "hits": 0, "simulate_s": 0.0}
    per_family = dict.fromkeys(FAMILIES, 0.0)
    for s in spans:
        name = s["name"]
        if name == "unit":
            busy[s["attrs"]["worker"]] += s["duration_s"]
        elif name == "build":
            out["build_s"] += s["duration_s"]
            if s["attrs"].get("design_cache") == "build":
                out["builds"] += 1
            else:
                out["hits"] += 1
        elif name == "simulate":
            out["simulate_s"] += s["duration_s"]
            key = by_id[s["parent_id"]]["attrs"]["key"]
            per_family[family_of[key]] += s["duration_s"]
    busiest = max(busy.values())
    out.update(
        job_s=job["duration_s"],
        busy_max=busiest,
        idle_frac=1 - sum(busy.values()) / (WORKERS * job["duration_s"]),
        unattributed_s=job["duration_s"] - busiest,
        per_family=per_family,
    )
    return out


def _one_campaign(mapping: dict, traced: bool, result: Result) -> dict:
    """Set up a fresh service, run the sweep once; returns the samples."""
    from repro.sweep.jobs import JobService
    from repro.sweep.report import aggregate, canonical_report
    from repro.sweep.runner import plan_units
    from repro.sweep.spec import from_dict
    from repro.sweep.store import ResultStore

    sample: dict = {}
    t0 = time.perf_counter()
    service = JobService(workers=WORKERS, store=True)
    try:
        warm = service.result(service.submit(WARMUP), timeout=60)
        result.check(warm["summary"]["failed"] == 0, "pool warm-up failed")
        t1 = time.perf_counter()
        spec = from_dict(mapping)
        t2 = time.perf_counter()
        job_id = service.submit(spec)
        report = service.result(job_id, timeout=120)
        t3 = time.perf_counter()
        canonical = canonical_report(report)
        t4 = time.perf_counter()
        sample.update(setup_s=t1 - t0, expand_s=t2 - t1, request_s=t3 - t1,
                      canonical_s=t4 - t3, canonical=canonical,
                      failed_rows=report["summary"]["failed"],
                      fallbacks=sum(
                          1 for row in report["scenarios"]
                          if row.get("ensemble") == "fallback"))
        if traced:
            t5 = time.perf_counter()
            units = plan_units(spec.scenarios, service.ensemble)
            t6 = time.perf_counter()
            aggregate(spec, report["scenarios"], engine=spec.engine,
                      workers=WORKERS, elapsed_s=t3 - t2)
            t7 = time.perf_counter()
            store = ResultStore()
            for scenario, row in zip(spec.scenarios, report["scenarios"]):
                store.put(scenario.result_key(), row)
            t8 = time.perf_counter()
            family_of = {s.key: s.family for s in spec.scenarios}
            sample.update(
                plan_s=t6 - t5, aggregate_s=t7 - t6, put_s=t8 - t7,
                units=len(units),
                ensemble_lanes=sum(len(u) for u in units if len(u) > 1),
                spans=_span_layers(service.trace(job_id), family_of),
            )
    finally:
        service.close()
    sample["iteration_s"] = time.perf_counter() - t0
    return sample


def _measure(mapping, seconds, traced, result) -> list[dict]:
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not samples:
        samples.append(_one_campaign(mapping, traced, result))
    return samples


def run(seed: int, seconds: float, trace: bool, paths: dict) -> Result:
    from repro.sweep.report import canonical_report
    from repro.sweep.runner import run_campaign
    from repro.sweep.spec import from_dict

    result = Result()
    mapping = scaled_sweep(seed)
    untraced = _measure(mapping, seconds / 2 if trace else seconds, False,
                        result)
    traced = _measure(mapping, seconds / 2, True, result) if trace else []
    peak_rss = max(self_peak_rss_mb(), children_peak_rss_mb())

    reference = canonical_report(
        run_campaign(from_dict(mapping), workers=1, ensemble="off"))
    result.check(reference["summary"]["failed"] == 0,
                 "reference campaign has failed scenarios")
    for i, s in enumerate(untraced + traced):
        result.check(s["failed_rows"] == 0 and s["canonical"] == reference,
                     f"campaign {i}: report differs from the serial "
                     f"reference ({s['failed_rows']} failed rows)")

    requests = [s["request_s"] for s in untraced]
    per_request = median(requests)
    result.end_to_end = {
        "setup_s": median([s["setup_s"] for s in untraced]),
        "sim_cycles_per_s": reference["summary"]["total_cycles"]
        / per_request,
        "scenarios_per_s": len(reference["scenarios"]) / per_request,
        "req_per_s": 1 / per_request,
        "req_p50_ms": quantile(requests, 0.5) * 1e3,
        "req_p95_ms": quantile(requests, 0.95) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    result.samples = {"campaigns": len(untraced), "setup": len(untraced),
                      "scenarios_per_campaign": len(reference["scenarios"])}
    result.exact = {"reference": _exact(reference)}
    if not trace:
        return result

    spans = [s["spans"] for s in traced]
    layers = result.layers

    def med(key):
        return median([s[key] for s in traced])

    def med_span(key):
        return median([s[key] for s in spans])

    layers["sweep.spec.expand_s"] = med("expand_s")
    layers["sweep.runner.plan_s"] = med("plan_s")
    layers["sweep.runner.units"] = traced[0]["units"]
    layers["sweep.runner.ensemble_lanes"] = traced[0]["ensemble_lanes"]
    layers["sweep.runner.build_s"] = med_span("build_s")
    layers["sweep.runner.builds"] = spans[0]["builds"]
    layers["sweep.runner.cache_hit_ratio"] = spans[0]["hits"] / (
        spans[0]["hits"] + spans[0]["builds"])
    layers["sweep.runner.simulate_s"] = med_span("simulate_s")
    for family in FAMILIES:
        layers[f"sweep.runner.simulate_s.{family}"] = median(
            [s["per_family"][family] for s in spans])
    layers["sweep.runner.ensemble_fallbacks"] = max(
        s["fallbacks"] for s in traced)
    layers["sweep.jobs.worker_busy_s.max"] = med_span("busy_max")
    layers["sweep.jobs.worker_idle_frac"] = med_span("idle_frac")
    layers["sweep.jobs.unattributed_s"] = med_span("unattributed_s")
    layers["sweep.report.aggregate_s"] = med("aggregate_s")
    layers["sweep.report.canonical_s"] = med("canonical_s")
    layers["sweep.store.put_s"] = med("put_s")
    layers["obs.trace_overhead"] = (
        median([s["iteration_s"] for s in traced])
        / median([s["iteration_s"] for s in untraced]))
    layers["obs.attributed_frac"] = median([
        (s["expand_s"] + s["spans"]["busy_max"]) / s["request_s"]
        for s in traced
    ])
    result.samples["traced_campaigns"] = len(traced)
    result.exact["builds_per_campaign"] = sorted(
        {s["builds"] for s in spans})
    return result
