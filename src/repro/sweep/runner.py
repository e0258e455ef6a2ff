"""Scenario execution: the one place a scenario actually runs.

PR 6 split this module's old orchestration/execution mix in two:

* **Execution** (this module): :func:`execute_scenario` builds — or
  rewinds — a design and drives one scenario to metrics
  (:func:`execute_unit` adds ensemble batches on top).  It is the
  single primitive every runner shares: the jobs scheduler's thread and
  process workers, and ad-hoc programmatic use.
* **Orchestration** (:mod:`repro.sweep.jobs`): job queueing, worker
  pools, result-store dedup and report assembly.  :func:`run_campaign`
  is kept here as the stable one-shot entry point but is now a thin
  client of the jobs API.

Design reuse works through an explicit *cache* mapping
``(design_key, engine) -> (handle, pristine_snapshot)``: built on first
use, every later scenario of the same design starts from a ``restore``
of the pristine snapshot instead of a rebuild.  Because the cache key
is pure data, a cache can outlive one campaign — the service's workers
keep theirs across jobs, which is what makes repeated traffic cheap.

Failures are contained per scenario: a build or run that raises is
reported as ``status="error"`` with the traceback (and the cached
design is dropped, so later scenarios re-build cleanly).  Worker-death
containment lives with the worker pool in :mod:`repro.sweep.jobs`.
"""

from __future__ import annotations

import time
import traceback
from typing import Any, Sequence

from repro.kernel.errors import EnsembleUnsupported
from repro.obs.trace import NULL_TRACER
from repro.sweep.registry import get_family
from repro.sweep.spec import CampaignSpec, ScenarioSpec

#: Default lane cap for ``ensemble="auto"`` batching.
DEFAULT_ENSEMBLE_WIDTH = 16

#: Hot-list cap for per-row profile reports (``--profile``): the full
#: per-component table of a big design would dwarf the metrics payload.
PROFILE_TOP = 20


def normalize_ensemble(option: Any) -> int:
    """Resolve an ensemble option to a lane cap (0 disables batching).

    Accepted spellings: ``"auto"``/``None`` (default cap),
    ``"off"``/``0``/``False`` (serial), or an explicit integer cap.
    Caps below 2 are serial by definition.
    """
    if option in (None, "auto"):
        return DEFAULT_ENSEMBLE_WIDTH
    if option in ("off", False):
        return 0
    width = int(option)
    return width if width >= 2 else 0


def plan_units(
    scenarios: Sequence[ScenarioSpec], ensemble: Any = "auto"
) -> list[list[ScenarioSpec]]:
    """Partition *scenarios* into execution units, preserving order.

    A unit is either a singleton (runs through the ordinary serial
    path) or an ensemble batch: 2..cap scenarios whose family declared
    :class:`~repro.sweep.registry.EnsembleSupport` and whose
    ``group_key`` values are equal — i.e. identical design *and*
    identical control schedule, differing only in data payloads.  Units
    appear in first-scenario order, so a serial walk of the plan is
    deterministic from the scenario list alone.
    """
    cap = normalize_ensemble(ensemble)
    order: list[tuple[str, Any]] = []
    grouped: dict[Any, list[ScenarioSpec]] = {}
    for scenario in scenarios:
        key = None
        if cap >= 2:
            try:
                family = get_family(scenario.family)
            except KeyError:
                # Unknown family: plan it serially so the failure stays
                # a per-scenario error row, not a job-level crash.
                family = None
            if family is not None and family.ensemble is not None:
                key = family.ensemble.group_key(scenario)
        if key is None:
            order.append(("single", scenario))
        else:
            if key not in grouped:
                grouped[key] = []
                order.append(("group", key))
            grouped[key].append(scenario)
    units: list[list[ScenarioSpec]] = []
    for tag, value in order:
        if tag == "single":
            units.append([value])
        else:
            members = grouped[value]
            for i in range(0, len(members), cap):
                units.append(members[i : i + cap])
    return units


def execute_ensemble(
    scenarios: Sequence[ScenarioSpec],
    engine: str | None,
    cache: dict | None = None,
    shard: int | None = None,
    profile: bool = False,
    tracer: Any = None,
    parent: Any = None,
) -> list[dict[str, Any]]:
    """Run a batch of control-identical scenarios in one lockstep sim.

    Returns one report row per scenario, in order.  The lifted design
    is cached under ``(design_key, engine, "ensemble")`` — separate
    from the serial cache, because lifting rewrites component callables
    — and rewound via snapshot/restore between batches.  Any failure of
    the batched path (unsupported component, lane-divergent control,
    mid-flight error) falls back to plain serial execution, so batching
    can never change *whether* a campaign completes, only how fast.
    Per-lane scenario failures do **not** trigger fallback: they
    surface as ordinary ``status="error"`` rows while sibling lanes
    complete.

    With *profile*, a kernel profiler is attached to the lifted
    simulator around the batch; its report (including ensemble lane
    occupancy) lands on the **first** row of the batch only, so report
    aggregation never double-counts a shared simulation.  *tracer* /
    *parent* hang the batch's ``scenario``/``build``/``simulate`` spans
    under the caller's unit span.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    rows = [_scenario_row(s, shard) for s in scenarios]
    start = time.perf_counter()
    cache_key = (scenarios[0].design_key(), engine, "ensemble")
    span = tracer.span(
        "scenario",
        parent=parent,
        key=scenarios[0].key,
        lanes=len(scenarios),
        ensemble=True,
    )
    try:
        with span:
            family = get_family(scenarios[0].family)
            support = family.ensemble
            if support is None:
                raise EnsembleUnsupported(
                    f"family {family.name!r} declares no ensemble support"
                )
            entry = cache.get(cache_key) if cache is not None else None
            with tracer.span("build", parent=span) as build_span:
                if entry is None:
                    handle = family.build(scenarios[0].params, engine)
                    ctx = support.lift(handle)
                    entry = (handle, ctx, handle.sim.snapshot())
                    if cache is not None:
                        cache[cache_key] = entry
                    cache_state = "build"
                else:
                    handle, ctx, pristine = entry
                    handle.sim.restore(pristine)
                    cache_state = "hit"
                build_span.set(design_cache=cache_state)
            prof = None
            with tracer.span("simulate", parent=span):
                if profile:
                    with handle.sim.profile() as prof:
                        outcomes = support.run(handle, ctx, scenarios)
                    prof.note_ensemble(
                        ctx.width, len(scenarios) - len(ctx.failures)
                    )
                else:
                    outcomes = support.run(handle, ctx, scenarios)
    except Exception:
        if cache is not None:
            cache.pop(cache_key, None)
        fallback = [
            execute_scenario(
                s,
                engine,
                cache=cache,
                shard=shard,
                profile=profile,
                tracer=tracer,
                parent=parent,
            )
            for s in scenarios
        ]
        for row in fallback:
            row["ensemble"] = "fallback"
        return fallback
    duration = round(time.perf_counter() - start, 4)
    with tracer.span("metrics", parent=span):
        for row, (status, payload) in zip(rows, outcomes):
            row["ensemble"] = len(scenarios)
            row["design_cache"] = cache_state
            row["status"] = status
            if status == "ok":
                row["metrics"] = payload
            else:
                row["error"] = payload
            row["duration_s"] = duration
        if prof is not None and rows:
            report = prof.report(top=PROFILE_TOP)
            report["unit_scenarios"] = len(scenarios)
            rows[0]["profile"] = report
    return rows


def execute_unit(
    unit: Sequence[ScenarioSpec],
    engine: str | None,
    cache: dict | None = None,
    shard: int | None = None,
    profile: bool = False,
    tracer: Any = None,
    parent: Any = None,
) -> list[dict[str, Any]]:
    """Run one planned unit: singletons serially, batches in lockstep."""
    if len(unit) == 1:
        return [
            execute_scenario(
                unit[0],
                engine,
                cache=cache,
                shard=shard,
                profile=profile,
                tracer=tracer,
                parent=parent,
            )
        ]
    return execute_ensemble(
        unit,
        engine,
        cache=cache,
        shard=shard,
        profile=profile,
        tracer=tracer,
        parent=parent,
    )


def _scenario_row(
    scenario: ScenarioSpec, shard: int | None
) -> dict[str, Any]:
    return {
        "key": scenario.key,
        "index": scenario.index,
        "family": scenario.family,
        "params": dict(scenario.params),
        "stimulus": dict(scenario.stimulus),
        "seed": scenario.seed,
        "shard": shard,
    }


def execute_scenario(
    scenario: ScenarioSpec,
    engine: str | None,
    cache: dict | None = None,
    shard: int | None = None,
    profile: bool = False,
    tracer: Any = None,
    parent: Any = None,
) -> dict[str, Any]:
    """Run one scenario and return its report row.

    With a *cache*, reusable designs are built once per (design key,
    engine) and rewound between scenarios via the kernel's columnar
    snapshot/restore; the row's ``design_cache`` field records whether
    this run hit the cache (``"hit"``), populated it (``"build"``) or
    bypassed it (``"none"``, non-reusable families or no cache given).
    ``design_cache`` is placement metadata, not part of the metrics —
    reports are compared net of it.

    With *profile*, a :class:`~repro.obs.profile.KernelProfiler` is
    attached around the family's run and its report lands in
    ``row["profile"]`` — volatile metadata like ``duration_s``, never
    part of canonical comparison.  *tracer* (a
    :class:`~repro.obs.trace.Tracer`) records
    ``scenario -> build/simulate/metrics`` spans under *parent*.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    row = _scenario_row(scenario, shard)
    start = time.perf_counter()
    cache_key = (scenario.design_key(), engine)
    span = tracer.span(
        "scenario", parent=parent, key=scenario.key, index=scenario.index
    )
    try:
        with span:
            family = get_family(scenario.family)
            with tracer.span("build", parent=span) as build_span:
                if family.reusable and cache is not None:
                    entry = cache.get(cache_key)
                    if entry is None:
                        handle = family.build(scenario.params, engine)
                        cache[cache_key] = (handle, handle.sim.snapshot())
                        row["design_cache"] = "build"
                    else:
                        handle, pristine = entry
                        handle.sim.restore(pristine)
                        row["design_cache"] = "hit"
                else:
                    handle = family.build(scenario.params, engine)
                    row["design_cache"] = "none"
                build_span.set(design_cache=row["design_cache"])
            sim = getattr(handle, "sim", None)
            with tracer.span("simulate", parent=span):
                if profile and sim is not None:
                    with sim.profile() as prof:
                        metrics = family.run(handle, scenario)
                    row["profile"] = prof.report(top=PROFILE_TOP)
                else:
                    metrics = family.run(handle, scenario)
            with tracer.span("metrics", parent=span):
                row["status"] = "ok"
                row["metrics"] = metrics
    except Exception:
        # A failed scenario may leave a shared design mid-flight:
        # drop it so the next scenario of this design rebuilds.
        if cache is not None:
            cache.pop(cache_key, None)
        row["status"] = "error"
        row["error"] = traceback.format_exc()
    row["duration_s"] = round(time.perf_counter() - start, 4)
    return row


def run_campaign(
    spec: CampaignSpec,
    workers: int | None = None,
    engine: str | None = None,
    store: Any = None,
    ensemble: Any = "auto",
    profile: bool = False,
    timeout_s: float | None = None,
    retries: int | None = None,
) -> dict[str, Any]:
    """Execute *spec* and return the aggregated campaign report.

    A thin client of the jobs API: submits the campaign to an ephemeral
    :class:`repro.sweep.jobs.JobService` and waits for the report.
    *workers* / *engine* override the spec's values; ``workers <= 1``
    runs everything inline (no subprocesses).  *store* (a
    :class:`repro.sweep.store.ResultStore` or a path) enables result
    memoization — scenarios whose canonical key is already stored are
    answered from the store without simulating.  *ensemble* controls
    lockstep batching of control-identical scenarios (``"auto"``,
    ``"off"`` or an integer lane cap); reports are bit-identical either
    way, batching only changes throughput.  *profile* attaches the
    kernel profiler per scenario and folds its reports into the rows as
    volatile metadata (see ``docs/observability.md``).  *timeout_s* /
    *retries* set the run's deadline override and retry budget (see
    :meth:`repro.sweep.jobs.JobService.submit`).
    """
    from repro.sweep.jobs import JobService

    if workers is None:
        workers = spec.workers
    with JobService(
        workers=workers,
        engine=engine,
        store=store,
        ensemble=ensemble,
        profile=profile,
    ) as service:
        job_id = service.submit(
            spec, workers=workers, engine=engine, timeout_s=timeout_s,
            retries=retries,
        )
        return service.result(job_id)
