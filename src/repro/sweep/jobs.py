"""The jobs API: campaign simulation as a service, transport-agnostic.

This module is the single programmatic entry point for running
campaigns.  Everything else is a client of it: ``python -m repro.sweep
run`` submits one job to an ephemeral service and waits;
:mod:`repro.serve` wraps a long-running service in an HTTP/JSON front
end; tests and benchmarks drive it directly.

The moving parts of a :class:`JobService`:

* **An async job queue.**  :meth:`~JobService.submit` validates the
  spec (structured :class:`repro.sweep.spec.SpecError` on bad input),
  registers a job and returns its id immediately; a dispatcher thread
  executes jobs FIFO.  :meth:`~JobService.status` /
  :meth:`~JobService.result` / :meth:`~JobService.cancel` observe and
  steer jobs by id.

* **A persistent worker pool with design-cache affinity.**  One
  scheduler feeds a pool of long-lived workers, one unit in flight
  per worker.  With ``workers=N >= 2`` the workers are N processes;
  ``workers<=1`` gives one thread worker (inline execution, no
  subprocesses).  Both kinds run the same unit-execution function
  against a worker-lifetime design cache.  The pool records which
  workers hold each design, and an idle worker takes, by four routes
  in order (see :class:`_Backlog`): a unit of a design it holds
  (``owner``); of an unheld design that :func:`design_affinity`
  assigns to it (``preferred``); of any unheld design (``claimed``);
  else of a design whose holders are all busy (``stolen``).  Taking a
  design makes the worker one of its holders for as long as the pool
  lives, so a stolen design becomes a *replica*: later scenarios of it
  — across *all* jobs — rewind a compiled copy via the kernel's
  columnar snapshot/restore on either holder instead of rebuilding.
  No worker sits idle while another has work pending, and no worker
  takes a design from a holder that is idle.  Within each route the
  design with the most estimated pending work goes first.  A worker
  process that dies fails only the unit it was running
  (``status="worker-failed"``); the pool respawns the worker (cold
  cache, removed from every holder set) and the job continues.

* **A persisted result store with dedup.**  With a
  :class:`repro.sweep.store.ResultStore`, each scenario's canonical
  :meth:`~repro.sweep.spec.ScenarioSpec.result_key` is consulted before
  dispatch: an identical scenario submitted twice returns the stored
  row (``"cached": true``) without simulating.  Metrics are pure
  functions of the scenario, so memoized and fresh reports are
  bit-identical per scenario.

Determinism is inherited, not re-established: scenario seeds derive
from (campaign seed, scenario key) alone and the settle engines are
cycle-identical, so CLI, sharded, pooled and memoized runs of the same
spec all produce the same per-scenario metrics.

The service is also **fault-tolerant** (the resilience layer):

* **Deadlines + watchdog** — every dispatched unit carries a deadline
  (explicit ``timeout_s`` at any level, or derived from the family's
  recent p95 durations); the dispatcher kills and respawns a worker
  that blows it and marks the rows ``status="timeout"`` without
  failing the rest of the job.  A process worker is SIGKILLed; a
  thread worker cannot be killed, so it is abandoned (its late result
  is dropped) and replaced by a fresh one.
* **Bounded retries** — rows failing with a retryable status
  (:data:`RETRYABLE_STATUSES`) are re-enqueued up to ``retries`` times
  with exponential backoff; a retry never runs on the worker that
  failed it (unless the pool has one worker).  A retried-then-ok row
  is bit-identical to a first-try row (determinism again); its
  ``attempts`` count is a volatile field.
* **Admission control** — ``max_queued_jobs`` / ``max_scenarios_per_job``
  reject over-limit submissions with a structured :class:`QuotaError`
  (HTTP 429), and :meth:`~JobService.stats` reports saturation.
* **Bounded history** — the service keeps at most
  :data:`MAX_FINISHED_JOBS` terminal jobs and evicts the oldest
  finished one first; queued and running jobs are never evicted.  An
  evicted id raises :class:`JobEvicted` (HTTP 404 naming the
  eviction), and :meth:`~JobService.stats` reports the limit and the
  eviction count.
* **Graceful drain** — :meth:`~JobService.shutdown` stops admission,
  settles in-flight jobs, flushes the store and lets every open event
  stream deliver its terminal line before closing.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing
import pathlib
import queue
import statistics
import threading
import time
import traceback
from collections import deque
from typing import Any, Mapping

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sweep.report import aggregate
from repro.sweep.runner import _scenario_row, execute_unit, plan_units
from repro.sweep.spec import (
    CampaignSpec,
    SpecError,
    _engine_value,
    _int_value,
    _timeout_value,
    from_dict,
    load_spec,
)
from repro.sweep.store import ResultStore

#: Poll interval of the scheduler's result loop (drives the watchdog).
_POLL_S = 0.05

#: Job states after which no further events can be published.
TERMINAL_STATES = frozenset({"done", "failed", "cancelled"})

#: Row statuses that justify automatically re-running the unit: the
#: failure was the harness's (a dead or hung worker), never the
#: design's (those are "error" rows and retrying would just repeat
#: them — the simulation is deterministic).
RETRYABLE_STATUSES = frozenset({"worker-failed", "timeout"})

#: Deadline derivation from recent per-family durations: once a family
#: has this many fresh (non-cached, ok) samples, its default deadline
#: is ``max(floor, multiple × p95)``.  The generous multiple plus the
#: floor make derived deadlines a hung-unit tripwire, not a
#: performance budget — a healthy scenario never gets near one.
_TIMEOUT_MIN_SAMPLES = 8
_TIMEOUT_P95_MULTIPLE = 20.0
_TIMEOUT_FLOOR_S = 30.0

#: First-retry backoff in seconds; doubles per subsequent attempt.
_RETRY_BACKOFF_S = 0.05

#: Terminal jobs the service keeps for status/report/trace/events
#: lookups; the oldest finished job is evicted beyond this.
MAX_FINISHED_JOBS = 256


class QuotaError(RuntimeError):
    """A submission was rejected by admission control (HTTP 429).

    Structured like :class:`repro.sweep.spec.SpecError` (one source,
    every transport) but deliberately *not* a subclass: a quota
    rejection is a service-state condition — retry later, or against
    another instance — not a malformed spec to be fixed.  *kind* is
    machine-readable (``"draining"``, ``"queue_full"``,
    ``"too_many_scenarios"``); *limit*/*actual* quantify the breach
    when one applies.
    """

    def __init__(
        self,
        reason: str,
        *,
        kind: str,
        limit: int | None = None,
        actual: int | None = None,
    ):
        self.reason = reason
        self.kind = kind
        self.limit = limit
        self.actual = actual
        super().__init__(reason)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "reason": self.reason,
            "limit": self.limit,
            "actual": self.actual,
        }


class JobEvicted(KeyError):
    """A job id the service issued but has since evicted from history.

    A :class:`KeyError` (an unknown id to every caller that only
    distinguishes known from unknown) whose *reason* names the
    eviction, so the HTTP layer can answer a structured 404 that says
    why the job is gone.
    """

    def __init__(self, job_id: str, limit: int):
        self.job_id = job_id
        self.reason = (
            f"job {job_id!r} finished and was evicted from the service's "
            f"job history (it keeps the last {limit} finished jobs)"
        )
        super().__init__(self.reason)


def design_affinity(design_key: str, workers: int) -> int:
    """Stable preferred worker index for a design key.

    A pure function of the key (not of the campaign): an unheld design
    goes to this worker when it is idle, so independent services spread
    the same designs the same way.  Claims and steals (:class:`_Backlog`)
    decide where a design actually lives.
    """
    digest = hashlib.sha256(design_key.encode()).digest()
    return int.from_bytes(digest[:8], "big") % workers


# ----------------------------------------------------------------------
# worker pool
# ----------------------------------------------------------------------

def _run_unit(index: int, msg, cache: dict, mode: str) -> tuple:
    """Execute one dispatched unit on worker *index*: the result tuple.

    The one unit-execution path of both worker kinds.  A *unit* is a
    list of scenarios — a singleton for the serial path or an ensemble
    batch of control-identical scenarios that advance in lockstep
    through one compiled schedule.  *cache* maps (design key,
    engine[, "ensemble"]) to (handle[, ctx], pristine snapshot) and
    lives as long as the worker — jobs come and go, compiled designs
    stay warm.

    *msg* is ``(job_id, unit, engine, opts)``: ``opts["profile"]``
    attaches the kernel profiler per scenario, ``opts["parent"]`` is
    the job span id and ``opts["route"]`` the dispatch rule that chose
    this worker (``owner``, ``preferred``, ``claimed`` or ``stolen``; see
    :class:`_Backlog`).  A worker-side :class:`~repro.obs.trace.Tracer`
    records unit -> scenario -> build/simulate/metrics spans tagged
    with this worker's index; they ship back in the result tuple for
    the dispatcher to merge into the job's trace.
    """
    job_id, unit, engine, opts = msg
    tracer = Tracer(trace_id=job_id, worker=index)
    try:
        with tracer.span(
            "unit", parent=opts["parent"], scenarios=len(unit), mode=mode,
            route=opts["route"],
        ) as unit_span:
            unit_rows = execute_unit(
                unit,
                engine,
                cache=cache,
                shard=index,
                profile=opts["profile"],
                tracer=tracer,
                parent=unit_span,
            )
    except BaseException as exc:  # pragma: no cover - defensive
        unit_rows = []
        for scenario in unit:
            row = _scenario_row(scenario, index)
            row["status"] = "error"
            row["error"] = f"{type(exc).__name__}: {exc}"
            unit_rows.append(row)
    indices = [scenario.index for scenario in unit]
    return index, job_id, indices, unit_rows, tracer.spans()


def _worker_loop(index: int, tasks, results, mode: str, abandoned=None):
    """Drain *tasks* into *results* until the ``None`` sentinel.

    The cache is local to the loop, so a respawned worker starts cold.
    An *abandoned* worker (thread kind only) drops its late result.
    """
    cache: dict = {}
    while True:
        msg = tasks.get()
        if msg is None:
            return
        result = _run_unit(index, msg, cache, mode)
        if abandoned is not None and abandoned.is_set():
            return
        results.put(result)


class _ProcessWorker:
    """A pool member in its own process; ``kill()`` is SIGKILL."""

    kill_verb = "killed"

    def __init__(self, index: int, results, ctx):
        self.tasks = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_loop,
            args=(index, self.tasks, results, "pool"),
            daemon=True,
            name=f"sweep-worker-{index}",
        )
        self.process.start()

    def alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> int | None:
        return self.process.exitcode

    def kill(self) -> None:
        self.process.kill()
        self.process.join(timeout=1.0)

    def join(self) -> None:
        self.process.join(timeout=2.0)
        self.kill()  # no-op once the process has exited


class _ThreadWorker:
    """A pool member on a daemon thread; ``kill()`` abandons it.

    A thread cannot be killed: an abandoned worker is left to finish
    (or leak, as a daemon) with ``abandoned`` set, so its late result
    is dropped at the source.  Its replacement starts with a fresh
    (cold) cache, exactly like a respawned process.
    """

    kill_verb = "abandoned"
    exitcode = None

    def __init__(self, index: int, results):
        self.tasks: queue.Queue = queue.Queue()
        self.abandoned = threading.Event()
        self.thread = threading.Thread(
            target=_worker_loop,
            args=(index, self.tasks, results, "inline", self.abandoned),
            daemon=True,
            name=f"sweep-inline-worker-{index}",
        )
        self.thread.start()

    def alive(self) -> bool:
        return self.thread.is_alive()

    def kill(self) -> None:
        self.abandoned.set()

    def join(self) -> None:
        self.thread.join(timeout=1.0)


class _WorkerPool:
    """Workers sharing one result queue.

    ``processes >= 2`` gives that many process workers; 0 gives one
    thread worker (inline execution, no subprocesses).  ``holders``
    maps each taken design key to the frozenset of workers whose caches
    hold it (more than one once the design has been stolen); it lives
    as long as the pool, so holding carries across jobs.  Entries are
    replaced, never mutated, so a concurrent :meth:`owned_counts` reads
    a consistent set.
    """

    def __init__(self, processes: int):
        self.processes = processes
        self.holders: dict[str, frozenset[int]] = {}
        if processes:
            ctx = multiprocessing.get_context()
            self.results = ctx.Queue()
            self._spawn = lambda i: _ProcessWorker(i, self.results, ctx)
        else:
            self.results = queue.Queue()
            self._spawn = lambda i: _ThreadWorker(i, self.results)
        self.size = processes or 1
        self.workers = [self._spawn(i) for i in range(self.size)]
        self.respawns = 0

    def alive(self) -> list[bool]:
        return [w.alive() for w in self.workers]

    def respawn(self, index: int) -> None:
        """Kill a dead or hung worker and replace it with a cold one.

        The replacement holds no designs, so the dead worker leaves
        every holder set; a design it held alone becomes claimable.
        """
        self.workers[index].kill()
        self.workers[index] = self._spawn(index)
        gone = frozenset((index,))
        self.holders = {
            key: held - gone for key, held in self.holders.items()
            if held - gone
        }
        self.respawns += 1

    def owned_counts(self) -> list[int]:
        """Designs each worker holds, replicas included, by worker index."""
        counts = [0] * self.size
        for held in list(self.holders.values()):
            for worker in held:
                counts[worker] += 1
        return counts

    def close(self) -> None:
        for worker in self.workers:
            try:
                worker.tasks.put(None)
            except Exception:  # pragma: no cover - already torn down
                pass
        for worker in self.workers:
            worker.join()


class _Backlog:
    """One job's pending units, handed out by claim and by stealing.

    Units are filed by design key.  An idle worker takes, in order:

    1. ``"owner"`` — a unit of a design it holds;
    2. ``"preferred"`` — a unit of an unheld design whose
       :func:`design_affinity` is this worker;
    3. ``"claimed"`` — a unit of any unheld design;
    4. ``"stolen"`` — a unit of a design whose holders are all *busy*.

    Holding is the pool's ``holders`` map alone: taking a design adds
    the worker to its holder set — claiming an unheld design, or
    building a *replica* of a stolen one that later jobs restore
    instead of rebuilding — and a respawn removes the worker from every
    set.  A worker never takes a design a holder could take in the same
    dispatch round: the caller passes the busy workers, and an idle
    holder serves its own designs first.  So each design is built once
    per holder, an idle worker takes unclaimed work before stealing,
    and no worker idles while another has work pending.

    Within every route, designs go out longest first by estimated
    pending work: *cost(family)* (a per-unit estimate; the service
    passes the family median of recent durations) × pending units.  A
    family without an estimate weighs as the slowest known one, so all
    weigh alike while the service is cold.  A worker that failed a unit
    never claims or steals its design within the job (unless the pool
    has one worker), so a retry runs elsewhere.  Retries wait out their
    backoff in ``delayed``.
    """

    def __init__(self, pool: _WorkerPool, units, cost=None):
        self.pool = pool
        self.designs: dict[str, deque] = {}
        self.family: dict[str, str] = {}  # design key -> family
        self.failed_on: dict[str, int] = {}
        self.delayed: list[tuple] = []  # (ready time, unit, attempt)
        for unit in units:
            self._file(unit, 1)
        estimates = {
            family: cost(family) if cost else None
            for family in self.family.values()
        }
        fallback = max(
            (c for c in estimates.values() if c is not None), default=1.0
        )
        self.unit_cost = {
            family: fallback if c is None else c
            for family, c in estimates.items()
        }

    def _file(self, unit, attempt: int) -> None:
        key = unit[0].design_key()
        self.family[key] = unit[0].family
        self.designs.setdefault(key, deque()).append((unit, attempt))

    def _pending_work(self, key: str) -> float:
        return len(self.designs[key]) * self.unit_cost[self.family[key]]

    def retry(self, unit, attempt: int, ready: float, worker: int) -> None:
        """Re-enqueue *unit* after *worker* failed it; due at *ready*."""
        if self.pool.size > 1:
            self.failed_on[unit[0].design_key()] = worker
        self.delayed.append((ready, unit, attempt))

    def take(self, worker: int, now: float, busy=()):
        """The next ``(unit, attempt, route)`` for idle *worker*, or None.

        *busy* holds the workers with a unit in flight.
        """
        if self.delayed:
            due = [d for d in self.delayed if d[0] <= now]
            self.delayed = [d for d in self.delayed if d[0] > now]
            for _ready, unit, attempt in due:
                self._file(unit, attempt)
        holders = self.pool.holders
        mine, free, stealable = [], [], []
        for key in self.designs:
            held = holders.get(key)
            if held and worker in held:
                mine.append(key)
            elif self.failed_on.get(key) == worker:
                continue
            elif not held:
                free.append(key)
            elif all(h in busy for h in held):
                stealable.append(key)
        size = self.pool.size
        rules = (
            ("owner", mine),
            ("preferred",
             [k for k in free if design_affinity(k, size) == worker]),
            ("claimed", free),
            ("stolen", stealable),
        )
        for route, keys in rules:
            if not keys:
                continue
            key = max(keys, key=self._pending_work)
            holders[key] = holders.get(key, frozenset()) | {worker}
            pending = self.designs[key]
            unit, attempt = pending.popleft()
            if not pending:
                del self.designs[key]
            return unit, attempt, route
        return None

    def drain(self) -> list:
        """Remove and return every unit not yet dispatched."""
        units = [unit for pending in self.designs.values()
                 for unit, _attempt in pending]
        units += [unit for _ready, unit, _attempt in self.delayed]
        self.designs.clear()
        self.delayed.clear()
        return units


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------

class Job:
    """One submitted campaign and everything observed about it."""

    def __init__(
        self,
        job_id: str,
        spec: CampaignSpec,
        engine: str | None,
        workers: int,
        profile: bool = False,
        timeout_s: float | None = None,
        retries: int = 0,
    ):
        self.id = job_id
        self.spec = spec
        self.engine = engine
        self.workers = workers
        self.profile = bool(profile)
        #: Submit-time deadline override (wins over spec-level values).
        self.timeout_s = timeout_s
        #: Resolved retry budget (submit > spec > service default).
        self.retries = retries
        self.state = "queued"
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.completed = 0
        self.dedup_hits = 0
        self.rows: list[dict[str, Any]] | None = None
        self.report: dict[str, Any] | None = None
        self.error: str | None = None
        self.cancel_event = threading.Event()
        self.done_event = threading.Event()
        # Structured trace: the dispatcher-side tracer plus span dicts
        # shipped back from workers (already tagged with trace_id ==
        # job id, so merging is a plain extend).
        self.tracer: Tracer | None = None
        self.span: Any = None
        self.worker_spans: list[dict[str, Any]] = []
        # Streamed progress: an append-only replay log plus per-consumer
        # fan-out queues.  The one lock orders appends against
        # subscriber registration, so every consumer sees every event
        # exactly once (subscribe replays the log, then drains its
        # queue, deduplicating on `seq`).
        self.events_log: list[dict[str, Any]] = []
        self._subscribers: list[queue.Queue] = []
        self._events_lock = threading.Lock()

    def publish(self, event: dict[str, Any]) -> None:
        """Append *event* to the log and fan it out to subscribers."""
        with self._events_lock:
            event = dict(event)
            event["seq"] = len(self.events_log)
            event["job_id"] = self.id
            self.events_log.append(event)
            subscribers = list(self._subscribers)
        for sub in subscribers:
            sub.put(event)

    def subscribe(self) -> tuple[list[dict[str, Any]], queue.Queue]:
        """Register a consumer: (replay backlog, live queue).

        The backlog and the queue may overlap around the registration
        instant; consumers deduplicate on each event's ``seq``.
        """
        sub: queue.Queue = queue.Queue()
        with self._events_lock:
            backlog = list(self.events_log)
            self._subscribers.append(sub)
        return backlog, sub

    def unsubscribe(self, sub: queue.Queue) -> None:
        with self._events_lock:
            try:
                self._subscribers.remove(sub)
            except ValueError:
                pass

    def status(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "id": self.id,
            "name": self.spec.name,
            "state": self.state,
            "engine": self.engine,
            "workers": self.workers,
            "scenarios": len(self.spec.scenarios),
            "completed": self.completed,
            "dedup_hits": self.dedup_hits,
            "retries": self.retries,
            "timeout_s": self.timeout_s,
            "cancel_requested": self.cancel_event.is_set(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.finished_at is not None and self.started_at is not None:
            out["elapsed_s"] = round(self.finished_at - self.started_at, 4)
        if self.report is not None:
            summary = self.report["summary"]
            out["ok"] = summary["ok"]
            out["failed"] = summary["failed"]
            # Campaign-level coverage/fault metrics surface on the job
            # itself, so service clients (and CI smoke assertions) can
            # read them without pulling the full report.
            for key in ("coverage_pct", "new_states", "faults_survived",
                        "fault_oracles"):
                if key in summary:
                    out[key] = summary[key]
        if self.error is not None:
            out["error"] = self.error
        return out


class JobService:
    """The campaign service core (see module docstring).

    ``workers=0`` (or 1) executes jobs inline on one thread worker —
    same scheduler and semantics, no subprocesses — which is also the
    mode the one-shot CLI uses for serial runs.  *store* enables
    result-store dedup: pass a :class:`ResultStore`, a path for a
    persisted JSONL store, or ``True`` for an in-memory one.

    Resilience knobs: *retries* is the default retry budget for
    retryable failures (spec/submit values win); *default_timeout_s*
    the deadline of last resort when neither the spec nor the family's
    duration history provides one; *max_queued_jobs* /
    *max_scenarios_per_job* enable admission control
    (:class:`QuotaError` on breach).
    """

    def __init__(
        self,
        workers: int = 0,
        engine: str | None = None,
        store: ResultStore | str | pathlib.Path | bool | None = None,
        ensemble: Any = "auto",
        profile: bool = False,
        retries: int = 1,
        default_timeout_s: float | None = None,
        max_queued_jobs: int | None = None,
        max_scenarios_per_job: int | None = None,
    ):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.pool_size = workers if workers > 1 else 0
        self.engine = _engine_value(engine, path="service")
        # Lockstep-batching policy for every job this service runs:
        # "auto" (default cap), "off", or an integer lane cap.  Reports
        # are bit-identical either way; see repro.sweep.runner.
        self.ensemble = ensemble
        # Default profiling policy; ``submit(profile=...)`` overrides
        # per job.  Profiled rows carry a "profile" dict (volatile —
        # stripped from canonical reports and dedup storage).
        self.profile = bool(profile)
        if store is True:
            store = ResultStore()
        elif isinstance(store, (str, pathlib.Path)):
            store = ResultStore(store)
        self.store = store
        self.retries = retries
        self.default_timeout_s = _timeout_value(
            default_timeout_s, path="service", field="default_timeout_s"
        )
        self.max_queued_jobs = max_queued_jobs
        self.max_scenarios_per_job = max_scenarios_per_job
        # Every retained job by id, in submission order; terminal ids in
        # finish order (the eviction queue, see MAX_FINISHED_JOBS).
        self._jobs: dict[str, Job] = {}
        self._finished: deque[str] = deque()
        self._evicted = 0
        self._queued = 0
        self._issued = 0
        self._queue: queue.Queue = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pool: _WorkerPool | None = None
        self._dispatcher: threading.Thread | None = None
        self._closed = False
        self._draining = False
        self._drain_seconds: float | None = None
        self._started_at = time.time()
        # Admission-control accounting: rejections by kind, for
        # stats()["admission"] (the metrics counter mirrors it).
        self._rejected: dict[str, int] = {}
        # Recent per-family ok-row durations (dispatcher thread only),
        # feeding the derived-deadline estimate.
        self._durations: dict[str, deque] = {}
        # Open events() streams; graceful drain waits (bounded) for
        # them to deliver their terminal lines before closing.
        self._active_streams = 0
        # Service-lifetime dedup accounting: per-job `dedup_hits` only
        # tells a client about its own submission; these fold every
        # store lookup since service start so /healthz can report a
        # global hit rate.
        self.dedup_hits = 0
        self.dedup_misses = 0
        # Prometheus-style metrics (rendered by render_metrics / GET
        # /metrics).  Everything here is also derivable from stats(),
        # but the registry keeps monotonic counters across the service
        # lifetime in a scrape-friendly exposition format.
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_submitted = m.counter(
            "repro_jobs_submitted_total", "Campaign jobs accepted by submit()."
        )
        self._m_jobs_completed = m.counter(
            "repro_jobs_completed_total",
            "Jobs that reached a terminal state.",
            labelnames=("state",),
        )
        self._m_job_duration = m.histogram(
            "repro_job_duration_seconds",
            "Wall time from job start to terminal state.",
        )
        self._m_scenario_duration = m.histogram(
            "repro_scenario_duration_seconds",
            "Per-scenario simulation wall time (cached rows observe 0).",
        )
        self._m_scenarios = m.counter(
            "repro_scenarios_completed_total",
            "Scenario rows produced, by final status.",
            labelnames=("status",),
        )
        self._m_dedup = m.counter(
            "repro_dedup_lookups_total",
            "Result-store lookups before dispatch.",
            labelnames=("result",),
        )
        self._m_ensemble_fallbacks = m.counter(
            "repro_ensemble_fallbacks_total",
            "Ensemble units that fell back to serial execution.",
        )
        self._m_queue_depth = m.gauge(
            "repro_queue_depth", "Jobs waiting in the dispatch queue."
        )
        self._m_inflight = m.gauge(
            "repro_pool_inflight", "Units currently executing on pool workers."
        )
        self._m_workers = m.gauge(
            "repro_pool_workers", "Configured worker-pool size (0 = inline)."
        )
        self._m_workers_alive = m.gauge(
            "repro_pool_workers_alive", "Worker processes currently alive."
        )
        self._m_stolen = m.counter(
            "repro_units_stolen_total",
            "Units a worker took by stealing a design whose holders were "
            "all busy (each builds a design replica).",
        )
        self._m_respawns = m.counter(
            "repro_worker_respawns_total",
            "Dead worker processes replaced with fresh (cold-cache) ones.",
        )
        self._m_timeouts = m.counter(
            "repro_scenario_timeouts_total",
            "Scenario rows that blew their unit deadline (counted per "
            "attempt, before any retry).",
        )
        self._m_retries = m.counter(
            "repro_scenario_retries_total",
            "Retried scenario rows (final attempt > 1), by final status.",
            labelnames=("outcome",),
        )
        self._m_rejected = m.counter(
            "repro_jobs_rejected_total",
            "Submissions rejected by admission control, by reason.",
            labelnames=("reason",),
        )
        self._m_drain_seconds = m.gauge(
            "repro_drain_seconds",
            "Duration of the last graceful drain (0 until one happens).",
        )
        self._m_workers.set(self.pool_size)

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop the dispatcher and tear down the worker pool.

        Queued jobs still drain first (the stop sentinel goes to the
        end of the FIFO); use :meth:`shutdown` for the full graceful
        sequence (stop admission, flush the store, settle streams).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            dispatcher = self._dispatcher
        if dispatcher is not None:
            self._queue.put(None)
            dispatcher.join(timeout=30.0)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def shutdown(
        self, drain: bool = True, timeout: float | None = None
    ) -> float | None:
        """Graceful teardown; returns the drain duration in seconds.

        Stops admission immediately (new :meth:`submit` calls raise
        :class:`QuotaError` with kind ``"draining"``), then with
        *drain* true waits for every accepted job to finish — bounded
        by *timeout* seconds if given, after which leftover jobs are
        cancelled (their in-flight units still settle).  With *drain*
        false, all unfinished jobs are cancelled up front.  Either way
        the store is flushed, open event streams get a bounded window
        to deliver their terminal lines, and the service is closed.
        Idempotent: returns None if the service was already closed.
        """
        start = time.time()
        with self._lock:
            if self._closed:
                return None
            self._draining = True
            jobs = list(self._jobs.values())
        if drain:
            deadline = None if timeout is None else start + timeout
            for job in jobs:
                if deadline is None:
                    job.done_event.wait()
                elif not job.done_event.wait(
                    max(0.0, deadline - time.time())
                ):
                    job.cancel_event.set()
        else:
            for job in jobs:
                if not job.done_event.is_set():
                    job.cancel_event.set()
        if self.store is not None:
            self.store.flush()
        # Let open event streams write their terminal lines before the
        # transport goes away; every job above is (or is becoming)
        # terminal, so streams end on their own — this is a bounded
        # wait, not a join.
        stream_deadline = time.time() + 2.0
        while time.time() < stream_deadline:
            with self._lock:
                if self._active_streams == 0:
                    break
            time.sleep(0.02)
        self.close()
        drained = round(time.time() - start, 4)
        self._drain_seconds = drained
        self._m_drain_seconds.set(drained)
        return drained

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                daemon=True,
                name="sweep-dispatcher",
            )
            self._dispatcher.start()

    def _ensure_pool(self) -> _WorkerPool:
        if self._pool is None:
            self._pool = _WorkerPool(self.pool_size)
        return self._pool

    # -- the jobs API ---------------------------------------------------

    def _reject(
        self,
        kind: str,
        reason: str,
        *,
        limit: int | None = None,
        actual: int | None = None,
    ) -> None:
        """Record and raise an admission-control rejection."""
        with self._lock:
            self._rejected[kind] = self._rejected.get(kind, 0) + 1
        self._m_rejected.inc(reason=kind)
        raise QuotaError(reason, kind=kind, limit=limit, actual=actual)

    def submit(
        self,
        spec: CampaignSpec | Mapping[str, Any] | str | pathlib.Path,
        workers: int | None = None,
        engine: str | None = None,
        profile: bool | None = None,
        timeout_s: float | None = None,
        retries: int | None = None,
    ) -> str:
        """Validate and enqueue a campaign; returns the job id.

        *spec* may be a :class:`CampaignSpec`, a plain mapping (the
        JSON/TOML structure) or a spec file path.  Malformed specs
        raise :class:`repro.sweep.spec.SpecError` here, synchronously —
        a queued job is always runnable; so does an *engine* not in
        :data:`repro.kernel.ENGINES` — and over-quota submissions
        raise :class:`QuotaError`.  *engine* overrides the spec's
        engine; *workers* is recorded (the service's pool is fixed at
        construction, so it caps the actual parallelism); *profile*
        overrides the service's default profiling policy for this job.
        *timeout_s* is a job-wide deadline override (wins over every
        spec-level value); *retries* overrides the retry budget
        (submit > spec > service default).
        """
        if self._closed:
            raise RuntimeError("JobService is closed")
        engine = _engine_value(engine, path="submit")
        timeout_s = _timeout_value(timeout_s, path="submit")
        retries = _int_value(retries, None, field="retries", path="submit",
                             minimum=0)
        with self._lock:
            draining = self._draining
            queued = self._queued
        if draining:
            self._reject(
                "draining",
                "service is draining and not accepting new campaigns",
            )
        if self.max_queued_jobs is not None and (
            queued >= self.max_queued_jobs
        ):
            self._reject(
                "queue_full",
                f"job queue is full ({queued} queued, "
                f"limit {self.max_queued_jobs}); retry later",
                limit=self.max_queued_jobs,
                actual=queued,
            )
        if isinstance(spec, (str, pathlib.Path)):
            spec = load_spec(spec)
        elif isinstance(spec, Mapping):
            spec = from_dict(spec)
        elif not isinstance(spec, CampaignSpec):
            raise SpecError(
                "spec must be a mapping, CampaignSpec or path, got "
                f"{type(spec).__name__}", path="spec",
            )
        if self.max_scenarios_per_job is not None and (
            len(spec.scenarios) > self.max_scenarios_per_job
        ):
            self._reject(
                "too_many_scenarios",
                f"campaign expands to {len(spec.scenarios)} scenarios "
                f"(limit {self.max_scenarios_per_job}); split it up",
                limit=self.max_scenarios_per_job,
                actual=len(spec.scenarios),
            )
        if engine is None:
            engine = self.engine if self.engine is not None else spec.engine
        if workers is None:
            workers = self.pool_size or 1
        if profile is None:
            profile = self.profile
        if retries is None:
            retries = (
                spec.retries if spec.retries is not None else self.retries
            )
        with self._lock:
            self._issued = next(self._ids)
            job_id = f"job-{self._issued:06d}"
            job = Job(
                job_id, spec, engine, workers, profile=profile,
                timeout_s=timeout_s, retries=retries,
            )
            self._jobs[job_id] = job
            self._queued += 1
            self._ensure_dispatcher()
        self._m_submitted.inc()
        self._queue.put(job_id)
        return job_id

    def job(self, job_id: str) -> Job:
        """The retained job *job_id*; :class:`JobEvicted` if it aged out."""
        job = self._jobs.get(job_id)
        if job is not None:
            return job
        prefix, _, number = job_id.partition("-")
        if (
            prefix == "job" and number.isascii() and number.isdigit()
            and 0 < int(number) <= self._issued
        ):
            raise JobEvicted(job_id, MAX_FINISHED_JOBS)
        raise KeyError(f"unknown job id {job_id!r}")

    def _retire(self, job: Job) -> None:
        """Mark *job* terminal, first evicting the oldest finished jobs
        beyond :data:`MAX_FINISHED_JOBS`."""
        with self._lock:
            self._finished.append(job.id)
            while len(self._finished) > MAX_FINISHED_JOBS:
                del self._jobs[self._finished.popleft()]
                self._evicted += 1
        job.done_event.set()

    def status(self, job_id: str) -> dict[str, Any]:
        """JSON-safe snapshot of one job's progress."""
        return self.job(job_id).status()

    def result(
        self, job_id: str, wait: bool = True, timeout: float | None = None
    ) -> dict[str, Any]:
        """The job's aggregated campaign report (blocking by default).

        Raises :class:`TimeoutError` if *wait* expires and
        :class:`RuntimeError` if the job failed before producing a
        report (dispatcher-level failure, not scenario failures —
        those are ordinary rows in the report).
        """
        job = self.job(job_id)
        if wait and not job.done_event.wait(timeout):
            raise TimeoutError(f"job {job_id} not finished")
        if job.report is None:
            if job.error is not None:
                raise RuntimeError(f"job {job_id} failed: {job.error}")
            raise RuntimeError(f"job {job_id} has no report yet")
        return job.report

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable.

        Queued jobs are cancelled before any scenario runs; a running
        job stops dispatching new scenarios (in-flight ones finish) and
        its remaining rows are reported ``status="cancelled"``.
        """
        job = self.job(job_id)
        if job.done_event.is_set():
            return False
        job.cancel_event.set()
        return True

    def list_jobs(self) -> list[dict[str, Any]]:
        """Status snapshots for every retained job, in submission order."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [job.status() for job in jobs]

    def stats(self) -> dict[str, Any]:
        """Service health: queue depth, worker liveness, cache rates."""
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            queued = self._queued
        live = self._pool
        pool = live if self.pool_size else None  # processes only
        lookups = self.dedup_hits + self.dedup_misses
        return {
            "uptime_s": round(time.time() - self._started_at, 3),
            "queue_depth": queued,
            "jobs": states,
            # Admission-control view: are we turning work away, and how
            # close to the queue quota are we (saturation 1.0 = full).
            "admission": {
                "draining": self._draining,
                "max_queued_jobs": self.max_queued_jobs,
                "max_scenarios_per_job": self.max_scenarios_per_job,
                "rejected": dict(self._rejected),
                "saturation": (
                    round(queued / self.max_queued_jobs, 4)
                    if self.max_queued_jobs
                    else None
                ),
            },
            "workers": {
                "configured": self.pool_size,
                "mode": "pool" if self.pool_size else "inline",
                "alive": pool.alive() if pool is not None else [],
                "respawns": pool.respawns if pool is not None else 0,
            },
            # Finished-job retention: the limit and how many aged out.
            "history": {
                "max_finished_jobs": MAX_FINISHED_JOBS,
                "evicted": self._evicted,
            },
            # Designs held per worker index, replicas included (both
            # worker kinds).
            "pool": {
                "owned_designs": (
                    live.owned_counts() if live is not None else []
                ),
            },
            # Since-service-start dedup accounting (always present, even
            # store-less, so clients can assert on it unconditionally);
            # "store" remains the store's own lifetime view.
            "dedup": {
                "hits": self.dedup_hits,
                "misses": self.dedup_misses,
                "hit_rate": (
                    round(self.dedup_hits / lookups, 4) if lookups else 0.0
                ),
                "store_entries": (
                    len(self.store) if self.store is not None else 0
                ),
            },
            "store": self.store.stats() if self.store is not None else None,
        }

    # -- observability --------------------------------------------------

    def render_metrics(self) -> str:
        """Prometheus text exposition of the service's metrics.

        Point-in-time gauges (queue depth, worker liveness) are
        refreshed at scrape time; counters/histograms accumulate as
        events happen.  Content type:
        :data:`MetricsRegistry.CONTENT_TYPE`.
        """
        self._m_queue_depth.set(self._queued)
        pool = self._pool if self.pool_size else None  # processes only
        self._m_workers_alive.set(
            sum(pool.alive()) if pool is not None else 0
        )
        return self.metrics.render()

    def trace(self, job_id: str) -> list[dict[str, Any]]:
        """The job's merged span list (dispatcher + workers), start-ordered.

        Spans follow the schema in :mod:`repro.obs.trace`: job -> unit
        -> scenario -> build/simulate/metrics, every span carrying the
        job id as ``trace_id`` and worker-side spans tagged
        ``worker=<index>``.  Safe to call while the job is running —
        returns the spans finished so far.
        """
        job = self.job(job_id)
        spans: list[dict[str, Any]] = []
        if job.tracer is not None:
            spans.extend(job.tracer.spans())
        spans.extend(job.worker_spans)
        spans.sort(key=lambda s: (s.get("start_unix", 0.0), s.get("span_id", "")))
        return spans

    def events(self, job_id: str, timeout: float | None = None):
        """Yield the job's progress events: replay, then live, then stop.

        Replays the full event log from the start (so late subscribers
        see every scenario), then streams live events until a terminal
        ``{"event": "job", "state": <terminal>}`` arrives, which is
        yielded and ends the generator.  *timeout* bounds the wait for
        each live event; expiry raises :class:`TimeoutError` (a
        finished job never raises — its log already ends terminally).
        """
        job = self.job(job_id)
        backlog, sub = job.subscribe()
        with self._lock:
            self._active_streams += 1
        try:
            last_seq = -1
            for event in backlog:
                last_seq = event["seq"]
                yield event
                if event.get("event") == "job" and (
                    event.get("state") in TERMINAL_STATES
                ):
                    return
            while True:
                try:
                    event = sub.get(timeout=timeout)
                except queue.Empty:
                    raise TimeoutError(
                        f"no event from job {job_id} within {timeout}s"
                    ) from None
                if event["seq"] <= last_seq:  # replay/live overlap
                    continue
                last_seq = event["seq"]
                yield event
                if event.get("event") == "job" and (
                    event.get("state") in TERMINAL_STATES
                ):
                    return
        finally:
            with self._lock:
                self._active_streams -= 1
            job.unsubscribe(sub)

    def _note_row(self, job: Job, row: dict[str, Any], total: int) -> None:
        """Account one finished scenario row: counters + progress event."""
        job.completed += 1
        status = str(row.get("status", "unknown"))
        self._m_scenarios.inc(status=status)
        self._m_scenario_duration.observe(float(row.get("duration_s") or 0.0))
        if status == "ok" and not row.get("cached"):
            # Fresh-run durations feed the derived-deadline estimate.
            self._durations.setdefault(
                str(row.get("family")), deque(maxlen=64)
            ).append(float(row.get("duration_s") or 0.0))
        if row.get("ensemble") == "fallback":
            self._m_ensemble_fallbacks.inc()
        job.publish(
            {
                "event": "scenario",
                "key": row.get("key"),
                "index": row.get("index"),
                "status": status,
                "cached": bool(row.get("cached")),
                "completed": job.completed,
                "total": total,
            }
        )

    # -- dispatcher -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                job = self._jobs[job_id]
                self._queued -= 1
            try:
                self._run_job(job)
            except Exception:  # pragma: no cover - defensive
                job.error = traceback.format_exc()
                job.state = "failed"
                job.finished_at = time.time()
                self._m_jobs_completed.inc(state="failed")
                if job.started_at is not None:
                    self._m_job_duration.observe(
                        job.finished_at - job.started_at
                    )
                # The terminal event must go out even on dispatcher
                # failure — it is what ends every events() stream.
                job.publish(
                    {"event": "job", "state": "failed", "error": job.error}
                )
                self._retire(job)

    def _cancelled_row(self, scenario) -> dict[str, Any]:
        row = _scenario_row(scenario, None)
        row["status"] = "cancelled"
        row["error"] = "job cancelled before this scenario ran"
        return row

    def _run_job(self, job: Job) -> None:
        job.state = "running"
        job.started_at = time.time()
        job.tracer = Tracer(trace_id=job.id)
        job.span = job.tracer.span(
            "job",
            campaign=job.spec.name,
            engine=job.engine,
            workers=job.workers,
            scenarios=len(job.spec.scenarios),
        )
        job.publish({"event": "job", "state": "running"})
        total = len(job.spec.scenarios)
        rows: dict[int, dict[str, Any]] = {}
        pending = []
        for scenario in job.spec.scenarios:
            if self.store is not None and not job.cancel_event.is_set():
                cached = self.store.get(scenario.result_key())
                if cached is not None:
                    cached["index"] = scenario.index
                    cached["shard"] = None
                    cached["cached"] = True
                    cached["duration_s"] = 0.0
                    rows[scenario.index] = cached
                    job.dedup_hits += 1
                    self.dedup_hits += 1
                    self._m_dedup.inc(result="hit")
                    with job.tracer.span(
                        "scenario", parent=job.span, key=scenario.key,
                        cached=True,
                    ):
                        pass
                    self._note_row(job, cached, total)
                    continue
                self.dedup_misses += 1
                self._m_dedup.inc(result="miss")
            pending.append(scenario)
        self._run_units(job, pending, rows)
        if self.store is not None:
            for scenario in pending:
                row = rows.get(scenario.index)
                if row is not None and not row.get("cached"):
                    self.store.put(scenario.result_key(), row)
        ordered = [rows[index] for index in sorted(rows)]
        elapsed = time.time() - job.started_at
        job.rows = ordered
        job.report = aggregate(
            job.spec, ordered, engine=job.engine, workers=job.workers,
            elapsed_s=elapsed,
        )
        if job.dedup_hits:
            job.report["summary"]["dedup_hits"] = job.dedup_hits
        job.state = "cancelled" if job.cancel_event.is_set() else "done"
        job.finished_at = time.time()
        job.span.set(state=job.state)
        job.span.end()
        self._m_jobs_completed.inc(state=job.state)
        self._m_job_duration.observe(job.finished_at - job.started_at)
        summary = job.report["summary"]
        job.publish(
            {
                "event": "job",
                "state": job.state,
                "ok": summary["ok"],
                "failed": summary["failed"],
                "completed": job.completed,
                "total": total,
                "elapsed_s": round(elapsed, 4),
            }
        )
        self._retire(job)

    # -- deadlines and retries ------------------------------------------

    def _derived_timeout_s(self, family: str) -> float | None:
        """Deadline estimate from the family's recent ok durations.

        None until :data:`_TIMEOUT_MIN_SAMPLES` fresh samples exist —
        a family with no track record gets no derived deadline (only
        explicit ``timeout_s`` values apply), so a cold first run can
        never be killed by a miscalibrated estimate.
        """
        samples = self._durations.get(family)
        if samples is None or len(samples) < _TIMEOUT_MIN_SAMPLES:
            return None
        ordered = sorted(samples)
        p95 = ordered[min(len(ordered) - 1, int(0.95 * len(ordered)))]
        return max(_TIMEOUT_FLOOR_S, _TIMEOUT_P95_MULTIPLE * p95)

    def _unit_cost(self, family: str) -> float | None:
        """Per-unit work estimate: the family's median recent duration.

        None until the family has a fresh ok sample; :class:`_Backlog`
        weighs such families as the slowest known one.
        """
        samples = self._durations.get(family)
        return statistics.median(samples) if samples else None

    def _resolve_timeout_s(self, job: Job, scenario) -> float | None:
        """One scenario's deadline: submit > scenario > spec > derived
        > service default; None means run unbounded."""
        for explicit in (
            job.timeout_s, scenario.timeout_s, job.spec.timeout_s,
        ):
            if explicit is not None:
                return explicit
        derived = self._derived_timeout_s(scenario.family)
        if derived is not None:
            return derived
        return self.default_timeout_s

    def _unit_deadline(self, job: Job, unit) -> float | None:
        """A unit's deadline: the laxest member deadline, or None.

        A unit is one simulation (ensemble lanes advance in lockstep),
        so any member without a deadline makes the whole unit
        unbounded — a deadline must never kill a scenario that did not
        opt into one.
        """
        timeouts = [self._resolve_timeout_s(job, s) for s in unit]
        if any(t is None for t in timeouts):
            return None
        return max(timeouts)

    def _fail_unit(
        self,
        job: Job,
        unit,
        attempt: int,
        status: str,
        message: str,
        *,
        shard: int | None,
        sink,
        retry,
    ) -> bool:
        """Handle a watchdog verdict on an in-flight unit.

        Publishes the watchdog event; then either re-enqueues the unit
        via *retry(unit, next_attempt, ready_time, shard)* (with
        exponential backoff, a retry event and a point span) or
        finalizes every row as *status* through *sink(index, row)*.
        Returns True when the unit was re-enqueued.
        """
        if status == "timeout":
            self._m_timeouts.inc(len(unit))
        will_retry = (
            status in RETRYABLE_STATUSES
            and attempt <= job.retries
            and not job.cancel_event.is_set()
        )
        keys = [scenario.key for scenario in unit]
        job.publish(
            {
                "event": "watchdog",
                "reason": status,
                "worker": shard,
                "keys": keys,
                "attempt": attempt,
                "retrying": will_retry,
            }
        )
        if will_retry:
            backoff = _RETRY_BACKOFF_S * (2 ** (attempt - 1))
            with job.tracer.span(
                "retry",
                parent=job.span,
                reason=status,
                attempt=attempt + 1,
                scenarios=len(unit),
                backoff_s=backoff,
            ):
                pass
            job.publish(
                {
                    "event": "retry",
                    "keys": keys,
                    "attempt": attempt + 1,
                    "backoff_s": backoff,
                    "reason": status,
                }
            )
            retry(unit, attempt + 1, time.time() + backoff, shard)
            return True
        for scenario in unit:
            row = _scenario_row(scenario, shard)
            row["status"] = status
            row["error"] = message
            row["attempts"] = attempt
            if attempt > 1:
                self._m_retries.inc(outcome=status)
            sink(scenario.index, row)
        return False

    # -- execution ------------------------------------------------------

    def _run_units(self, job: Job, pending, rows) -> None:
        """Claim- and steal-dispatched execution of *pending* on the pool.

        Units (not single scenarios) are the message granularity: every
        scenario in a unit shares one design key, so the whole batch
        runs on one worker holding that design, one unit in flight per
        worker; idle workers take units by the four routes of
        :class:`_Backlog`.  Each dispatch round offers every idle worker
        a unit twice: the first sweep serves holders their own designs,
        so the second only steals from workers that are busy.  The
        dispatcher is also the watchdog: each poll-timeout tick it
        checks every in-flight unit's worker for death and its deadline
        for expiry; either verdict fails (or retries) the whole unit and
        respawns the worker (kill + cold replacement, removed from every
        holder set).  A retried unit waits out its
        backoff while siblings run, then goes to any worker but the one
        that failed it.  Cancellation stops dispatch: in-flight units
        finish (an ensemble's lanes are one simulation), queued ones
        are reported ``status="cancelled"``.
        """
        if not pending:
            return
        pool = self._ensure_pool()
        backlog = _Backlog(
            pool, plan_units(pending, self.ensemble), cost=self._unit_cost
        )
        # widx -> (unit, attempt, absolute deadline | None, timeout_s)
        inflight: dict[int, tuple] = {}
        remaining = len(pending)
        total = len(job.spec.scenarios)
        opts = {"profile": job.profile, "parent": job.span.span_id}

        def account(index: int, row: dict[str, Any]) -> None:
            nonlocal remaining
            if index in rows:  # late result after a watchdog verdict
                return
            rows[index] = row
            self._note_row(job, row, total)
            remaining -= 1

        while remaining:
            if job.cancel_event.is_set():
                for unit in backlog.drain():
                    for scenario in unit:
                        account(scenario.index, self._cancelled_row(scenario))
                if not inflight:
                    break
            now = time.time()
            for i in itertools.chain(range(pool.size), range(pool.size)):
                taken = (
                    None if i in inflight else backlog.take(i, now, inflight)
                )
                if taken is None:
                    continue
                unit, attempt, route = taken
                if route == "stolen":
                    self._m_stolen.inc()
                pool.workers[i].tasks.put(
                    (job.id, unit, job.engine, {**opts, "route": route})
                )
                timeout_s = self._unit_deadline(job, unit)
                deadline = now + timeout_s if timeout_s is not None else None
                inflight[i] = (unit, attempt, deadline, timeout_s)
            self._m_inflight.set(len(inflight))
            try:
                widx, _job_id, indices, unit_rows, spans = pool.results.get(
                    timeout=_POLL_S
                )
            except queue.Empty:
                now = time.time()
                for i, (unit, attempt, deadline, timeout_s) in list(
                    inflight.items()
                ):
                    worker = pool.workers[i]
                    if not worker.alive():
                        status = "worker-failed"
                        message = (
                            f"worker {i} died (exit code {worker.exitcode})"
                        )
                    elif deadline is not None and now > deadline:
                        status = "timeout"
                        message = (
                            f"unit blew its {timeout_s:.1f}s deadline on "
                            f"worker {i} (worker {worker.kill_verb} and "
                            "respawned)"
                        )
                    else:
                        continue
                    del inflight[i]
                    pool.respawn(i)
                    if pool.processes:
                        self._m_respawns.inc()
                    self._fail_unit(
                        job, unit, attempt, status, message,
                        shard=i, sink=account, retry=backlog.retry,
                    )
                continue
            entry = inflight.get(widx)
            if entry is not None and (
                [s.index for s in entry[0]] == indices
            ):
                inflight.pop(widx)
                attempt = entry[1]
            else:
                # A stale result: the unit it answers was already
                # failed by a watchdog verdict (account() drops the
                # duplicate rows via the `index in rows` guard).
                attempt = 1
            job.worker_spans.extend(spans)
            for sidx, row in zip(indices, unit_rows):
                row["attempts"] = attempt
                if attempt > 1 and sidx not in rows:
                    self._m_retries.inc(
                        outcome=str(row.get("status", "unknown"))
                    )
                account(sidx, row)
        self._m_inflight.set(0)
