"""The jobs API: queue, worker pool, dedup store, cancellation.

The service-level acceptance properties live here:

* resubmitting an identical campaign to a warm service completes with
  zero simulated scenarios (100% dedup hits) and bit-identical
  per-scenario metrics;
* design caches survive across jobs (the cross-job extension of the
  per-campaign reuse the runner always had), under both worker kinds
  (thread and process), and no worker builds one design twice even
  when idle workers steal designs from busy ones;
* a worker process that dies fails only its in-flight scenario — the
  pool respawns the worker and the job (and later jobs) complete.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import types
from collections import Counter

import pytest

from repro.sweep import jobs as jobs_mod
from repro.sweep.jobs import (
    JobEvicted,
    JobService,
    _Backlog,
    _WorkerPool,
    design_affinity,
)
from repro.sweep.registry import _REGISTRY, Family, register_family
from repro.sweep.report import canonical_report
from repro.sweep.runner import run_campaign
from repro.sweep.spec import CampaignSpec, SpecError, from_dict, make_scenario
from repro.sweep.store import ResultStore

SMALL_CAMPAIGN = {
    "campaign": {"name": "jobs-test", "seed": 11, "workers": 2},
    "scenarios": [
        {
            "family": "mt_chain",
            "params": {"threads": 2, "n_funcs": 2},
            "stimulus": {"kind": "uniform", "items_per_thread": 6},
        },
        {
            "family": "mt_pipeline",
            "params": {"threads": 2, "n_stages": 2},
            "grid": {"meb": ["full", "reduced"]},
            "stimulus": {"kind": "uniform", "items_per_thread": 8},
        },
    ],
}


def _metrics_by_key(report):
    return {
        row["key"]: row["metrics"]
        for row in report["scenarios"]
        if row["status"] == "ok"
    }


def _builds(*reports) -> Counter:
    """Design builds per (worker, design) over *reports* (no ensembles)."""
    return Counter(
        (row["shard"], f"{row['family']}({row['params']})")
        for report in reports
        for row in report["scenarios"]
        if row["design_cache"] == "build"
    )


@pytest.fixture
def temp_family():
    """Register throwaway families and drop them after the test."""
    registered = []

    def add(family: Family) -> Family:
        register_family(family)
        registered.append(family.name)
        return family

    try:
        yield add
    finally:
        for name in registered:
            _REGISTRY.pop(name, None)


class TestResultKey:
    def test_stimulus_options_change_the_key(self):
        a = make_scenario(
            "mt_chain", params={"threads": 2},
            stimulus={"kind": "uniform", "items_per_thread": 4},
        )
        b = make_scenario(
            "mt_chain", params={"threads": 2},
            stimulus={"kind": "uniform", "items_per_thread": 5},
        )
        # Same campaign key (options are not part of it) but distinct
        # result keys: dedup must not conflate different traffic.
        assert a.key == b.key
        assert a.result_key() != b.result_key()

    def test_key_is_deterministic(self):
        mk = lambda: make_scenario(
            "md5", params={"threads": 4}, stimulus={"messages": 2}, seed=3
        )
        assert mk().result_key() == mk().result_key()

    def test_seed_participates(self):
        a = make_scenario("mt_chain", seed=1)
        b = make_scenario("mt_chain", seed=2)
        assert a.result_key() != b.result_key()


class TestResultStore:
    def test_only_ok_rows_stored(self, tmp_path):
        store = ResultStore(tmp_path / "store.jsonl")
        assert not store.put("k1", {"status": "error", "error": "boom"})
        assert store.put("k2", {"status": "ok", "metrics": {"cycles": 5}})
        assert len(store) == 1

    def test_roundtrip_and_reload(self, tmp_path):
        path = tmp_path / "store.jsonl"
        store = ResultStore(path)
        row = {
            "key": "x()/uniform", "status": "ok",
            "metrics": {"cycles": 9}, "shard": 3, "duration_s": 1.2,
            "design_cache": "hit", "index": 7,
        }
        store.put("k", row)
        reloaded = ResultStore(path)
        got = reloaded.get("k")
        assert got["metrics"] == {"cycles": 9}
        # Placement metadata must not survive into the store.
        for field in ("shard", "duration_s", "design_cache", "index"):
            assert field not in got
        assert reloaded.stats()["hits"] == 1

    def test_hit_rate(self):
        store = ResultStore()
        store.put("k", {"status": "ok", "metrics": {}})
        assert store.get("k") is not None
        assert store.get("missing") is None
        stats = store.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestJobLifecycle:
    def test_submit_status_result(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            report = service.result(job_id)
            status = service.status(job_id)
        assert status["state"] == "done"
        assert status["completed"] == status["scenarios"] == 3
        assert status["ok"] == 3 and status["failed"] == 0
        assert report["summary"]["ok"] == 3
        assert [r["index"] for r in report["scenarios"]] == [0, 1, 2]

    def test_submit_accepts_spec_dict_path_and_object(self, tmp_path):
        import json as json_mod

        path = tmp_path / "c.json"
        path.write_text(json_mod.dumps(SMALL_CAMPAIGN), encoding="utf-8")
        spec = from_dict(SMALL_CAMPAIGN)
        with JobService(workers=0) as service:
            ids = [
                service.submit(SMALL_CAMPAIGN),
                service.submit(path),
                service.submit(spec),
            ]
            reports = [service.result(job_id) for job_id in ids]
        assert (
            _metrics_by_key(reports[0])
            == _metrics_by_key(reports[1])
            == _metrics_by_key(reports[2])
        )

    def test_bad_spec_raises_synchronously(self):
        with JobService(workers=0) as service:
            with pytest.raises(SpecError) as excinfo:
                service.submit({"scenarios": [{"params": {}}]})
        err = excinfo.value.to_dict()
        assert err["path"] == "scenarios[0]"
        assert err["field"] == "family"
        assert "family" in err["reason"]

    def test_unknown_job_id(self):
        with JobService(workers=0) as service:
            with pytest.raises(KeyError):
                service.status("job-999999")

    def test_list_jobs_in_submission_order(self):
        with JobService(workers=0) as service:
            first = service.submit(SMALL_CAMPAIGN)
            second = service.submit(SMALL_CAMPAIGN)
            service.result(second)
            listed = service.list_jobs()
        assert [job["id"] for job in listed] == [first, second]

    def test_closed_service_rejects_submissions(self):
        service = JobService(workers=0)
        service.close()
        with pytest.raises(RuntimeError):
            service.submit(SMALL_CAMPAIGN)


class TestDedup:
    def test_warm_resubmission_simulates_nothing(self):
        with JobService(workers=0, store=True) as service:
            cold = service.result(service.submit(SMALL_CAMPAIGN))
            warm = service.result(service.submit(SMALL_CAMPAIGN))
        assert "dedup_hits" not in cold["summary"]
        # The acceptance property: 100% dedup hits, zero simulated.
        assert warm["summary"]["dedup_hits"] == 3
        assert all(row["cached"] for row in warm["scenarios"])
        assert canonical_report(cold) == canonical_report(warm)

    def test_store_persists_across_services(self, tmp_path):
        path = tmp_path / "results.jsonl"
        with JobService(workers=0, store=path) as service:
            first = service.result(service.submit(SMALL_CAMPAIGN))
        with JobService(workers=0, store=path) as service:
            second = service.result(service.submit(SMALL_CAMPAIGN))
        assert second["summary"]["dedup_hits"] == 3
        assert _metrics_by_key(first) == _metrics_by_key(second)

    def test_different_stimulus_misses(self):
        changed = {
            "campaign": dict(SMALL_CAMPAIGN["campaign"]),
            "scenarios": [
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 2},
                    "stimulus": {"kind": "uniform", "items_per_thread": 7},
                },
            ],
        }
        with JobService(workers=0, store=True) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            report = service.result(service.submit(changed))
        assert "dedup_hits" not in report["summary"]

    def test_service_lifetime_dedup_stats(self):
        # Per-job dedup_hits only covers one submission; stats() (and
        # therefore /healthz) folds every store lookup since service
        # start, which is what the CI smoke asserts on.
        with JobService(workers=0, store=True) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            cold = service.stats()["dedup"]
            assert cold == {
                "hits": 0, "misses": 3, "hit_rate": 0.0, "store_entries": 3,
            }
            service.result(service.submit(SMALL_CAMPAIGN))
            warm = service.stats()["dedup"]
            assert warm == {
                "hits": 3, "misses": 3, "hit_rate": 0.5, "store_entries": 3,
            }

    def test_storeless_service_reports_zero_dedup(self):
        with JobService(workers=0) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            assert service.stats()["dedup"] == {
                "hits": 0, "misses": 0, "hit_rate": 0.0, "store_entries": 0,
            }

    def test_errors_are_not_memoized(self):
        bad = {
            "campaign": {"name": "b", "seed": 1},
            "scenarios": [{"family": "warp_drive"}],
        }
        with JobService(workers=0, store=True) as service:
            first = service.result(service.submit(bad))
            second = service.result(service.submit(bad))
        assert first["scenarios"][0]["status"] == "error"
        assert second["scenarios"][0]["status"] == "error"
        assert not second["scenarios"][0].get("cached")


class TestDesignCacheAffinity:
    def test_inline_cache_survives_jobs(self):
        with JobService(workers=0) as service:
            first = service.result(service.submit(SMALL_CAMPAIGN))
            second = service.result(service.submit(SMALL_CAMPAIGN))
        assert {r["design_cache"] for r in first["scenarios"]} == {"build"}
        # Same designs, second job: every scenario rewinds a cached sim.
        assert {r["design_cache"] for r in second["scenarios"]} == {"hit"}
        assert _metrics_by_key(first) == _metrics_by_key(second)

    def test_affinity_is_stable(self):
        key = "mt_chain(n_funcs=2,threads=2)"
        assert design_affinity(key, 4) == design_affinity(key, 4)
        assert 0 <= design_affinity(key, 4) < 4

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_pooled_cache_survives_jobs(self):
        with JobService(workers=2) as service:
            first = service.result(service.submit(SMALL_CAMPAIGN))
            second = service.result(service.submit(SMALL_CAMPAIGN))
        assert {r["design_cache"] for r in first["scenarios"]} == {"build"}
        # The second job rewinds cached designs; a worker may steal a
        # design from a busy holder (building its own replica), but no
        # worker ever builds one design twice.
        assert set(_builds(first, second).values()) == {1}
        assert _metrics_by_key(first) == _metrics_by_key(second)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_skewed_designs_are_claimed_by_idle_workers(self):
        # Every design prefers worker 0; a static hash route would leave
        # worker 1 idle for the whole campaign.
        spec = {
            "campaign": {"name": "skewed", "seed": 4},
            "scenarios": [
                {
                    "family": "mt_pipeline",
                    "params": {"threads": 2},
                    "grid": {"n_stages": [2, 3, 4]},
                    "stimulus": {"kind": "uniform", "items_per_thread": n},
                }
                for n in (4, 6)
            ],
        }
        designs = {s.design_key() for s in from_dict(spec).scenarios}
        assert {design_affinity(key, 2) for key in designs} == {0}
        with JobService(workers=2) as service:
            jobs = [service.submit(spec) for _ in range(2)]
            first, second = (service.result(job) for job in jobs)
            traces = [service.trace(job) for job in jobs]
            owned = service.stats()["pool"]["owned_designs"]
        # Both workers ran, no worker built a design twice, and the
        # holder counts are exactly the builds (replicas included).
        builds = _builds(first, second)
        assert {r["shard"] for r in first["scenarios"]} == {0, 1}
        assert set(builds.values()) == {1}
        assert sum(owned) == len(builds)
        assert _metrics_by_key(first) == _metrics_by_key(second)
        routes = [
            {(s["attrs"]["worker"], s["attrs"]["route"])
             for s in spans if s["name"] == "unit"}
            for spans in traces
        ]
        assert (0, "preferred") in routes[0] and (1, "claimed") in routes[0]
        assert (1, "preferred") not in routes[0]
        # Every design is held after the first job: nothing is claimed.
        assert {route for _worker, route in routes[1]} <= {"owner", "stolen"}

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_idle_worker_steals_from_a_busy_holder(self):
        # Warm-up jobs of one scenario each all land on worker 0 (the
        # first idle worker), so it holds every design; without
        # stealing, worker 1 would idle through the whole campaign.
        def block(n_stages, items):
            return {
                "family": "mt_pipeline",
                "params": {"threads": 2, "n_stages": n_stages},
                "stimulus": {"kind": "uniform", "items_per_thread": items},
            }

        campaign = {"name": "steal", "seed": 5}
        spec = {
            "campaign": campaign,
            "scenarios": [
                block(n, items) for n in (2, 3, 4) for items in (4, 6, 8)
            ],
        }
        with JobService(workers=2) as service:
            warm = [
                service.result(service.submit(
                    {"campaign": campaign, "scenarios": [block(n, 4)]}
                ))
                for n in (2, 3, 4)
            ]
            assert service.stats()["pool"]["owned_designs"] == [3, 0]
            job = service.submit(spec)
            report = service.result(job)
            routes = {
                (s["attrs"]["worker"], s["attrs"]["route"])
                for s in service.trace(job) if s["name"] == "unit"
            }
            owned = service.stats()["pool"]["owned_designs"]
            stolen = service.metrics.render()
        assert {r["shard"] for r in report["scenarios"]} == {0, 1}
        assert (1, "stolen") in routes
        assert {route for _worker, route in routes} <= {"owner", "stolen"}
        builds = _builds(*warm, report)
        assert set(builds.values()) == {1}
        assert owned[0] == 3 and sum(owned) == len(builds)
        steals = sum(1 for (worker, _d) in builds if worker == 1)
        assert f"repro_units_stolen_total {steals}" in stolen.splitlines()
        inline = run_campaign(from_dict(spec), workers=1)
        assert canonical_report(report) == canonical_report(inline)

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_respawn_drops_the_workers_ownerships(self):
        pool = _WorkerPool(2)
        try:
            pool.holders.update({
                "a": frozenset({0}), "b": frozenset({1}),
                "c": frozenset({0, 1}),
            })
            assert pool.owned_counts() == [2, 2]
            pool.respawn(0)
            # Worker 0 leaves every holder set; "a" had no replica.
            assert pool.holders == {"b": {1}, "c": {1}}
            assert pool.owned_counts() == [0, 2]
            assert all(pool.alive())
        finally:
            pool.close()

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_pooled_equals_inline(self):
        inline = run_campaign(from_dict(SMALL_CAMPAIGN), workers=1)
        with JobService(workers=2) as service:
            pooled = service.result(service.submit(SMALL_CAMPAIGN))
        assert _metrics_by_key(inline) == _metrics_by_key(pooled)


def _units(*keys):
    """One single-scenario unit per design key (a stand-in scenario).

    Each stand-in design is its own family, so a cost table keyed by
    design key weighs designs individually.
    """
    return [
        [types.SimpleNamespace(
            key=key, family=key, design_key=lambda key=key: key,
        )]
        for key in keys
    ]


def _fake_pool(size=2, holders=None):
    """A stand-in pool: *holders* maps design key -> worker or workers."""
    return types.SimpleNamespace(size=size, holders={
        key: frozenset(w if isinstance(w, (set, frozenset)) else {w})
        for key, w in (holders or {}).items()
    })


class TestBacklogClaims:
    """The four dispatch routes, on a stand-in two-worker pool."""

    # Preferred workers with 2 workers: "d2"/"d3" -> 0, "d5"/"d6" -> 1.
    KEYS = ("d5", "d2", "d3", "d6")

    def _backlog(self, owner=None, cost=None):
        assert [design_affinity(k, 2) for k in self.KEYS] == [1, 0, 0, 1]
        pool = _fake_pool(2, owner)
        units = _units(*self.KEYS, "d2")
        return _Backlog(pool, units, cost=cost), pool

    @staticmethod
    def _take(backlog, worker, now=0.0, busy=()):
        unit, attempt, route = backlog.take(worker, now, busy)
        return unit[0].key, attempt, route

    def test_owner_then_preferred_then_claimed(self):
        backlog, pool = self._backlog(owner={"d6": 0})
        assert self._take(backlog, 0) == ("d6", 1, "owner")
        assert self._take(backlog, 0) == ("d2", 1, "preferred")
        # d2 has a second unit: its claimant keeps it.
        assert self._take(backlog, 0) == ("d2", 1, "owner")
        assert self._take(backlog, 0) == ("d3", 1, "preferred")
        assert self._take(backlog, 0) == ("d5", 1, "claimed")
        assert backlog.take(0, 0.0) is None
        assert pool.holders == {"d6": {0}, "d2": {0}, "d3": {0}, "d5": {0}}

    def test_designs_owned_elsewhere_are_never_taken(self):
        # ... while their holder is idle: it serves its own designs.
        backlog, _pool = self._backlog(owner={"d5": 1, "d2": 1, "d6": 1})
        assert self._take(backlog, 0) == ("d3", 1, "preferred")
        assert backlog.take(0, 0.0) is None
        taken = [self._take(backlog, 1)[0] for _ in range(4)]
        # Longest first (d2 has two pending units), ties in plan order.
        assert taken == ["d2", "d5", "d2", "d6"]

    def test_steals_only_without_owned_preferred_or_claimed_work(self):
        backlog, pool = self._backlog(owner={"d5": 1, "d2": 1})
        busy = {1}
        assert self._take(backlog, 0, busy=busy) == ("d3", 1, "preferred")
        assert self._take(backlog, 0, busy=busy) == ("d6", 1, "claimed")
        assert self._take(backlog, 0, busy=busy) == ("d2", 1, "stolen")
        # The thief joined d2's holders: its next unit is its own.
        assert pool.holders["d2"] == {0, 1}
        assert self._take(backlog, 0, busy=busy) == ("d2", 1, "owner")
        assert self._take(backlog, 0, busy=busy) == ("d5", 1, "stolen")
        assert backlog.take(0, 0.0, busy) is None
        assert pool.holders == {"d5": {0, 1}, "d2": {0, 1}, "d3": {0},
                                "d6": {0}}

    def test_steal_takes_the_most_estimated_pending_work(self):
        held = {key: 1 for key in self.KEYS}
        # Per-unit costs: d2 has two units (2 x 1.0 = 2.0), d6 one of 3.0.
        costs = {"d5": 0.5, "d2": 1.0, "d3": 0.25, "d6": 3.0}
        backlog, _pool = self._backlog(owner=held, cost=costs.get)
        steals = [self._take(backlog, 0, busy={1}) for _ in range(2)]
        assert steals == [("d6", 1, "stolen"), ("d2", 1, "stolen")]

    def test_never_steals_from_an_idle_holder(self):
        pool = _fake_pool(3, {"d1": {1, 2}})
        backlog = _Backlog(pool, _units("d1", "d1"))
        assert backlog.take(0, 0.0) is None
        assert backlog.take(0, 0.0, {1}) is None  # holder 2 is idle
        unit, _attempt, route = backlog.take(0, 0.0, {1, 2})
        assert (unit[0].key, route) == ("d1", "stolen")
        assert pool.holders["d1"] == {0, 1, 2}

    def test_steal_honours_failed_on(self):
        backlog, pool = self._backlog(owner={key: 1 for key in self.KEYS})
        unit, _attempt, route = backlog.take(1, 0.0)  # d2, longest
        assert (unit[0].key, route) == ("d2", "owner")
        backlog.retry(unit, 2, ready=0.0, worker=0)
        steals = [self._take(backlog, 0, busy={1})[0] for _ in range(3)]
        assert sorted(steals) == ["d3", "d5", "d6"]
        # Both d2 units (sibling and retry) are left to worker 1.
        assert backlog.take(0, 0.0, {1}) is None
        assert [self._take(backlog, 1)[:2] for _ in range(2)] == [
            ("d2", 1), ("d2", 2),
        ]

    def test_designs_go_out_longest_first_within_each_route(self):
        costs = {"d5": 1.0, "d2": 0.5, "d3": 4.0, "d6": 2.0}
        backlog, _pool = self._backlog(cost=costs.get)
        # Preferred for worker 0: d3 (4.0) before d2 (2 x 0.5); for
        # worker 1: d6 (2.0) before d5 (1.0).
        assert self._take(backlog, 0)[::2] == ("d3", "preferred")
        assert self._take(backlog, 1)[::2] == ("d6", "preferred")
        assert self._take(backlog, 1)[::2] == ("d5", "preferred")
        assert self._take(backlog, 1)[::2] == ("d2", "claimed")

    def test_cold_families_weigh_alike_then_as_the_slowest_known(self):
        # Cold: equal weights, so pending units decide (d2 has two).
        backlog, _pool = self._backlog()
        assert backlog.unit_cost == dict.fromkeys(self.KEYS, 1.0)
        assert self._take(backlog, 0)[::2] == ("d2", "preferred")
        # d3 has no estimate: it weighs as the slowest known (d6, 2.0),
        # so it goes before d2 (2 x 0.5).
        costs = {"d5": 1.0, "d2": 0.5, "d6": 2.0}
        backlog, _pool = self._backlog(cost=costs.get)
        assert backlog.unit_cost["d3"] == 2.0
        assert self._take(backlog, 0)[::2] == ("d3", "preferred")

    def test_retry_waits_out_backoff_and_avoids_failing_worker(self):
        backlog, pool = self._backlog()
        unit, _attempt, _route = backlog.take(0, 0.0)  # claims d2
        pool.holders = {}  # worker 0 respawned
        backlog.retry(unit, 2, ready=5.0, worker=0)
        taken = [self._take(backlog, 0)[0] for _ in range(3)]
        assert taken == ["d3", "d5", "d6"]
        # d2 (its sibling unit, then the retry) is left to worker 1.
        assert backlog.take(0, 0.0) is None
        assert self._take(backlog, 1, now=1.0) == ("d2", 1, "claimed")
        assert backlog.take(1, 1.0) is None  # the retry is backing off
        assert backlog.take(0, 9.0) is None
        assert self._take(backlog, 1, now=9.0) == ("d2", 2, "owner")

    def test_single_worker_retries_on_itself(self):
        pool = _fake_pool(1)
        backlog = _Backlog(pool, _units("d1"))
        unit, _attempt, _route = backlog.take(0, 0.0)
        pool.holders = {}
        backlog.retry(unit, 2, ready=0.0, worker=0)
        assert self._take(backlog, 0) == ("d1", 2, "preferred")

    def test_drain_returns_everything_pending(self):
        backlog, _pool = self._backlog()
        unit, _attempt, _route = backlog.take(0, 0.0)
        backlog.retry(unit, 2, ready=5.0, worker=0)
        drained = sorted(u[0].key for u in backlog.drain())
        assert drained == ["d2", "d2", "d3", "d5", "d6"]
        assert backlog.take(1, 9.0) is None


def _build_nothing(params, engine):
    return object()


def _run_kill_worker(handle, scenario):
    os._exit(3)


def _run_trivial(handle, scenario):
    return {"cycles": 1}


class TestWorkerDeath:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool tests rely on fork inheritance",
    )
    def test_worker_death_contained_and_respawned(self, temp_family):
        temp_family(Family(
            name="_kills_worker", build=_build_nothing,
            run=_run_kill_worker, reusable=False,
        ))
        spec = {
            "campaign": {"name": "kill", "seed": 1},
            "scenarios": [
                {"family": "_kills_worker"},
                {
                    "family": "mt_chain",
                    "params": {"threads": 2, "n_funcs": 1},
                    "stimulus": {"kind": "uniform", "items_per_thread": 3},
                },
            ],
        }
        with JobService(workers=2) as service:
            report = service.result(service.submit(spec))
            stats = service.stats()
            # The pool recovered: a later healthy job still completes.
            after = service.result(service.submit(SMALL_CAMPAIGN))
        rows = {r["key"]: r for r in report["scenarios"]}
        killed = rows["_kills_worker()/uniform"]
        assert killed["status"] == "worker-failed"
        assert "died" in killed["error"]
        # The default retry budget (1) re-ran the unit once; the family
        # kills its worker every time, so the row exhausted both
        # attempts and both deaths triggered a respawn.
        assert killed["attempts"] == 2
        healthy = rows["mt_chain(n_funcs=1,threads=2)/uniform"]
        assert healthy["status"] == "ok"
        assert stats["workers"]["respawns"] == 2
        assert all(stats["workers"]["alive"])
        assert after["summary"]["failed"] == 0


class TestCancel:
    def test_cancel_running_job(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_blocker", build=_build_nothing, run=run, reusable=False,
        ))
        spec = {
            "campaign": {"name": "cancelme", "seed": 1},
            "scenarios": [{"family": "_blocker"}] * 3,
        }
        with JobService(workers=0) as service:
            job_id = service.submit(spec)
            assert started.wait(10)
            assert service.cancel(job_id)
            gate.set()
            report = service.result(job_id)
            status = service.status(job_id)
        assert status["state"] == "cancelled"
        assert [r["status"] for r in report["scenarios"]] == [
            "ok", "cancelled", "cancelled",
        ]

    def test_cancel_queued_job(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_blocker2", build=_build_nothing, run=run, reusable=False,
        ))
        blocker = {
            "campaign": {"name": "head", "seed": 1},
            "scenarios": [{"family": "_blocker2"}],
        }
        with JobService(workers=0) as service:
            head = service.submit(blocker)
            queued = service.submit(SMALL_CAMPAIGN)
            assert started.wait(10)
            assert service.cancel(queued)
            gate.set()
            service.result(head)
            report = service.result(queued)
            status = service.status(queued)
        assert status["state"] == "cancelled"
        assert all(
            r["status"] == "cancelled" for r in report["scenarios"]
        )

    def test_cancel_finished_job_returns_false(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            assert not service.cancel(job_id)


class TestJobHistory:
    """At most MAX_FINISHED_JOBS terminal jobs are kept, oldest out first."""

    def test_hits_leave_at_most_the_limit(self):
        limit = jobs_mod.MAX_FINISHED_JOBS
        assert limit == 256
        with JobService(workers=0, store=True) as service:
            service.result(service.submit(SMALL_CAMPAIGN))
            ids = [service.submit(SMALL_CAMPAIGN) for _ in range(300)]
            last = service.result(ids[-1])
            stats = service.stats()
            listed = [job["id"] for job in service.list_jobs()]
            with pytest.raises(JobEvicted, match="evicted") as excinfo:
                service.status(ids[0])
            with pytest.raises(KeyError, match="unknown job id"):
                service.status("job-999999")
        assert last["summary"]["dedup_hits"] == 3
        assert listed == ids[-limit:]
        assert sum(stats["jobs"].values()) == limit
        assert stats["history"] == {"max_finished_jobs": limit, "evicted": 45}
        assert isinstance(excinfo.value, KeyError)

    def test_queued_and_running_jobs_are_never_evicted(
        self, temp_family, monkeypatch
    ):
        monkeypatch.setattr(jobs_mod, "MAX_FINISHED_JOBS", 1)
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_history_blocker", build=_build_nothing, run=run,
            reusable=False,
        ))
        blocker = {
            "campaign": {"name": "slow", "seed": 1},
            "scenarios": [{"family": "_history_blocker"}],
        }
        with JobService(workers=0) as service:
            done = [service.submit(SMALL_CAMPAIGN) for _ in range(3)]
            service.result(done[-1])
            running = service.submit(blocker)
            queued = service.submit(SMALL_CAMPAIGN)
            assert started.wait(10)
            assert [job["id"] for job in service.list_jobs()] == [
                done[-1], running, queued,
            ]
            assert service.status(running)["state"] == "running"
            assert service.status(queued)["state"] == "queued"
            assert service.stats()["queue_depth"] == 1
            gate.set()
            service.result(queued)
            assert [job["id"] for job in service.list_jobs()] == [queued]
            assert service.stats()["history"]["evicted"] == 4
            with pytest.raises(JobEvicted):
                service.status(running)


class TestRunCampaignCompat:
    """run_campaign is now a jobs-API client; its contract must hold."""

    def test_report_shape_unchanged(self):
        report = run_campaign(from_dict(SMALL_CAMPAIGN), workers=1)
        assert set(report) == {"campaign", "summary", "scenarios"}
        assert report["campaign"]["workers"] == 1
        for row in report["scenarios"]:
            assert {"key", "index", "status", "shard", "duration_s"} <= set(
                row
            )

    def test_store_argument_memoizes(self, tmp_path):
        spec = from_dict(SMALL_CAMPAIGN)
        store = tmp_path / "memo.jsonl"
        cold = run_campaign(spec, workers=1, store=store)
        warm = run_campaign(spec, workers=1, store=store)
        assert warm["summary"]["dedup_hits"] == 3
        assert _metrics_by_key(cold) == _metrics_by_key(warm)


class TestCampaignSpecType:
    def test_submit_requires_expanded_spec(self):
        spec = from_dict(SMALL_CAMPAIGN)
        assert isinstance(spec, CampaignSpec)


class TestObservability:
    """Events stream, merged traces, metrics — the jobs-API surface."""

    def test_events_replay_after_done(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            events = list(service.events(job_id))
        assert events[0]["event"] == "job"
        assert events[0]["state"] == "running"
        scenario_events = [e for e in events if e["event"] == "scenario"]
        assert len(scenario_events) == 3
        keys = {e["key"] for e in scenario_events}
        assert len(keys) == 3
        assert [e["completed"] for e in scenario_events] == [1, 2, 3]
        for e in scenario_events:
            assert e["total"] == 3 and e["status"] == "ok"
            assert e["cached"] is False
        last = events[-1]
        assert last["event"] == "job" and last["state"] == "done"
        assert last["ok"] == 3 and last["failed"] == 0
        # seq numbers are the dedup key for replay/live overlap
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_events_live_subscriber_sees_everything(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_slow_obs", build=_build_nothing, run=run, reusable=False,
        ))
        spec = {
            "campaign": {"name": "live", "seed": 1},
            "scenarios": [{"family": "_slow_obs"}] * 2,
        }
        with JobService(workers=0) as service:
            job_id = service.submit(spec)
            assert started.wait(10)
            collected = []

            def consume():
                for event in service.events(job_id, timeout=30):
                    collected.append(event)

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            gate.set()
            consumer.join(timeout=30)
            assert not consumer.is_alive()
        assert collected[-1]["state"] == "done"
        assert sum(1 for e in collected if e["event"] == "scenario") == 2

    def test_events_cancelled_job_terminates_stream(self, temp_family):
        gate = threading.Event()
        started = threading.Event()

        def run(handle, scenario):
            started.set()
            assert gate.wait(10)
            return {"cycles": 1}

        temp_family(Family(
            name="_cancel_obs", build=_build_nothing, run=run,
            reusable=False,
        ))
        spec = {
            "campaign": {"name": "cancel-events", "seed": 1},
            "scenarios": [{"family": "_cancel_obs"}] * 3,
        }
        with JobService(workers=0) as service:
            job_id = service.submit(spec)
            assert started.wait(10)
            assert service.cancel(job_id)
            gate.set()
            events = list(service.events(job_id, timeout=30))
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] == "cancelled"

    def test_events_unknown_job_raises(self):
        with JobService(workers=0) as service:
            with pytest.raises(KeyError):
                list(service.events("job-999999"))

    def test_inline_trace_hierarchy(self):
        with JobService(workers=0) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            spans = service.trace(job_id)
        names = [s["name"] for s in spans]
        assert names.count("job") == 1
        assert "unit" in names and "scenario" in names
        assert {"build", "simulate", "metrics"} <= set(names)
        by_id = {s["span_id"]: s for s in spans}
        job_span = next(s for s in spans if s["name"] == "job")
        assert job_span["trace_id"] == job_id
        assert job_span["attrs"]["state"] == "done"
        for span in spans:
            assert span["trace_id"] == job_id
            if span["parent_id"] is not None:
                assert span["parent_id"] in by_id
        # start-ordered
        starts = [s["start_unix"] for s in spans]
        assert starts == sorted(starts)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_trace_merges_worker_spans(self, workers):
        with JobService(workers=workers) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            service.result(job_id)
            spans = service.trace(job_id)
        assert all(s["trace_id"] == job_id for s in spans)
        workers_seen = {
            s["attrs"]["worker"]
            for s in spans
            if "worker" in s.get("attrs", {})
        }
        assert workers_seen, "no worker-tagged spans shipped back"
        scenario_spans = [s for s in spans if s["name"] == "scenario"]
        assert len(scenario_spans) == 3
        # worker unit spans parent to the dispatcher's job span
        job_span = next(s for s in spans if s["name"] == "job")
        unit_spans = [s for s in spans if s["name"] == "unit"]
        assert all(
            u["parent_id"] == job_span["span_id"] for u in unit_spans
        )
        assert {u["attrs"]["mode"] for u in unit_spans} == {
            "inline" if workers == 0 else "pool"
        }

    def test_cached_rows_emit_events_and_spans(self):
        with JobService(workers=0, store=True) as service:
            first = service.submit(SMALL_CAMPAIGN)
            service.result(first)
            second = service.submit(SMALL_CAMPAIGN)
            service.result(second)
            events = list(service.events(second))
            spans = service.trace(second)
        scenario_events = [e for e in events if e["event"] == "scenario"]
        assert len(scenario_events) == 3
        assert all(e["cached"] for e in scenario_events)
        cached_spans = [
            s for s in spans
            if s["name"] == "scenario" and s["attrs"].get("cached")
        ]
        assert len(cached_spans) == 3

    def test_metrics_counters_accumulate(self):
        with JobService(workers=0, store=True) as service:
            first = service.submit(SMALL_CAMPAIGN)
            service.result(first)
            second = service.submit(SMALL_CAMPAIGN)
            service.result(second)
            text = service.render_metrics()
        assert "repro_jobs_submitted_total 2" in text
        assert 'repro_jobs_completed_total{state="done"} 2' in text
        assert 'repro_scenarios_completed_total{status="ok"} 6' in text
        assert 'repro_dedup_lookups_total{result="miss"} 3' in text
        assert 'repro_dedup_lookups_total{result="hit"} 3' in text
        assert "repro_scenario_duration_seconds_count 6" in text
        assert "repro_job_duration_seconds_count 2" in text

    def test_profile_flag_attaches_and_stays_volatile(self):
        store = ResultStore()
        with JobService(workers=0, store=store, profile=True) as service:
            job_id = service.submit(SMALL_CAMPAIGN)
            report = service.result(job_id)
        ok_rows = [
            r for r in report["scenarios"] if r["status"] == "ok"
        ]
        assert ok_rows and all("profile" in r for r in ok_rows)
        # canonical reports strip the profile payloads...
        canon = canonical_report(report)
        assert all("profile" not in r for r in canon["scenarios"])
        # ...and the dedup store never persists them
        assert len(store) == 3
        for row in store._rows.values():
            assert "profile" not in row

    def test_submit_profile_override(self):
        with JobService(workers=0, profile=False) as service:
            job_id = service.submit(SMALL_CAMPAIGN, profile=True)
            report = service.result(job_id)
            assert any("profile" in r for r in report["scenarios"])
            plain = service.submit(SMALL_CAMPAIGN)
            report = service.result(plain)
            assert not any("profile" in r for r in report["scenarios"])
