"""service_mixed: two closed-loop HTTP clients against ``repro.serve``.

The program under test is a real ``python -m repro.serve --workers 2
--memory-store`` subprocess.  Set-up spawns it, waits for ``/healthz``
and warms a hot set of paper-sweep campaigns (which also builds every
design in the workers).  The request list, generated from the seed,
holds 7 reads in 8 (a hot campaign resubmitted, answered entirely from
the dedup store) and 1 write in 8 (a never-seen campaign seed, which
simulates on warm designs and stores its rows).  Every report must be
canonical-equal to a serial (``ensemble="off"``, store-less) reference
for its seed, computed by a separate in-process service, and the
server's dedup counters must equal what the completed requests imply.

Traced mode pings ``/healthz`` every few requests (round trip and
queue depth) and fetches each job's span trace
(``ServiceClient.trace``) after its report.
"""

from __future__ import annotations

import hashlib
import json
import os
import queue
import random
import re
import signal
import subprocess
import sys
import threading
import time

from campaigns import paper_sweep
from ledger import Result, median, pid_peak_rss_mb, quantile

CLIENTS = 2
WORKERS = 2
HOT = 4
SETUPS = 3
PING_EVERY = 4
EXACT_PREFIX = 16
#: Latency charged to a failed request: the client timeout, so it
#: misses every latency bound.
FAILED_LATENCY_S = 120.0
_LISTEN = re.compile(r"listening on (http://[\w.\-]+:\d+)")


class Server:
    """A ``repro.serve`` subprocess in its own process group."""

    def __init__(self, src: str):
        env = {**os.environ, "PYTHONPATH": src}
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--port", "0",
             "--workers", str(WORKERS), "--memory-store"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, start_new_session=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        deadline = time.monotonic() + 60
        while True:
            try:
                line = self._lines.get(
                    timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                self.stop()
                raise RuntimeError("server did not start within 60 s")
            if line is None:
                self.stop()
                raise RuntimeError("server exited during start-up")
            match = _LISTEN.search(line)
            if match:
                self.url = match.group(1)
                return

    def _drain(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill the group if it lingers."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait(timeout=10)
        self._reader.join(timeout=10)


def _digest(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _run_request(client, spec: dict) -> tuple[float, float, dict, str]:
    """Submit, then block on the report; returns (submit_s, wait_s, ...)."""
    from repro.serve.client import ServiceError

    t0 = time.perf_counter()
    job_id = client.submit(spec)["id"]
    t1 = time.perf_counter()
    while True:
        try:
            report = client.report(job_id, wait=60)
            break
        except ServiceError as exc:
            if exc.status != 409 or time.perf_counter() - t1 > 120:
                raise
    return t1 - t0, time.perf_counter() - t1, report, job_id


def _setup(src: str, hot_specs: list[dict]) -> tuple[Server, float]:
    from repro.serve.client import ServiceClient

    t0 = time.perf_counter()
    server = Server(src)
    try:
        client = ServiceClient(server.url, timeout=120)
        client.wait_ready(timeout=60)
        for spec in hot_specs:
            _run_request(client, spec)
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def _make_requests(rng: random.Random, hot_seeds: list[int],
                   count: int) -> list[tuple[str, int]]:
    """(kind, campaign seed) pairs: one write at a random slot per 8."""
    taken = set(hot_seeds)
    out = []
    for _ in range(count // 8):
        write_at = rng.randrange(8)
        for slot in range(8):
            if slot == write_at:
                seed = rng.randrange(1, 2**31)
                while seed in taken:
                    seed = rng.randrange(1, 2**31)
                taken.add(seed)
                out.append(("miss", seed))
            else:
                out.append(("hit", hot_seeds[rng.randrange(len(hot_seeds))]))
    return out


def _measure(url: str, requests: list, start: int, seconds: float,
             traced: bool) -> dict:
    """Two closed-loop clients over requests[start:] for *seconds*."""
    from repro.serve.client import ServiceClient

    lock = threading.Lock()
    cursor = [start]
    done: list[dict] = []
    pings: list[tuple[float, int]] = []
    deadline = time.perf_counter() + seconds

    def client_loop() -> None:
        client = ServiceClient(url, timeout=120)
        issued = 0
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            kind, seed = requests[index]
            rec = {"index": index, "kind": kind, "seed": seed}
            t0 = time.perf_counter()
            try:
                submit_s, wait_s, report, job_id = _run_request(
                    client, paper_sweep(seed))
                rec.update(
                    latency=time.perf_counter() - t0, submit=submit_s,
                    wait=wait_s, canonical=_digest(_canonical(report)),
                    scenarios=len(report["scenarios"]),
                    cycles=report["summary"].get("total_cycles", 0),
                    failed_rows=report["summary"]["failed"],
                    dedup_hits=report["summary"].get("dedup_hits", 0),
                )
                issued += 1
                if traced:
                    rec["spans"] = client.trace(job_id)
                    if issued % PING_EVERY == 0:
                        p0 = time.perf_counter()
                        depth = client.healthz()["queue_depth"]
                        pings.append((time.perf_counter() - p0, depth))
            except Exception as exc:  # counted as a failed request
                rec.update(latency=FAILED_LATENCY_S,
                           error=f"{type(exc).__name__}: {exc}")
            with lock:
                done.append(rec)

    t_start = time.perf_counter()
    threads = [threading.Thread(target=client_loop, daemon=True)
               for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=300)
    return {"done": done, "pings": pings, "next": cursor[0],
            "wall": time.perf_counter() - t_start}


def _canonical(report: dict) -> dict:
    from repro.sweep.report import canonical_report

    return canonical_report(report)


def _span_sum(spans: list[dict], name: str) -> float:
    return sum(s["duration_s"] for s in spans if s["name"] == name)


def run(seed: int, seconds: float, trace: bool, paths: dict) -> Result:
    from repro.serve.client import ServiceClient
    from repro.sweep.jobs import JobService
    from repro.sweep.spec import from_dict

    result = Result()
    rng = random.Random(f"service_mixed|{seed}")
    hot_seeds = rng.sample(range(1, 2**31), HOT)
    requests = _make_requests(rng, hot_seeds, 20_000)
    hot_specs = [paper_sweep(s) for s in hot_seeds]

    setups = []
    for _ in range(SETUPS - 1):
        server, setup_s = _setup(paths["src"], hot_specs)
        server.stop()
        setups.append(setup_s)
    server, setup_s = _setup(paths["src"], hot_specs)
    setups.append(setup_s)
    try:
        untraced = _measure(server.url, requests, 0,
                            seconds / 2 if trace else seconds, False)
        traced = (_measure(server.url, requests, untraced["next"],
                           seconds / 2, True) if trace else None)
        health = ServiceClient(server.url, timeout=60).healthz()
        peak_rss = pid_peak_rss_mb(server.proc.pid)
    finally:
        server.stop()

    # References come after the timed phase, from a separate service
    # that runs every scenario serially (no ensembles, no dedup store).
    passes = [untraced] + ([traced] if traced else [])
    records = [r for p in passes for r in p["done"]]
    with JobService(workers=WORKERS, ensemble="off") as ref_service:
        jobs = {s: ref_service.submit(paper_sweep(s))
                for s in sorted({r["seed"] for r in records})}
        references = {
            s: _digest(_canonical(ref_service.result(job, timeout=150)))
            for s, job in jobs.items()
        }
    for r in records:
        ok = "error" not in r and r["failed_rows"] == 0 and (
            r["canonical"] == references[r["seed"]])
        if ok and r["kind"] == "hit":
            ok = r["dedup_hits"] == r["scenarios"]
        result.check(ok, f"request {r['index']} ({r['kind']}, seed "
                         f"{r['seed']}): {r.get('error', 'wrong report')}")

    # The service's lifetime dedup counters must match the requests.
    per_campaign = len(from_dict(hot_specs[0]).scenarios)
    hits = sum(1 for r in records if r["kind"] == "hit" and "error" not in r)
    misses = sum(1 for r in records if r["kind"] == "miss"
                 and "error" not in r)
    expect = {"hits": hits * per_campaign,
              "misses": (HOT + misses) * per_campaign}
    dedup = health["dedup"]
    result.check(
        dedup["hits"] == expect["hits"] and dedup["misses"] == expect["misses"],
        f"dedup counters {dedup} != expected {expect}")

    done = untraced["done"]
    lat = [r["latency"] for r in done]
    miss_rate = [r["cycles"] / r["latency"] for r in done
                 if r["kind"] == "miss" and "error" not in r]
    result.end_to_end = {
        "setup_s": median(setups),
        "sim_cycles_per_s": median(miss_rate),
        "scenarios_per_s": sum(r.get("scenarios", 0) for r in done)
        / untraced["wall"],
        "req_per_s": len(done) / untraced["wall"],
        "req_p50_ms": quantile(lat, 0.5) * 1e3,
        "req_p95_ms": quantile(lat, 0.95) * 1e3,
        "peak_rss_mb": peak_rss,
    }
    result.samples = {
        "requests": len(done),
        "hits": sum(1 for r in done if r["kind"] == "hit"),
        "misses": sum(1 for r in done if r["kind"] == "miss"),
        "setup": len(setups),
        "clients": CLIENTS,
    }
    result.exact = {
        "dedup": {"hits": dedup["hits"], "misses": dedup["misses"],
                  "expected": expect},
        "hot_seeds": hot_seeds,
        # The first requests of the list complete in every run, so
        # their campaigns' cycle totals repeat exactly for a given seed.
        "total_cycles": {
            f"{r['kind']}:{r['seed']}": r["cycles"]
            for r in sorted(records, key=lambda r: r["index"])
            if r["index"] < EXACT_PREFIX and "error" not in r
        },
    }
    if not trace:
        return result

    layers = result.layers

    def ms(kind: str, key: str) -> float:
        return median([r[key] for r in done
                       if r["kind"] == kind and "error" not in r]) * 1e3

    tdone = [r for r in traced["done"] if "error" not in r]
    tmiss = [r for r in tdone if r["kind"] == "miss"]
    layers["serve.http.ping_ms"] = median(
        [p for p, _ in traced["pings"]]) * 1e3
    layers["serve.submit_ms.hit"] = ms("hit", "submit")
    layers["serve.report_wait_ms.hit"] = ms("hit", "wait")
    layers["sweep.store.hit_rate"] = dedup["hit_rate"]
    layers["serve.submit_ms.miss"] = ms("miss", "submit")
    layers["serve.report_wait_ms.miss"] = ms("miss", "wait")
    layers["sweep.runner.simulate_s.miss"] = median(
        [_span_sum(r["spans"], "simulate") for r in tmiss])
    layers["sweep.runner.build_s.miss"] = median(
        [_span_sum(r["spans"], "build") for r in tmiss])
    layers["sweep.jobs.queue_depth.max"] = max(
        (q for _, q in traced["pings"]), default=0)
    layers["obs.trace_overhead"] = (
        traced["wall"] / len(traced["done"])) / (
        untraced["wall"] / len(done))
    layers["obs.attributed_frac"] = sum(
        _span_sum(r["spans"], "job") for r in tdone) / sum(
        r["latency"] for r in tdone)
    result.samples.update(traced_requests=len(traced["done"]),
                          traced_misses=len(tmiss),
                          pings=len(traced["pings"]))
    return result
