"""kernel_long: long compiled-engine simulations of prebuilt designs.

No campaign or service code runs here: each request restores one
design's pristine snapshot, drives its seeded inputs to completion with
the default (compiled) engine and checks the outputs against an
independent oracle.  Rounds visit the five designs in turn, and each
design's inputs are sized so its run takes a similar share of a round.

Traced mode wraps every run in ``Simulator.profile()`` for the
settle/tick/fused phase split; the untraced half of the same run gives
the per-design run times.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import time

from ledger import DESIGNS, Result, median, quantile, self_peak_rss_mb

#: Fresh interpreters timed for setup_s.
SETUP_PROBES = 5


class _Channel:
    """A channel design: per-thread sink streams are the oracle.

    The paper's property: elastic and multithreaded buffering change
    timing, never the per-thread token streams, so each thread's sink
    stream must equal what was pushed into it (through the design's
    pure functions, for the chain).
    """

    threads = 8
    profile_after_restore_breaks = False

    def __init__(self, rng: random.Random):
        self.inputs = [
            [rng.getrandbits(16) for _ in range(self.items)]
            for _ in range(self.threads)
        ]
        self.expected = [
            [self.transform(x) for x in stream] for stream in self.inputs
        ]

    @staticmethod
    def transform(x: int) -> int:
        return x

    def push_all(self) -> None:
        for t, stream in enumerate(self.inputs):
            for x in stream:
                self.source.push(t, x)

    def drive(self) -> int:
        from repro.kernel import WatchedPredicate

        self.push_all()
        sink = self.sink
        target = self.threads * self.items
        self.sim.run(
            until=WatchedPredicate(
                lambda _s: sink.count >= target,
                watches=(*sink.channel.valid, *sink.channel.ready),
            ),
            max_cycles=1_000_000,
        )
        return self.sim.cycle

    def streams(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.threads)]
        for _cycle, thread, data in self.sink.received:
            out[thread].append(data)
        return out

    def output_ok(self) -> bool:
        return self.streams() == self.expected

    def digest(self) -> str:
        return hashlib.sha256(repr(self.sink.received).encode()).hexdigest()


class MtPipeline(_Channel):
    """8 threads through 4 FullMEB stages, every thread dense."""

    name = "mt_pipeline"
    items = 330

    def build(self) -> None:
        from repro.core import FullMEB
        from repro.sweep.families import make_mt_pipeline

        self.sim, self.source, self.sink, mebs, _mons = make_mt_pipeline(
            FullMEB, threads=self.threads,
            items=[[] for _ in range(self.threads)], n_stages=4,
        )
        self.meb_paths = {m.name for m in mebs}


class MtChain(_Channel):
    """32 threads through 8 shared pure functions: a wide settle."""

    name = "mt_chain"
    threads = 32
    items = 45

    @staticmethod
    def transform(x: int) -> int:
        for k in range(8):
            x = (x * 7 + k) & 0xFFFF
        return x

    def build(self) -> None:
        from repro.sweep.families import make_mt_chain

        self.sim, self.source, self.sink = make_mt_chain(
            threads=self.threads, n_funcs=8, n_items=0,
        )
        self.meb_paths = {"meb_in", "meb_out"}


class MtBursty(_Channel):
    """Bursts into an idle pipeline: settle+tick fusion does the work."""

    name = "mt_bursty"
    bursts, burst, gap = 30, 15, 2_000
    items = bursts * burst

    def build(self) -> None:
        from repro.core import FullMEB
        from repro.sweep.families import make_mt_bursty

        self.sim, self.source, self.sink, mebs, _mons = make_mt_bursty(
            FullMEB, threads=self.threads, n_stages=3,
        )
        self.meb_paths = {m.name for m in mebs}

    def drive(self) -> int:
        for b in range(self.bursts):
            lo = b * self.burst
            for t, stream in enumerate(self.inputs):
                for x in stream[lo : lo + self.burst]:
                    self.source.push(t, x)
            self.sim.run(cycles=self.gap)
        return self.sim.cycle


class ProcessorMix:
    """8 threads, reduced MEBs, the standard program mix scaled up.

    Oracle: the architectural interpreter (``apps.processor.interp``)
    run on the same words, compared register file by register file,
    plus each program's own expected result.
    """

    name = "processor"
    threads = 8
    profile_after_restore_breaks = False

    def __init__(self, rng: random.Random):
        from repro.apps.processor import programs
        from repro.apps.processor.assembler import assemble
        from repro.apps.processor.interp import Interpreter

        # Each thread retires roughly 280 instructions.
        mix = [
            programs.sum_to_n(rng.randint(68, 72)),
            programs.fibonacci(rng.randint(44, 48)),
            programs.gcd(rng.randint(270, 290), 4),
            programs.shift_playground(rng.getrandbits(31)),
            programs.spin(rng.randint(68, 72)),
            programs.sum_to_n(rng.randint(64, 68)),
            programs.fibonacci(rng.randint(40, 44)),
            programs.gcd(rng.randint(250, 270), 4),
        ]
        self.programs = mix
        self.words = []
        self.expected_regs = []
        self.expected_retired = []
        for t, program in enumerate(mix):
            base = t * 0x1000
            words = assemble(program.source, base=base)
            interp = Interpreter(words, base=base)
            state = interp.run()
            self.words.append(words)
            self.expected_regs.append(interp.regfile())
            self.expected_retired.append(state.retired)

    def build(self) -> None:
        from repro.apps.processor import Processor as Cpu

        self.cpu = Cpu(threads=self.threads, meb="reduced")
        self.sim = self.cpu.sim
        self.meb_paths = {m.name for m in self.cpu.meb_components()}

    def drive(self) -> int:
        for t, words in enumerate(self.words):
            self.cpu.load_program(t, words, base=t * 0x1000)
        return self.cpu.run(max_cycles=200_000).cycles

    def output_ok(self) -> bool:
        from repro.apps.processor.isa import N_REGS

        cpu = self.cpu
        for t, program in enumerate(self.programs):
            regs = [cpu.reg(t, i) for i in range(N_REGS)]
            kind, where = program.check
            got = regs[where] if kind == "reg" else cpu.mem_word(t, where)
            if (
                regs != self.expected_regs[t]
                or cpu.pc_unit.retired[t] != self.expected_retired[t]
                or got != program.expected
            ):
                return False
        return True

    def digest(self) -> str:
        from repro.apps.processor.isa import N_REGS

        cpu = self.cpu
        return hashlib.sha256(repr((
            list(cpu.pc_unit.retired),
            [[cpu.reg(t, i) for i in range(N_REGS)]
             for t in range(self.threads)],
        )).encode()).hexdigest()


class Md5Pipelined:
    """32 threads through 16 pipelined round stages, two blocks each."""

    name = "md5_pipelined"
    threads = 32
    # Known defect: profiling the MD5 circuit after any restore() raises
    # "round desynchronization", so traced requests start from a fresh
    # build instead (same pristine state, same simulated run).
    profile_after_restore_breaks = True

    def __init__(self, rng: random.Random):
        # 56..119 bytes pad to exactly two 64-byte blocks.
        self.messages = [
            bytes(rng.getrandbits(8) for _ in range(rng.randint(56, 119)))
            for _ in range(self.threads)
        ]
        self.expected = [hashlib.md5(m).hexdigest() for m in self.messages]

    def build(self) -> None:
        from repro.apps.md5 import MD5Hasher

        self.hasher = MD5Hasher(threads=self.threads, round_stages=16)
        self.sim = self.hasher.circuit.sim
        self.meb_paths = {
            m.name for m in self.hasher.circuit.meb_components()
        }

    def drive(self) -> int:
        self.digests = self.hasher.hash_batch(self.messages)
        return self.sim.cycle

    def output_ok(self) -> bool:
        return self.digests == self.expected

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()


_CLASSES = {
    cls.name: cls for cls in (MtPipeline, MtChain, ProcessorMix,
                              Md5Pipelined, MtBursty)
}


def make_designs(seed: int) -> list:
    """Generate every design's inputs from *seed* (nothing built yet)."""
    return [
        _CLASSES[name](random.Random(f"{seed}|{name}")) for name in DESIGNS
    ]


def build_all(designs: list) -> dict[str, tuple[float, float]]:
    """Build and snapshot every design; name -> (build_s, snapshot_s)."""
    times = {}
    for d in designs:
        t0 = time.perf_counter()
        d.build()
        t1 = time.perf_counter()
        d.pristine = d.sim.snapshot()
        times[d.name] = (t1 - t0, time.perf_counter() - t1)
    return times


_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import kernel_long; "
    "kernel_long.build_all(kernel_long.make_designs({seed})); "
    "print(time.perf_counter() - t0)"
)


def _setup_probe(seed: int, perfbench_dir: str, src_dir: str) -> float:
    """Cold set-up time in a fresh interpreter: imports + every build."""
    done = subprocess.run(
        [sys.executable, "-c", _PROBE.format(seed=seed)],
        capture_output=True, text=True, timeout=60, check=True,
        env={**os.environ, "PYTHONPATH": f"{perfbench_dir}:{src_dir}"},
    )
    return float(done.stdout.strip().splitlines()[-1])


def _profile_split(report: dict, meb_paths: set[str]) -> dict[str, float]:
    phases = report["phases"]
    cycles = report["cycles"]
    total = max(1, cycles["total"])
    return {
        "settle_s": phases["settle"]["time_s"],
        "tick_s": phases["tick"]["time_s"],
        "fused_s": phases["fused"]["time_s"],
        "fusion_utilization": cycles["fusion_utilization"],
        "settle_iters_per_cycle": report["settle"]["iterations"] / total,
        "meb_s": sum(
            c["total_s"] for c in report["components"]
            if c["path"] in meb_paths
        ),
    }


def _measure(designs, seconds: float, traced: bool, result: Result,
             digests: dict) -> dict:
    """Rounds over the designs for *seconds*; returns raw samples."""
    per = {d.name: {"run": [], "restore": [], "request": [], "cycles": set(),
                    "prof": []} for d in designs}
    start = time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        for d in designs:
            samples = per[d.name]
            t0 = time.perf_counter()
            if traced and d.profile_after_restore_breaks:
                d.build()
            else:
                d.sim.restore(d.pristine)
                samples["restore"].append(time.perf_counter() - t0)
            t1 = time.perf_counter()
            if traced:
                with d.sim.profile() as prof:
                    cycles = d.drive()
            else:
                cycles = d.drive()
            t2 = time.perf_counter()
            ok = d.output_ok()
            digest = d.digest()
            ok = ok and digests.setdefault(d.name, digest) == digest
            result.check(ok, f"{d.name}: output mismatch")
            samples["run"].append(t2 - t1)
            samples["cycles"].add(cycles)
            samples["request"].append(t2 - t0)
            if traced:
                samples["prof"].append(_profile_split(
                    prof.report(), d.meb_paths))
    return {"per": per, "wall": time.perf_counter() - start,
            "requests": sum(len(p["run"]) for p in per.values())}


def run(seed: int, seconds: float, trace: bool, paths: dict) -> Result:
    result = Result()
    setups = [_setup_probe(seed, paths["perfbench"], paths["src"])
              for _ in range(SETUP_PROBES)]
    designs = make_designs(seed)
    build_times = build_all(designs)

    digests: dict[str, str] = {}
    untraced = _measure(designs, seconds / 2 if trace else seconds, False,
                        result, digests)
    per = untraced["per"]
    # Per-design medians: a round costs what its five median runs cost,
    # so a burst of host interference moves no throughput figure.
    round_run_s = sum(median(per[d.name]["run"]) for d in designs)
    round_req_s = sum(median(per[d.name]["request"]) for d in designs)
    round_cycles = sum(max(per[d.name]["cycles"]) for d in designs)
    lat = [r for d in designs for r in per[d.name]["request"]]
    result.end_to_end = {
        "setup_s": median(setups),
        "sim_cycles_per_s": round_cycles / round_run_s,
        "scenarios_per_s": len(designs) / round_run_s,
        "req_per_s": len(designs) / round_req_s,
        "req_p50_ms": quantile(lat, 0.5) * 1e3,
        "req_p95_ms": quantile(lat, 0.95) * 1e3,
        "peak_rss_mb": self_peak_rss_mb(),
    }
    result.samples = {"requests": len(lat), "setup": len(setups),
                      "rounds": len(lat) // len(designs)}
    traced = _measure(designs, seconds / 2, True, result, digests) if (
        trace) else None
    passes = [untraced] + ([traced] if traced else [])
    cycles_seen = {
        d.name: sorted(set().union(*(p["per"][d.name]["cycles"]
                                     for p in passes)))
        for d in designs
    }
    for name, seen in cycles_seen.items():
        result.check(len(seen) == 1,
                     f"{name}: cycle count differs between requests {seen}")
    result.exact = {"cycles": cycles_seen, "output_digests": digests}
    if not trace:
        return result

    layers = result.layers
    attributed = 0.0
    for d in designs:
        name = d.name
        build_s, snapshot_s = build_times[name]
        runs = per[name]["run"]
        cycles = cycles_seen[name][0]
        prof = traced["per"][name]["prof"]
        split = {k: median([p[k] for p in prof]) for k in prof[0]}
        layers[f"kernel.build_s.{name}"] = build_s
        layers[f"kernel.run_s.{name}"] = median(runs)
        layers[f"kernel.us_per_cycle.{name}"] = median(runs) / cycles * 1e6
        layers[f"kernel.settle_s.{name}"] = split["settle_s"]
        layers[f"kernel.tick_s.{name}"] = split["tick_s"]
        layers[f"kernel.fused_s.{name}"] = split["fused_s"]
        layers[f"kernel.fusion_utilization.{name}"] = split[
            "fusion_utilization"]
        layers[f"kernel.settle_iters_per_cycle.{name}"] = split[
            "settle_iters_per_cycle"]
        layers[f"core.meb_s.{name}"] = split["meb_s"]
        layers[f"kernel.snapshot_s.{name}"] = snapshot_s
        layers[f"kernel.restore_s.{name}"] = median(per[name]["restore"])
        layers[f"kernel.cycles.{name}"] = cycles
        attributed += sum(traced["per"][name]["restore"]) + sum(
            p["settle_s"] + p["tick_s"] + p["fused_s"] for p in prof)
    layers["obs.trace_overhead"] = (
        traced["wall"] / traced["requests"]
    ) / (untraced["wall"] / untraced["requests"])
    layers["obs.attributed_frac"] = attributed / traced["wall"]
    result.samples["traced_requests"] = traced["requests"]
    return result
