"""The multithreaded elastic MD5 circuit (paper §V-A).

Architecture — a four-trip elastic loop around the unrolled 16-step round
datapath, shared by all threads:

::

    new blocks ──► M-Merge ──► MEB(in) ──► round datapath ──► MEB(out)
                      ▲                                          │
                      │                                       Barrier
                      │                                          │
                      └────────── recirculate ◄── M-Branch ◄─────┘
                                                      │
                                                      └──► digests out

Each thread's block makes four passes (one per MD5 round); the barrier
after the output buffer blocks the flow until every thread has finished
the current round, and its release advances the global round counter —
"when all threads have been processed and reached the barrier, the data
flow is released, allowing the round counter to be incremented".  The
round datapath asserts that every token it processes agrees with the
global counter, so a barrier bug fails loudly.

:class:`MD5Hasher` is the software driver: it splits messages into padded
blocks, runs one *wave* (one block per thread, shorter threads padded
with dummy blocks so the barrier never starves — see DESIGN.md), applies
the Davies–Meyer accumulation between blocks, and returns standard hex
digests.
"""

from __future__ import annotations

from typing import Sequence

from repro.apps.md5 import reference as ref
from repro.apps.md5.datapath import (
    MD5Token,
    MessageStore,
    round_datapath_luts,
)
from repro.core import (
    Barrier,
    FullMEB,
    GrantPolicy,
    MBranch,
    MMerge,
    MTChannel,
    MTContextFunction,
    MTMonitor,
    MTSink,
    MTSource,
    ReducedMEB,
)
from repro.kernel import Component, Simulator
from repro.kernel.errors import SimulationError

MEB_KINDS = {"full": FullMEB, "reduced": ReducedMEB}


class MD5Circuit:
    """The elastic loop: merge, MEBs, round logic, barrier, branch.

    ``round_stages`` splits the 16-step round datapath into that many
    pipeline stages separated by MEBs (the paper's remark that the steps
    "could have been pipelined with minimum changes due to elasticity");
    1 (default) is the paper's single-cycle unrolled round.
    """

    def __init__(
        self,
        threads: int = 8,
        meb: str = "reduced",
        policy: GrantPolicy = GrantPolicy.MASKED_FALLBACK,
        round_stages: int = 1,
        engine: str | None = None,
    ):
        if meb not in MEB_KINDS:
            raise ValueError(f"meb must be one of {sorted(MEB_KINDS)}")
        from repro.apps.md5.reference import STEPS_PER_ROUND

        if round_stages < 1 or STEPS_PER_ROUND % round_stages != 0:
            raise ValueError(
                f"round_stages must divide {STEPS_PER_ROUND}, got "
                f"{round_stages}"
            )
        self.threads = threads
        self.meb_kind = meb
        self.round_stages = round_stages
        self.steps_per_stage = STEPS_PER_ROUND // round_stages
        width = MD5Token.WIDTH
        self.store = MessageStore("msg_store", threads)
        self._round_releases = 0
        self._stage_caches: list[list] = []

        self.c_new = MTChannel("c_new", threads, width)
        self.c_loop = MTChannel("c_loop", threads, width)
        self.c_bar = MTChannel("c_bar", threads, width)
        self.c_rec = MTChannel("c_rec", threads, width)
        self.c_out = MTChannel("c_out", threads, width)

        self.source = MTSource(
            "inject", self.c_new, items=[[] for _ in range(threads)],
            policy=policy,
        )
        self.merge = MMerge("merge", [self.c_new, self.c_rec], self.c_loop)
        meb_cls = MEB_KINDS[meb]

        # meb_in -> stage0 -> meb -> stage1 -> ... -> stageN-1 -> meb_out
        self.mebs: list = []
        self.stages: list[MTContextFunction] = []
        inner_channels: list[MTChannel] = []
        stage_luts = round_datapath_luts() // round_stages
        upstream = self.c_loop
        for k in range(round_stages):
            c_in = MTChannel(f"c_s{k}_in", threads, width)
            inner_channels.append(c_in)
            meb_k = meb_cls(f"meb_{k}", upstream, c_in, policy=policy)
            self.mebs.append(meb_k)
            c_out = MTChannel(f"c_s{k}_out", threads, width)
            inner_channels.append(c_out)
            # pure=True: the stage function reads the message store and
            # the global round counter, but both are explicitly
            # invalidated below whenever they change (_on_release,
            # run_wave), so the settle engine may skip idle stages.
            stage = MTContextFunction(
                f"round_stage{k}", c_in, c_out,
                fn=self._make_stage_fn(k), area_luts=stage_luts,
                pure=True,
            )
            self.stages.append(stage)
            upstream = c_out
        self.meb_out = meb_cls("meb_out", upstream, self.c_bar,
                               policy=policy)
        self.mebs.append(self.meb_out)
        self.meb_in = self.mebs[0]
        self._inner_channels = inner_channels

        self.barrier = Barrier("round_barrier", self.c_bar, self.c_out,
                               on_release=self._on_release)
        self.branch = MBranch(
            "done_branch", self.c_out, [self.c_rec, self.c_out_final()],
            selector=lambda tok: 1 if tok.done else 0,
        )
        self.sink = MTSink("digest_out", self._c_final)
        self.out_monitor = MTMonitor("out_mon", self._c_final)
        self.loop_monitor = MTMonitor("loop_mon", self.c_loop)

        self.sim = Simulator(max_settle_iterations=128, engine=engine)
        for comp in (
            self.c_new, self.c_loop, *inner_channels, self.c_bar,
            self.c_rec, self._c_final, self.c_out, self.store, self.source,
            self.merge, *self.mebs, *self.stages,
            self.barrier, self.branch, self.sink, self.out_monitor,
            self.loop_monitor,
        ):
            self.sim.add(comp)
        # The global round counter lives on the circuit, outside the
        # component tree, but is simulated state (every stage function
        # reads it): register it with the snapshot layer so
        # snapshot/restore/fork rewind it together with the barrier.
        # Restoring it is exactly a round-counter change, so the
        # release handler doubles as the load hook.
        self.sim.add_snapshot_hook(
            lambda: self._round_releases, self._on_release
        )
        self.sim.reset()

    def _make_stage_fn(self, stage_index: int):
        expected_step = stage_index * self.steps_per_stage
        # One-entry memo keyed on (token identity, thread): a stalled
        # token is re-presented unchanged across settle re-evaluations,
        # so the unrolled steps only run once per actual pass.  Sound
        # under the same contract as pure=True — the caches are cleared
        # at every point the closed-over context (round counter, message
        # store) changes, alongside the stage invalidate() calls.
        cache: list = [None, None, None]
        self._stage_caches.append(cache)

        def stage_fn(token: MD5Token, thread: int) -> MD5Token:
            if token is cache[0] and thread == cache[1]:
                return cache[2]
            if token.step_idx != expected_step:
                raise SimulationError(
                    f"stage {stage_index} received token at step "
                    f"{token.step_idx}, expected {expected_step}"
                )
            from repro.apps.md5.datapath import partial_round_logic

            result = partial_round_logic(
                token, thread, self.store, self.steps_per_stage,
                expected_round=self._round_releases,
            )
            cache[0], cache[1], cache[2] = token, thread, result
            return result

        return stage_fn

    def _clear_stage_caches(self) -> None:
        for cache in self._stage_caches:
            cache[0] = cache[1] = cache[2] = None

    def c_out_final(self) -> MTChannel:
        if not hasattr(self, "_c_final"):
            self._c_final = MTChannel("c_final", self.threads,
                                      MD5Token.WIDTH)
        return self._c_final

    # ------------------------------------------------------------------
    # global round counter (driven by the barrier)
    # ------------------------------------------------------------------
    def _on_release(self, releases: int) -> None:
        self._round_releases = releases
        # The round counter is context for every stage function: force
        # the stages through the next settle even though their channel
        # inputs did not change.
        self._clear_stage_caches()
        for stage in self.stages:
            stage.invalidate()

    @property
    def round_counter(self) -> int:
        """Completed round passes; the active round is ``counter % 4``."""
        return self._round_releases

    # ------------------------------------------------------------------
    # area inventory for the Table I benchmark
    # ------------------------------------------------------------------
    def area_components(self) -> list[Component]:
        """Everything counted in LEs (memories excluded, as in Table I)."""
        return [
            self.merge, *self.mebs, *self.stages,
            self.barrier, self.branch, self.store,
        ]

    def meb_components(self) -> list[Component]:
        return list(self.mebs)

    # ------------------------------------------------------------------
    # wave execution
    # ------------------------------------------------------------------
    def run_wave(
        self,
        h_states: Sequence[tuple[int, int, int, int]],
        blocks: Sequence[tuple[int, ...]],
        wave_ref: int,
        max_cycles: int = 2000,
    ) -> list[tuple[int, int, int, int]]:
        """Process one block per thread through four rounds.

        Returns the raw (pre-accumulation) final working state per
        thread; the caller applies the Davies–Meyer add against its own
        ``h_states``.
        """
        if len(h_states) != self.threads or len(blocks) != self.threads:
            raise ValueError("need one h-state and one block per thread")
        if self.round_counter % ref.N_ROUNDS != 0:
            raise SimulationError(
                "wave injected mid-round: previous wave incomplete"
            )
        base_count = self.sink.count
        for t in range(self.threads):
            self.store.write(t, wave_ref, blocks[t])
            self.source.push(
                t, MD5Token(tuple(h_states[t]), 0, wave_ref)
            )
        self._clear_stage_caches()
        for stage in self.stages:
            stage.invalidate()  # new message-store contents
        self.sim.run(
            until=lambda _s: self.sink.count == base_count + self.threads,
            max_cycles=max_cycles,
        )
        results: list[tuple[int, int, int, int] | None] = [None] * self.threads
        for _cycle, t, token in self.sink.received[base_count:]:
            results[t] = token.state
        if any(r is None for r in results):  # pragma: no cover - guarded by run
            raise SimulationError("wave finished with missing results")
        return results  # type: ignore[return-value]


class MD5Hasher:
    """Software driver hashing arbitrary byte strings on the circuit."""

    #: Dummy block content for threads shorter than the longest message.
    _DUMMY_BLOCK = tuple([0] * 16)

    def __init__(self, threads: int = 8, meb: str = "reduced",
                 round_stages: int = 1, engine: str | None = None):
        self.circuit = MD5Circuit(threads=threads, meb=meb,
                                  round_stages=round_stages, engine=engine)
        self.threads = threads
        self._wave_ref = 0
        # The wave counter tags message-store blocks and tokens, so it is
        # simulated state: snapshot/restore/fork rewind it with the
        # circuit, which lets one built hasher serve many scenarios.
        self.sim.add_snapshot_hook(lambda: self._wave_ref, self._load_wave_ref)

    @property
    def sim(self):
        """The circuit's simulator (what the campaign design cache rewinds)."""
        return self.circuit.sim

    def _load_wave_ref(self, wave_ref: int) -> None:
        self._wave_ref = wave_ref

    def hash_batch(self, messages: Sequence[bytes]) -> list[str]:
        """Digest up to ``threads`` messages concurrently (one per thread).

        Shorter threads ride along on dummy blocks so the round barrier —
        which waits for *every* thread — never starves; their dummy
        results are discarded.
        """
        if len(messages) > self.threads:
            raise ValueError(
                f"batch of {len(messages)} exceeds {self.threads} threads"
            )
        per_thread_blocks = [
            ref.message_blocks(m) for m in messages
        ] + [[] for _ in range(self.threads - len(messages))]
        n_waves = max(len(b) for b in per_thread_blocks)
        h: list[tuple[int, int, int, int]] = [ref.IV] * self.threads
        for wave in range(n_waves):
            blocks = []
            live = []
            for t in range(self.threads):
                if wave < len(per_thread_blocks[t]):
                    blocks.append(per_thread_blocks[t][wave])
                    live.append(True)
                else:
                    blocks.append(self._DUMMY_BLOCK)
                    live.append(False)
            finals = self.circuit.run_wave(h, blocks, self._wave_ref)
            self._wave_ref += 1
            for t in range(self.threads):
                if live[t]:
                    h[t] = tuple(
                        (hv + sv) & ref.MASK32
                        for hv, sv in zip(h[t], finals[t])
                    )
        return [
            ref.digest_bytes(h[t]).hex() for t in range(len(messages))
        ]

    def hash_messages(self, messages: Sequence[bytes]) -> list[str]:
        """Digest any number of messages, batching by thread count."""
        out: list[str] = []
        for start in range(0, len(messages), self.threads):
            out.extend(self.hash_batch(messages[start : start + self.threads]))
        return out
