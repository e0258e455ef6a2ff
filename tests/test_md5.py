"""Tests for the MD5 design example (paper §V-A).

The reference is checked against hashlib; the elastic circuit is checked
against the reference (and therefore transitively against hashlib), with
both MEB kinds, several thread counts, multi-block messages, and the
barrier/round-counter synchronization invariants.
"""

import hashlib
import random as _random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.md5 import (
    IV,
    MD5Circuit,
    MD5Hasher,
    MD5Token,
    MessageStore,
    md5_hex,
    md5_round,
    message_blocks,
    pad_message,
    process_block,
    rotl32,
)
from repro.apps.md5 import reference as ref
from repro.apps.md5.datapath import round_logic
from repro.kernel import SimulationError


class TestReferenceMD5:
    @pytest.mark.parametrize(
        "message",
        [
            b"",
            b"a",
            b"abc",
            b"message digest",
            b"abcdefghijklmnopqrstuvwxyz",
            b"The quick brown fox jumps over the lazy dog",
            bytes(range(256)),
            b"x" * 55,   # padding boundary: fits with length
            b"x" * 56,   # forces an extra block
            b"x" * 64,   # exactly one block of data
            b"x" * 1000,
        ],
    )
    def test_matches_hashlib(self, message):
        assert md5_hex(message) == hashlib.md5(message).hexdigest()

    def test_rfc1321_vectors(self):
        # The classic RFC 1321 appendix values.
        assert md5_hex(b"") == "d41d8cd98f00b204e9800998ecf8427e"
        assert md5_hex(b"abc") == "900150983cd24fb0d6963f7d28e17f72"

    def test_padding_length_multiple_of_64(self):
        for n in range(0, 130):
            assert len(pad_message(b"y" * n)) % 64 == 0

    def test_block_count(self):
        assert len(message_blocks(b"")) == 1
        assert len(message_blocks(b"x" * 56)) == 2
        assert len(message_blocks(b"x" * 120)) == 3

    def test_rotl32(self):
        assert rotl32(1, 1) == 2
        assert rotl32(0x80000000, 1) == 1
        assert rotl32(0xDEADBEEF, 32 - 4) == rotl32(0xDEADBEEF, -4 % 32)

    def test_process_block_composes_rounds(self):
        block = message_blocks(b"abc")[0]
        state = IV
        for r in range(4):
            state = md5_round(state, block, r)
        expected = tuple((a + b) & 0xFFFFFFFF for a, b in zip(IV, state))
        assert process_block(IV, block) == expected


@settings(max_examples=30, deadline=None)
@given(data=st.binary(min_size=0, max_size=200))
def test_reference_matches_hashlib_property(data):
    assert md5_hex(data) == hashlib.md5(data).hexdigest()


class TestMessageStore:
    def test_write_read_roundtrip(self):
        store = MessageStore("s", threads=2)
        block = tuple(range(16))
        store.write(1, 0, block)
        assert store.read(1, 0) == block

    def test_missing_block_raises(self):
        store = MessageStore("s", threads=2)
        with pytest.raises(SimulationError):
            store.read(0, 3)

    def test_block_size_checked(self):
        store = MessageStore("s", threads=1)
        with pytest.raises(ValueError):
            store.write(0, 0, (1, 2, 3))

    def test_ram_bits_excluded_from_le(self):
        store = MessageStore("s", threads=1)
        store.write(0, 0, tuple(range(16)))
        assert store.area_items() == []
        assert store.ram_bits == 512


class TestRoundLogic:
    def test_round_desync_detected(self):
        store = MessageStore("s", threads=1)
        store.write(0, 0, tuple(range(16)))
        token = MD5Token(IV, round_idx=1, block_ref=0)
        with pytest.raises(SimulationError) as exc:
            round_logic(token, 0, store, expected_round=0)
        assert "desync" in str(exc.value)

    def test_finished_token_rejected(self):
        store = MessageStore("s", threads=1)
        token = MD5Token(IV, round_idx=4, block_ref=0)
        with pytest.raises(SimulationError):
            round_logic(token, 0, store)

    def test_round_increments(self):
        store = MessageStore("s", threads=1)
        block = message_blocks(b"abc")[0]
        store.write(0, 0, block)
        token = MD5Token(IV, 0, 0)
        out = round_logic(token, 0, store, expected_round=0)
        assert out.round_idx == 1
        assert out.state == md5_round(IV, block, 0)


@pytest.mark.parametrize("meb", ["full", "reduced"])
class TestMD5Circuit:
    def test_single_wave_digests(self, meb):
        hasher = MD5Hasher(threads=4, meb=meb)
        msgs = [b"", b"abc", b"hello world", b"elastic"]
        assert hasher.hash_batch(msgs) == [
            hashlib.md5(m).hexdigest() for m in msgs
        ]

    def test_multi_block_messages(self, meb):
        hasher = MD5Hasher(threads=2, meb=meb)
        msgs = [b"x" * 200, b"y" * 70]  # 4 blocks and 2 blocks
        assert hasher.hash_batch(msgs) == [
            hashlib.md5(m).hexdigest() for m in msgs
        ]

    def test_partial_batch_with_dummy_threads(self, meb):
        hasher = MD5Hasher(threads=8, meb=meb)
        msgs = [b"one", b"two", b"three"]
        assert hasher.hash_batch(msgs) == [
            hashlib.md5(m).hexdigest() for m in msgs
        ]

    def test_multiple_batches(self, meb):
        hasher = MD5Hasher(threads=2, meb=meb)
        msgs = [b"a", b"b", b"c", b"d", b"e"]
        assert hasher.hash_messages(msgs) == [
            hashlib.md5(m).hexdigest() for m in msgs
        ]

    def test_oversized_batch_rejected(self, meb):
        hasher = MD5Hasher(threads=2, meb=meb)
        with pytest.raises(ValueError):
            hasher.hash_batch([b"a", b"b", b"c"])


class TestBarrierSynchronization:
    def test_barrier_releases_once_per_round(self):
        hasher = MD5Hasher(threads=4)
        hasher.hash_batch([b"r1", b"r2", b"r3", b"r4"])
        # One block per thread => exactly 4 round releases.
        assert hasher.circuit.barrier.releases == 4

    def test_round_counter_multiple_of_4_between_waves(self):
        hasher = MD5Hasher(threads=2)
        hasher.hash_batch([b"x" * 100, b"y"])  # 2 waves
        assert hasher.circuit.round_counter % 4 == 0
        assert hasher.circuit.barrier.releases == 8

    def test_loop_channel_sees_four_passes_per_token(self):
        hasher = MD5Hasher(threads=2)
        hasher.hash_batch([b"p", b"q"])
        loop_mon = hasher.circuit.loop_monitor
        # Each thread's token crosses the loop entry 4 times.
        assert loop_mon.transfer_count(0) == 4
        assert loop_mon.transfer_count(1) == 4


class TestCircuitConstruction:
    def test_bad_meb_kind(self):
        with pytest.raises(ValueError):
            MD5Circuit(meb="huge")

    def test_wave_shape_checked(self):
        circuit = MD5Circuit(threads=2)
        with pytest.raises(ValueError):
            circuit.run_wave([IV], [tuple([0] * 16)], 0)

    def test_area_components_exclude_store_ram(self):
        circuit = MD5Circuit(threads=2)
        comps = circuit.area_components()
        assert circuit.store in comps
        assert circuit.store.area_items() == []
        assert len(circuit.meb_components()) == 2


@settings(max_examples=10, deadline=None)
@given(
    msgs=st.lists(st.binary(min_size=0, max_size=80), min_size=1, max_size=3)
)
def test_circuit_matches_hashlib_property(msgs):
    hasher = MD5Hasher(threads=len(msgs))
    assert hasher.hash_batch(msgs) == [
        hashlib.md5(m).hexdigest() for m in msgs
    ]


class TestPipelinedRound:
    """Paper §V-A: the 16 steps 'could have been pipelined with minimum
    changes due to elasticity' — the round_stages variant is that change."""

    @pytest.mark.parametrize("stages", [2, 4, 8, 16])
    def test_pipelined_digests_correct(self, stages):
        hasher = MD5Hasher(threads=4, meb="reduced", round_stages=stages)
        msgs = [b"abc", b"hello", b"x" * 100, b""]
        assert hasher.hash_batch(msgs) == [
            hashlib.md5(m).hexdigest() for m in msgs
        ]

    def test_stage_count_must_divide_16(self):
        with pytest.raises(ValueError):
            MD5Circuit(threads=2, round_stages=3)

    def test_meb_count_grows_with_stages(self):
        assert len(MD5Circuit(threads=2, round_stages=1).meb_components()) == 2
        assert len(MD5Circuit(threads=2, round_stages=4).meb_components()) == 5

    def test_barrier_still_synchronizes_rounds(self):
        hasher = MD5Hasher(threads=2, round_stages=4)
        hasher.hash_batch([b"p", b"q"])
        assert hasher.circuit.barrier.releases == 4

    def test_partial_round_logic_step_alignment(self):
        from repro.apps.md5.datapath import partial_round_logic

        store = MessageStore("s", threads=1)
        store.write(0, 0, tuple(range(16)))
        token = MD5Token(IV, 0, 0, step_idx=3)
        with pytest.raises(SimulationError):
            partial_round_logic(token, 0, store, n_steps=4)

    def test_partial_rounds_compose_to_full_round(self):
        from repro.apps.md5.datapath import partial_round_logic

        store = MessageStore("s", threads=1)
        block = message_blocks(b"compose")[0]
        store.write(0, 0, block)
        token = MD5Token(IV, 0, 0)
        for _ in range(4):
            token = partial_round_logic(token, 0, store, n_steps=4)
        assert token.round_idx == 1
        assert token.step_idx == 0
        assert token.state == md5_round(IV, block, 0)


class TestCompiledRoundSteps:
    """The code-generated round datapath vs the step-by-step reference."""

    def test_all_round_windows_match_reference(self):
        from repro.apps.md5.datapath import compiled_round_steps

        rng = _random.Random(0xD5)
        for round_idx in range(ref.N_ROUNDS):
            state = tuple(rng.getrandbits(32) for _ in range(4))
            block = tuple(rng.getrandbits(32) for _ in range(16))
            # Full unrolled round.
            full = compiled_round_steps(round_idx, 0, ref.STEPS_PER_ROUND)
            expected = state
            for step in range(ref.STEPS_PER_ROUND):
                expected = ref.md5_step(expected, block, round_idx, step)
            assert full(state, block) == expected
            # Every pipelined slice width that divides the round.
            for n_steps in (1, 2, 4, 8):
                out = state
                for start in range(0, ref.STEPS_PER_ROUND, n_steps):
                    out = compiled_round_steps(round_idx, start, n_steps)(
                        out, block
                    )
                assert out == full(state, block)

    def test_round_logic_uses_compiled_path(self):
        store = MessageStore("s", threads=1)
        block = tuple(range(16))
        store.write(0, 0, block)
        token = MD5Token(ref.IV, 0, 0)
        out = round_logic(token, 0, store)
        assert out.state == ref.md5_round(ref.IV, block, 0)
        assert out.round_idx == 1


#: The paper sweep's MD5 block (examples/campaigns/paper_sweep.toml).
MD5_SWEEP = {
    "campaign": {"name": "md5-reuse", "seed": 2014},
    "scenarios": [{
        "family": "md5",
        "params": {"threads": 4},
        "grid": {"meb": ["full", "reduced"], "round_stages": [1, 4]},
        "stimulus": {"messages": 4, "size": 24},
    }],
}


def _start_partial_wave(hasher: MD5Hasher, cycles: int) -> None:
    """Inject one wave and run only part of it (the driver mid-flight)."""
    circuit = hasher.circuit
    for t in range(hasher.threads):
        circuit.store.write(t, hasher._wave_ref, tuple(range(16)))
        circuit.source.push(t, MD5Token(IV, 0, hasher._wave_ref))
    hasher._wave_ref += 1
    circuit.sim.run(cycles=cycles)


class TestReusableHasher:
    """One built hasher serves every scenario of its design point."""

    @pytest.mark.parametrize("engine", ["compiled", "naive"])
    def test_cached_restore_rows_equal_fresh_builds(self, engine):
        from repro.sweep.runner import execute_scenario
        from repro.sweep.spec import from_dict

        scenarios = from_dict(MD5_SWEEP).scenarios
        assert len(scenarios) == 4
        fresh = [execute_scenario(s, engine)["metrics"] for s in scenarios]
        assert all(m["digests_ok"] for m in fresh)
        cache: dict = {}
        for expected in ("build", "hit"):
            rows = [execute_scenario(s, engine, cache=cache)
                    for s in scenarios]
            assert [r["design_cache"] for r in rows] == [expected] * 4
            assert [r["metrics"] for r in rows] == fresh
        # Leave every cached design mid-wave, with the driver's wave
        # counter advanced: the restore rewinds both.
        for scenario in scenarios:
            hasher, _pristine = cache[(scenario.design_key(), engine)]
            cycle, wave_ref = hasher.sim.cycle, hasher._wave_ref
            _start_partial_wave(hasher, cycles=7)
            assert hasher.sim.cycle == cycle + 7
            assert hasher._wave_ref == wave_ref + 1 > 1
        rows = [execute_scenario(s, engine, cache=cache) for s in scenarios]
        assert [r["design_cache"] for r in rows] == ["hit"] * 4
        assert [r["metrics"] for r in rows] == fresh

    def test_wave_counter_rewinds_with_the_circuit(self):
        hasher = MD5Hasher(threads=2)
        snap = hasher.sim.snapshot()
        messages = [b"abc", b"x" * 70]
        first = hasher.hash_messages(messages)
        assert hasher._wave_ref == 2
        hasher.sim.restore(snap)
        assert hasher._wave_ref == 0 and hasher.sim.cycle == 0
        assert hasher.hash_messages(messages) == first
        assert first == [hashlib.md5(m).hexdigest() for m in messages]
