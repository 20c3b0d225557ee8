"""Tests for the seeded streams: named substreams and vectorised child seeding."""

import numpy as np
import pytest

from qtelegraph import rng as rng_module
from qtelegraph.rng import UniformLanes, child_seeds, default_rng_states, reseedable, stream

EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 1, 2**63, 2**64 - 1]


class TestDefaultRngStates:
    def test_edge_seeds_match_numpy(self):
        states = default_rng_states(np.array(EDGE_SEEDS, dtype=np.uint64))
        assert states == [np.random.PCG64(seed).state for seed in EDGE_SEEDS]

    def test_child_seeds_match_numpy(self):
        seeds = child_seeds(stream(42, "parity"), 10_000)
        states = default_rng_states(seeds)
        assert states == [np.random.PCG64(seed).state for seed in seeds.tolist()]

    @pytest.mark.parametrize("m", [1, 7, 28])
    def test_reset_generator_draws_what_default_rng_draws(self, m):
        seeds = np.concatenate(
            [np.array(EDGE_SEEDS[:9], dtype=np.int64), child_seeds(stream(43, "draws"), 500)]
        )
        generator, states = reseedable(seeds)
        for seed, state in zip(seeds.tolist(), states):
            fresh = np.random.default_rng(seed)
            generator.bit_generator.state = state
            assert np.array_equal(generator.random(m), fresh.random(m))
            assert np.array_equal(generator.integers(1, 3, size=m), fresh.integers(1, 3, size=m))

    def test_scalar_and_empty_input(self):
        assert default_rng_states(7) == [np.random.PCG64(7).state]
        assert default_rng_states(np.zeros(0, dtype=np.int64)) == []

    @pytest.mark.parametrize("seeds", [np.array([-1]), np.array([0.5]), np.array(["1"])])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seeds):
        with pytest.raises(ValueError, match="non-negative integers"):
            default_rng_states(seeds)


class TestReseedable:
    def test_generator_starts_at_the_first_seed(self):
        generator, states = reseedable(np.array([11, 12]))
        assert generator.bit_generator.state == states[0]

    def test_guard_raises_when_derivation_disagrees_with_numpy(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_PCG64_MULT", rng_module._PCG64_MULT ^ 2)
        with pytest.raises(RuntimeError, match="disagrees with numpy"):
            reseedable(np.array([5, 6]))

    def test_empty_seed_run_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            reseedable(np.zeros(0, dtype=np.int64))


class TestUniformLanes:
    LANE_SEEDS = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]

    @pytest.mark.parametrize("m", [1, 7, 27, 64])
    def test_lanes_draw_what_default_rng_draws(self, m):
        for seeds in (np.array(self.LANE_SEEDS, dtype=np.uint64), child_seeds(stream(44, "lanes"), 1000)):
            rows = UniformLanes(seeds, m).take(seeds.size)
            assert rows.shape == (seeds.size, m)
            for seed, row in zip(seeds.tolist(), rows):
                assert np.array_equal(row, np.random.default_rng(seed).random(m))

    def test_rows_taken_in_blocks_equal_rows_taken_at_once(self):
        seeds = child_seeds(stream(45, "lanes"), 100)
        lanes = UniformLanes(seeds, 9)
        blocks = np.concatenate([lanes.take(1), lanes.take(62), lanes.take(37)])
        assert np.array_equal(blocks, UniformLanes(seeds, 9).take(100))

    def test_generator_after_a_lane_continues_its_stream(self):
        # The idlers of kept hits are drawn after a symbol's screen draws.
        seeds = np.concatenate(
            [np.array(self.LANE_SEEDS, dtype=np.uint64), child_seeds(stream(46, "lanes"), 50).astype(np.uint64)]
        )
        lanes = UniformLanes(seeds, 27)
        lanes.take(seeds.size)
        for lane in (7, 0, len(seeds) - 1, 3):
            fresh = np.random.default_rng(int(seeds[lane]))
            fresh.random(27)
            idlers = lanes.generator_after(lane).integers(1, 3, size=27)
            assert np.array_equal(idlers, fresh.integers(1, 3, size=27))

    def test_guard_raises_when_lanes_disagree_with_numpy(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_PCG64_MULT", rng_module._PCG64_MULT ^ 2)
        with pytest.raises(RuntimeError, match="disagree with numpy"):
            UniformLanes(np.array([5, 6]), 4).take(2)

    def test_empty_seed_run_rejected(self):
        with pytest.raises(ValueError, match="at least one seed"):
            UniformLanes(np.zeros(0, dtype=np.int64), 3)


class TestStream:
    def test_largest_integers_accepted(self):
        assert stream(2**64 - 1, "a").random() != stream(0, "a").random()
        assert stream(0, "a", 2**64 - 1).random() != stream(0, "a", 0).random()

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_integers_outside_64_bits_rejected(self, value):
        # Masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 would alias 0.
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
            stream(value, "a")
        with pytest.raises(ValueError, match=r"path integers must be in \[0, 2\*\*64\)"):
            stream(0, "a", value)
