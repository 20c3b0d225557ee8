"""Tests for the seeded streams: named substreams and the uniforms of a run of
child seeds."""

import numpy as np
import pytest

from qtelegraph import rng as rng_module
from qtelegraph.rng import UniformLanes, child_seeds, stream

EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 1, 2**63, 2**64 - 1]


def taken_rows(seeds, m, stepped):
    """Every seed's row of m uniforms, in takes that step the lanes (all at
    once, at least 16*m rows) or that reset the generator per lane (takes of
    fewer than 16*m rows)."""
    lanes = UniformLanes(seeds, m)
    if stepped:
        assert len(seeds) >= 16 * m
        return lanes.take(len(seeds))
    per_take = 16 * m - 1
    takes = [lanes.take(min(per_take, len(seeds) - i)) for i in range(0, len(seeds), per_take)]
    return np.concatenate(takes)


def assert_rows_are_default_rng_draws(seeds, rows, m):
    assert rows.shape == (len(seeds), m)
    for seed, row in zip(np.asarray(seeds).tolist(), rows):
        assert np.array_equal(row, np.random.default_rng(seed).random(m))


class TestUniformLanes:
    @pytest.mark.parametrize("stepped", [True, False], ids=["stepped", "reset"])
    def test_edge_seeds_draw_what_default_rng_draws(self, stepped):
        seeds = np.array(EDGE_SEEDS * 5, dtype=np.uint64)
        assert_rows_are_default_rng_draws(seeds, taken_rows(seeds, 3, stepped), 3)

    @pytest.mark.parametrize("stepped", [True, False], ids=["stepped", "reset"])
    def test_child_seeds_draw_what_default_rng_draws(self, stepped):
        seeds = child_seeds(stream(42, "parity"), 10_000)
        assert_rows_are_default_rng_draws(seeds, taken_rows(seeds, 2, stepped), 2)

    @pytest.mark.parametrize("m", [1, 7, 27, 64])
    def test_lanes_draw_what_default_rng_draws(self, m):
        # 16*m seeds, the fewest that one take steps, led by the 64-bit edges.
        edges = np.array([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
        children = child_seeds(stream(44, "lanes"), 16 * m - edges.size).astype(np.uint64)
        seeds = np.concatenate([edges, children])
        for stepped in (True, False):
            assert_rows_are_default_rng_draws(seeds, taken_rows(seeds, m, stepped), m)

    @pytest.mark.parametrize(
        "m, count", [(27, 431), (27, 432), (100, 1599), (100, 1600), (1, 15), (1, 16), (64, 1024)]
    )
    def test_take_steps_lanes_exactly_when_it_holds_16_rows_per_draw(self, monkeypatch, m, count):
        seeds = child_seeds(stream(44, "lanes", m), count)
        lanes = UniformLanes(seeds, m)
        steps = []
        original = rng_module._step
        monkeypatch.setattr(rng_module, "_step", lambda *args: steps.append(1) or original(*args))
        rows = lanes.take(count)
        assert len(steps) == (m if count >= 16 * m else 0)
        assert_rows_are_default_rng_draws(seeds, rows, m)

    def test_rows_taken_in_blocks_equal_rows_taken_at_once(self):
        # At m = 3 a take of 48 rows or more steps lanes: the blocks reset,
        # step, then reset again, and the single take steps.
        seeds = child_seeds(stream(45, "lanes"), 100)
        lanes = UniformLanes(seeds, 3)
        blocks = np.concatenate([lanes.take(1), lanes.take(62), lanes.take(37)])
        assert np.array_equal(blocks, UniformLanes(seeds, 3).take(100))

    def test_back_to_back_stepped_takes_equal_one_take(self):
        # At m = 27 each take steps lanes through its own buffers; a buffer
        # shared between takes, or stepped states written back, would change
        # the later takes' rows.
        seeds = child_seeds(stream(46, "lanes"), 1632)
        lanes = UniformLanes(seeds, 27)
        blocks = np.concatenate([lanes.take(500), lanes.take(432), lanes.take(700)])
        assert np.array_equal(blocks, UniformLanes(seeds, 27).take(1632))
        assert_rows_are_default_rng_draws(seeds, blocks, 27)

    @pytest.mark.parametrize(
        "size, counts",
        [(10, [20]), (10, [-1]), (100, [60, 60])],
        ids=["past-the-end", "negative", "second-take-past-the-end"],
    )
    def test_take_refuses_a_count_it_cannot_serve(self, size, counts):
        seeds = child_seeds(stream(47, "lanes"), size)
        lanes = UniformLanes(seeds, 2)
        *served, refused = counts
        for count in served:
            lanes.take(count)
        left = size - sum(served)
        message = rf"cannot take {refused} rows of uniforms: {left} lanes left"
        with pytest.raises(ValueError, match=message):
            lanes.take(refused)
        # The refusal took nothing: the lanes left are still served in order.
        assert np.array_equal(lanes.take(left), UniformLanes(seeds, 2).take(size)[size - left :])

    def test_guard_raises_when_seeding_disagrees_with_numpy(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_PCG64_MULT", rng_module._PCG64_MULT ^ 2)
        with pytest.raises(RuntimeError, match="seeding disagrees with numpy"):
            UniformLanes(np.array([5, 6]), 4)

    def test_guard_raises_when_lanes_disagree_with_numpy(self, monkeypatch):
        # Seeded correctly, then stepped with a wrong multiplier.
        lanes = UniformLanes(np.arange(40), 2)
        monkeypatch.setattr(rng_module, "_PCG64_MULT", rng_module._PCG64_MULT ^ 2)
        with pytest.raises(RuntimeError, match="lanes disagree with numpy"):
            lanes.take(40)

    @pytest.mark.parametrize("seeds", [np.array([-1]), np.array([0.5]), np.array(["1"])])
    def test_rejects_seeds_that_are_not_non_negative_integers(self, seeds):
        with pytest.raises(ValueError, match="non-negative integers"):
            UniformLanes(seeds, 3)

    @pytest.mark.parametrize("m", [-1, 0, 2.5, True])
    def test_rejects_an_m_that_is_not_an_integer_of_at_least_1(self, m):
        with pytest.raises(ValueError, match=r"^m must be an integer >= 1"):
            UniformLanes(np.arange(3), m)

    @pytest.mark.parametrize("count", [-1, 2.5, False])
    def test_child_seeds_rejects_a_count_that_is_not_an_integer_of_at_least_0(self, count):
        with pytest.raises(ValueError, match=r"^count must be an integer >= 0"):
            child_seeds(stream(48, "count"), count)

    def test_numpy_integer_sizes_are_accepted(self):
        seeds = child_seeds(stream(48, "count"), np.int64(3))
        assert np.array_equal(seeds, child_seeds(stream(48, "count"), 3))
        assert np.array_equal(UniformLanes(seeds, np.int64(2)).take(3), UniformLanes(seeds, 2).take(3))

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
