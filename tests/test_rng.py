"""Tests for the seeded streams: named substreams and the uniforms of a run of
child seeds."""

import numpy as np
import pytest

from qtelegraph import rng as rng_module
from qtelegraph.rng import UniformLanes, child_seeds, stream

EDGE_SEEDS = [0, 1, 2, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**62, 2**63 - 1, 2**63, 2**64 - 1]


def read_rows(seeds, m, stepped):
    """Every seed's row of m uniforms, in reads that step the lanes (all at
    once, at least 16*m rows) or that reset the generator per lane (reads of
    fewer than 16*m rows)."""
    lanes = UniformLanes(seeds, m)
    if stepped:
        assert len(seeds) >= 16 * m
        return lanes.rows(0, len(seeds))
    per_read = 16 * m - 1
    reads = [lanes.rows(i, min(i + per_read, len(seeds))) for i in range(0, len(seeds), per_read)]
    return np.concatenate(reads)


def assert_rows_are_default_rng_draws(seeds, rows, m):
    assert rows.shape == (len(seeds), m)
    for seed, row in zip(np.asarray(seeds).tolist(), rows):
        assert np.array_equal(row, np.random.default_rng(seed).random(m))


class TestUniformLanes:
    @pytest.mark.parametrize("stepped", [True, False], ids=["stepped", "reset"])
    def test_edge_seeds_draw_what_default_rng_draws(self, stepped):
        seeds = np.array(EDGE_SEEDS * 5, dtype=np.uint64)
        assert_rows_are_default_rng_draws(seeds, read_rows(seeds, 3, stepped), 3)

    @pytest.mark.parametrize("stepped", [True, False], ids=["stepped", "reset"])
    def test_child_seeds_draw_what_default_rng_draws(self, stepped):
        seeds = child_seeds(stream(42, "parity"), 10_000)
        assert_rows_are_default_rng_draws(seeds, read_rows(seeds, 2, stepped), 2)

    @pytest.mark.parametrize("m", [1, 7, 27, 64])
    def test_lanes_draw_what_default_rng_draws(self, m):
        # 16*m seeds, the fewest that one read steps, led by the 64-bit edges.
        edges = np.array([0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1], dtype=np.uint64)
        children = child_seeds(stream(44, "lanes"), 16 * m - edges.size).astype(np.uint64)
        seeds = np.concatenate([edges, children])
        for stepped in (True, False):
            assert_rows_are_default_rng_draws(seeds, read_rows(seeds, m, stepped), m)

    @pytest.mark.parametrize(
        "m, count", [(27, 431), (27, 432), (100, 1599), (100, 1600), (1, 15), (1, 16), (64, 1024)]
    )
    def test_a_read_steps_lanes_exactly_when_it_holds_16_rows_per_draw(self, monkeypatch, m, count):
        seeds = child_seeds(stream(44, "lanes", m), count)
        lanes = UniformLanes(seeds, m)
        steps = []
        original = rng_module._step
        monkeypatch.setattr(rng_module, "_step", lambda *args: steps.append(1) or original(*args))
        rows = lanes.rows(0, count)
        assert len(steps) == (m if count >= 16 * m else 0)
        assert_rows_are_default_rng_draws(seeds, rows, m)

    def test_rows_read_in_blocks_equal_rows_read_at_once(self):
        # At m = 3 a read of 48 rows or more steps lanes: the blocks reset,
        # step, then reset again, and the single read steps.
        seeds = child_seeds(stream(45, "lanes"), 100)
        lanes = UniformLanes(seeds, 3)
        blocks = np.concatenate([lanes.rows(0, 1), lanes.rows(1, 63), lanes.rows(63, 100)])
        assert np.array_equal(blocks, UniformLanes(seeds, 3).rows(0, 100))

    def test_back_to_back_stepped_reads_equal_one_read(self):
        # At m = 27 each read steps lanes through its own buffers; a buffer
        # shared between reads, or stepped states written back, would change
        # the later reads' rows.
        seeds = child_seeds(stream(46, "lanes"), 1632)
        lanes = UniformLanes(seeds, 27)
        blocks = np.concatenate([lanes.rows(0, 500), lanes.rows(500, 932), lanes.rows(932, 1632)])
        assert np.array_equal(blocks, UniformLanes(seeds, 27).rows(0, 1632))
        assert_rows_are_default_rng_draws(seeds, blocks, 27)

    @pytest.mark.parametrize(
        "size, ranges",
        [(10, [(0, 20)]), (10, [(0, -1)]), (100, [(0, 60), (60, 120)])],
        ids=["past-the-end", "negative", "second-read-past-the-end"],
    )
    def test_rows_refuses_a_range_it_cannot_serve(self, size, ranges):
        seeds = child_seeds(stream(47, "lanes"), size)
        lanes = UniformLanes(seeds, 2)
        *served, (start, refused) = ranges
        for bounds in served:
            lanes.rows(*bounds)
        with pytest.raises(ValueError, match=rf"^stop must be .*\(got {refused}\)"):
            lanes.rows(start, refused)
        # The refusal read nothing: the lanes left are still served in order.
        assert np.array_equal(lanes.rows(start, size), UniformLanes(seeds, 2).rows(0, size)[start:])

    def test_a_refused_range_leaves_every_later_read_intact(self):
        lanes = UniformLanes(np.arange(5), 2)
        refused = [
            ((2.5, 3), "start"),
            ((0, 2.5), "stop"),
            ((True, 2), "start"),
            ((0, True), "stop"),
            ((-1, 2), "start"),
            ((3, 2), "stop"),
            ((0, 6), "stop"),
        ]
        for (start, stop), named in refused:
            with pytest.raises(ValueError, match=rf"^{named} must"):
                lanes.rows(start, stop)
        fresh = UniformLanes(np.arange(5), 2)
        assert np.array_equal(lanes.rows(0, 2), fresh.rows(0, 2))
        assert np.array_equal(lanes.rows(2, 5), fresh.rows(2, 5))
        # Reads keep no cursor: a range read again gives the same rows.
        assert np.array_equal(lanes.rows(0, 2), fresh.rows(0, 2))

    def test_guard_raises_when_seeding_disagrees_with_numpy(self, monkeypatch):
        monkeypatch.setattr(rng_module, "_PCG64_MULT", rng_module._PCG64_MULT ^ 2)
        with pytest.raises(RuntimeError, match="seeding disagrees with numpy"):
            UniformLanes(np.array([5, 6]), 4)

    def test_guard_raises_when_lanes_disagree_with_numpy(self, monkeypatch):
        # Seeded correctly, then stepped with a wrong multiplier.
        lanes = UniformLanes(np.arange(40), 2)
        monkeypatch.setattr(rng_module, "_PCG64_MULT", rng_module._PCG64_MULT ^ 2)
        with pytest.raises(RuntimeError, match="lanes disagree with numpy"):
            lanes.rows(0, 40)

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
        assert np.array_equal(UniformLanes(seeds, np.int64(2)).rows(0, 3), UniformLanes(seeds, 2).rows(0, 3))
        assert np.array_equal(UniformLanes(seeds, 2).rows(np.int64(1), np.int64(3)), UniformLanes(seeds, 2).rows(1, 3))

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
