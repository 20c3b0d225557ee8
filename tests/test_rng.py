"""Tests for the seeded streams: named substreams."""

import hashlib

import numpy as np
import pytest

from qtelegraph.rng import stream


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

    @pytest.mark.parametrize(
        "seed, path",
        [(0, ()), (0, ("a",)), (7, ("transmit", "bits")), (3, ("a", 2**64 - 1)), (2**64 - 1, (5, "x"))],
        ids=["no-path", "one-word", "two-words", "largest-path-integer", "largest-seed"],
    )
    def test_same_seed_and_path_give_the_same_stream(self, seed, path):
        assert np.array_equal(stream(seed, *path).random(8), stream(seed, *path).random(8))

    @pytest.mark.parametrize(
        "first, second",
        [
            ((0, "a"), (1, "a")),
            ((0, "a"), (0, "b")),
            ((0, "a"), (0, "a", 0)),
            ((0, "a", "b"), (0, "b", "a")),
            ((0, 0), (0, "0")),
            ((0,), (0, 0)),
            ((0, "transmit"), (0, "transmit", "bits")),
            ((0, "transmit"), (0, "simulate")),
        ],
        ids=["seed", "word", "extended-path", "word-order", "int-or-str", "empty-path", "message-or-bits", "command"],
    )
    def test_distinct_seeds_or_paths_give_distinct_streams(self, first, second):
        # The last two are the CLI's: a message's draws share no stream with
        # its random bits, nor transmit's with simulate's.
        assert not np.any(stream(*first).random(8) == stream(*second).random(8))

    @pytest.mark.parametrize(
        "seed, path",
        [(0, ("transmit",)), (0, ("transmit", "bits")), (5, ("simulate",)), (2**64 - 1, (3, "x"))],
        ids=["transmit", "transmit-bits", "simulate", "integer-path-part"],
    )
    def test_a_stream_is_numpys_pcg64_seeded_by_its_words(self, seed, path):
        """Every pinned report rests on this derivation: a string part is the
        first 8 little-endian bytes of its UTF-8 SHA-256, an integer part is
        itself, and the words are the SeedSequence's spawn key."""
        words = [
            int.from_bytes(hashlib.sha256(p.encode()).digest()[:8], "little") if isinstance(p, str) else p
            for p in path
        ]
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=words)))
        got = stream(seed, *path)
        assert isinstance(got.bit_generator, np.random.PCG64)
        assert got.bit_generator.state == want.bit_generator.state

    @pytest.mark.parametrize(
        "value",
        [np.int8(5), np.int64(5), np.uint64(5), np.uint64(2**64 - 1)],
        ids=["int8", "int64", "uint64", "uint64-max"],
    )
    def test_numpy_integers_are_read_as_their_values(self, value):
        want = stream(int(value), "a", int(value)).random(4)
        assert np.array_equal(stream(value, "a", value).random(4), want)

    @pytest.mark.parametrize(
        "seed", [0.5, 1.0, np.float64(2.0), "1", True, None], ids=["0.5", "1.0", "numpy-float", "str", "bool", "None"]
    )
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        # Read through int(), 0.5 would alias seed 0 and "1" or True seed 1.
        with pytest.raises(TypeError, match=rf"^seed must be int, got {type(seed).__name__}$"):
            stream(seed, "a")

    @pytest.mark.parametrize("part", [1.0, b"a", None, True, ("a",)], ids=["float", "bytes", "None", "bool", "tuple"])
    def test_a_path_part_that_is_not_int_or_str_is_rejected(self, part):
        # A bool read as an integer would alias the path part 0 or 1.
        with pytest.raises(TypeError, match=rf"^stream path parts must be int or str, got {type(part).__name__}$"):
            stream(0, "a", part)

    @pytest.mark.parametrize(
        "m, blocks",
        [(1, [1, 1, 1]), (27, [2427, 73]), (1000, [65, 65, 20]), (3, [0, 5, 0, 5])],
        ids=["one-column", "full-block-and-tail", "three-blocks", "empty-blocks"],
    )
    def test_row_blocks_read_what_one_read_would(self, m, blocks):
        """A message reads its (symbols, M) uniforms block by block after N
        offsets; each double is one 64-bit output, so any split of the rows
        reads the rows one read would, and an empty block reads nothing."""
        split, whole = stream(9, "tx"), stream(9, "tx")
        split.random(5)
        whole.random(5)
        rows = np.concatenate([split.random((count, m)) for count in blocks])
        assert np.array_equal(rows, whole.random((sum(blocks), m)))
        assert split.bit_generator.state == whole.bit_generator.state
