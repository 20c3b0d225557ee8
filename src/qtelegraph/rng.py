"""Named, seed-derived random streams for reproducible simulations.

Every stochastic routine in this package consumes a ``numpy.random.Generator``.
Top-level entry points derive that generator from an explicit integer seed
plus a stream path (e.g. the subcommand name, a telegraph index, a trial
index), so serial and parallel executions of the same experiment consume
identical random numbers stream by stream.

Indexed sub-simulations (one per symbol) each draw from
``np.random.default_rng(child_seed)``. Building that generator hashes the
seed through a ``SeedSequence`` (tens of microseconds), so ``UniformLanes``
derives the PCG64 starting states of a whole run of child seeds in one
vectorised pass, held as two uint64 limbs (hi, lo) per 128-bit word, and
serves their uniforms from those states. A large take steps every seed's lane
at once: PCG64's output is a pure function of its state (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation", HMC-CS-2014-0905), so each draw is one 128-bit LCG step of
the lanes in limb arithmetic. A small take sets one generator to each lane's
state in turn. Both reproduce numpy bit for bit, which the class checks
against numpy's own seeding and generator.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy's SeedSequence hash (pool size 4) and PCG64's 128-bit LCG multiplier.
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _uint64(what: str, value: int) -> int:
    # Masking to 64 bits would make -1 and 2**64 - 1 one stream.
    if not 0 <= int(value) <= _MASK64:
        raise ValueError(f"{what} must be in [0, 2**64) (got {value})")
    return int(value)


def _stream_word(part: int | str) -> int:
    if isinstance(part, (int, np.integer)):
        return _uint64("stream path integers", part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream path parts must be int or str, got {type(part).__name__}")


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator for the named substream ``(seed, *path)``.

    The same (seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams, so per-telegraph or
    per-trial streams agree between serial and parallel runs. ``seed`` and
    integer path parts must lie in [0, 2^64).
    """
    words = tuple(_stream_word(p) for p in path)
    seq = np.random.SeedSequence(_uint64("seed", seed), spawn_key=words)
    return np.random.default_rng(seq)


def child_seeds(rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` independent child seeds from ``rng``.

    Drawing all seeds up front in index order makes the children independent
    of later consumption order, which keeps indexed sub-simulations (one per
    symbol, one per trial) deterministic however they are scheduled.
    """
    return rng.integers(0, 2**63, size=count, dtype=np.int64)


def _seed_sequence_words(seeds: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every seed, as four
    uint64 arrays w0..w3, computed lane-wise in uint32 arithmetic.

    A seed below 2^64 is at most two 32-bit entropy words; the pool hash runs
    on to four words with zeros, which is what numpy does for a short entropy.
    The hash constants do not depend on the data, so they stay scalars.
    """
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
        return result ^ (result >> _XSHIFT)

    zero = np.zeros(seeds.shape, dtype=np.uint32)
    entropy = [(seeds & _MASK32).astype(np.uint32), (seeds >> 32).astype(np.uint32)]
    entropy += [zero] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in entropy]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))

    hash_const = _INIT_B
    halves = []
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
    # Consecutive uint32 words pair up little-endian into uint64 words.
    return [halves[2 * k] | (halves[2 * k + 1] << np.uint64(32)) for k in range(_POOL_SIZE)]


def _step(state: tuple[np.ndarray, np.ndarray], inc: tuple[np.ndarray, np.ndarray]):
    """One PCG64 step of every lane, state * multiplier + inc mod 2^128, on
    (hi, lo) uint64 limbs; uint64 products wrap mod 2^64.

    Mod 2^128 the product is lo*m_lo + 2^64 (hi*m_lo + lo*m_hi), so only
    lo*m_lo needs its high word, built from 32-bit halves as in Warren,
    *Hacker's Delight*, 2nd ed., sec. 8-2 (``mulhu``): every partial product
    of two halves plus a carried word still fits 64 bits.
    """
    hi, lo = state
    m_hi, m_lo = np.uint64(_PCG64_MULT >> 64), np.uint64(_PCG64_MULT & _MASK64)
    m1, m0 = np.uint64(_PCG64_MULT >> 32 & _MASK32), np.uint64(_PCG64_MULT & _MASK32)
    a1, a0 = lo >> 32, lo & _MASK32
    middle = a1 * m0 + ((a0 * m0) >> 32)
    carried = a0 * m1 + (middle & _MASK32)
    high = a1 * m1 + (middle >> 32) + (carried >> 32)
    new_lo = lo * m_lo + inc[1]
    # The low word's sum carried iff it wrapped below the addend.
    new_hi = high + lo * m_hi + hi * m_lo + inc[0] + (new_lo < inc[1])
    return new_hi, new_lo


def _pcg64_seeding(seeds) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(state, inc) limbs of the PCG64 that ``np.random.default_rng(s)``
    starts as, for each seed s (non-negative integers below 2^64).

    PCG64 seeds itself from the words w0..w3 as inc = ((w2:w3) << 1) | 1 and
    state = (inc + (w0:w1)) * multiplier + inc mod 2^128: one step from
    inc + (w0:w1).
    """
    seeds = np.asarray(seeds)
    if seeds.dtype.kind not in "iu" or (seeds.size and seeds.min() < 0):
        raise ValueError("seeds must be non-negative integers below 2**64")
    w0, w1, w2, w3 = _seed_sequence_words(seeds.astype(np.uint64).ravel())
    inc = ((w2 << 1) | (w3 >> 63), (w3 << 1) | 1)
    start_lo = inc[1] + w1
    start = (inc[0] + w0 + (start_lo < w1), start_lo)
    return _step(start, inc), inc


def _state_dict(state_hi: int, state_lo: int, inc_hi: int, inc_lo: int) -> dict:
    return {
        "bit_generator": "PCG64",
        "state": {"state": state_hi << 64 | state_lo, "inc": inc_hi << 64 | inc_lo},
        "has_uint32": 0,
        "uinteger": 0,
    }


# A take of at least this many rows per draw, 16*m rows of m uniforms, steps
# its lanes. Each of the m draws is one vectorised step over the take's rows,
# so the lanes' cost per row grows with m, while a generator reset per row
# costs about the same at any m. On a 2-core x86-64 the lanes took 2-3 ms
# against 8-14 ms for 2000 rows at m = 27, 1.3-1.5 times less at 16*m rows for
# m from 16 to 64, and 1.4 and 3-4 times more at m = 100 and 200 (655 and 327
# rows).
_LANES_PER_DRAW = 16


class UniformLanes:
    """The uniforms of ``np.random.default_rng(s).random(m)`` for a run of
    seeds s, one lane per seed, taken row by row in seed order.

    A take of at least 16*m rows (``_LANES_PER_DRAW``) steps them as lanes:
    column j is one PCG64 step of the take's lanes (``_step``) and its XSL-RR
    output, the high word xor the low one rotated right by the state's top 6
    bits, as the double (output >> 11) * 2^-53, which is what numpy's
    ``Generator.random`` returns. A smaller take sets one numpy generator to
    each lane's starting state and draws its row. That generator, numpy's
    ``PCG64(seed0)``, is the only one built; it checks the derived seeding of
    lane 0 when built, and each stepped take's first lane against its reset.
    """

    def __init__(self, seeds, m: int) -> None:
        seeds = np.asarray(seeds)
        self._state, self._inc = _pcg64_seeding(seeds)
        if not seeds.size:
            raise ValueError("UniformLanes needs at least one seed")
        self._generator = np.random.Generator(np.random.PCG64(int(seeds.flat[0])))
        if self._generator.bit_generator.state != _state_dict(
            *(int(limb[0]) for limb in self._state + self._inc)
        ):
            raise RuntimeError(
                "derived PCG64 seeding disagrees with numpy's; numpy's seeding has changed"
            )
        self._m = m
        self._taken = 0

    def _reset_rows(self, lanes: slice) -> np.ndarray:
        limbs = [limb[lanes].tolist() for limb in self._state + self._inc]
        rows = np.empty((len(limbs[0]), self._m))
        for row, state in zip(rows, zip(*limbs)):
            self._generator.bit_generator.state = _state_dict(*state)
            self._generator.random(out=row)
        return rows

    def take(self, count: int) -> np.ndarray:
        """The next ``count`` lanes' m uniforms, as a (count, m) array."""
        lanes = slice(self._taken, self._taken + count)
        self._taken = lanes.stop
        if count < _LANES_PER_DRAW * self._m:
            return self._reset_rows(lanes)
        state = (self._state[0][lanes], self._state[1][lanes])
        inc = (self._inc[0][lanes], self._inc[1][lanes])
        columns = np.empty((self._m, state[0].size))
        for column in columns:
            state = _step(state, inc)
            word = state[0] ^ state[1]
            turn = state[0] >> 58
            np.multiply((word >> turn | word << (-turn & 63)) >> 11, 2.0**-53, out=column)
        first = self._reset_rows(slice(lanes.start, lanes.start + 1))[0]
        if not np.array_equal(columns[:, 0], first):
            raise RuntimeError("PCG64 lanes disagree with numpy's generator; numpy's PCG64 has changed")
        return columns.T
