"""Named, seed-derived random streams for reproducible simulations.

Every stochastic routine in this package consumes a ``numpy.random.Generator``.
Top-level entry points derive that generator from an explicit integer seed
plus a stream path (e.g. the subcommand name and a purpose such as
``"bits"``), so a run's draws are fixed by its seed and the path alone. A
message draws everything from its one stream, in order: the ensemble's
offsets, then its symbols' uniforms as one row-major (symbols, M) read.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np

_MASK64 = (1 << 64) - 1


def _uint64(what: str, value: int) -> int:
    # int() would make 0.5, "0" and False seed 0's stream.
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise TypeError(f"{what} must be int, got {type(value).__name__}")
    # Masking to 64 bits would make -1 and 2**64 - 1 one stream.
    if not 0 <= int(value) <= _MASK64:
        raise ValueError(f"{what} must be in [0, 2**64) (got {value})")
    return int(value)


def _stream_word(part: int | str) -> int:
    if isinstance(part, numbers.Integral) and not isinstance(part, bool):
        return _uint64("stream path integers", part)
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"stream path parts must be int or str, got {type(part).__name__}")


def stream(seed: int, *path: int | str) -> np.random.Generator:
    """Return the generator for the named substream ``(seed, *path)``.

    The same (seed, path) pair always yields the same stream, and distinct
    paths yield statistically independent streams. ``seed`` and integer path
    parts must be ints (numpy's too, but not bools) in [0, 2^64).
    """
    words = tuple(_stream_word(p) for p in path)
    seq = np.random.SeedSequence(_uint64("seed", seed), spawn_key=words)
    return np.random.default_rng(seq)

