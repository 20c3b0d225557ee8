"""Telegraph protocol: detector toggling, hit sampling, and the receiver.

The sender encodes a bit per symbol by switching the idler detectors of all
N telegraphs (on = 1, off = 0). The receiver pools M screen hits and runs an
exact log-likelihood-ratio test of "interference" (coherent pattern) against
"no interference" (incoherent pattern); the fringe statistic |mean e^{2i k x}|
is kept as a secondary diagnostic. Two device models are available:

* NaiveCollapse: detectors off leaves the coherent pattern, detectors on the
  incoherent one, so toggling is remotely visible and the telegraph works.
* UnitaryQM: the receiving-end marginal is the incoherent pattern whatever
  the detectors do, so the telegraph carries nothing.

A sample-size planner searches for the smallest M meeting a target error
probability. It brackets both exact error probabilities of the M-sample
receiver from the M-fold convolution power of the LLR table's law, taken on
a lattice by FFT, so it draws nothing and needs no seed. The staggered
N-telegraph ensemble schedule realizes the M*T/N symbol time of the
many-telegraph construction. The
ensemble's pooled emission stream repeats every period, so it is addressed by
index: symbol s pools emissions s*M to (s+1)*M - 1, at O(M) cost per symbol
whatever N is.

Screen hits are drawn by inverse CDF through a guide table built once per
distribution (``_BinSampler``), which gives exactly the bins a binary search
of the CDF would. The receiver decodes a block of symbols (about 2^16 hits)
at a time: the bins, log-likelihood ratios and fringe statistics of the whole
block are array operations, on screen patterns built once per message. Each
symbol draws the stream of ``np.random.default_rng(child seed)``, whose
starting states are derived for all symbols in one vectorised pass. When a
block holds at least 16*M symbols (``_LANES_PER_DRAW``), the block's uniforms
are drawn as PCG64 lanes, one vectorised step per draw (``rng.UniformLanes``);
otherwise each symbol's state is set on one shared generator
(``rng.reseedable``), and that, with its draws, stays per symbol. Only the
idler draws of kept hits stay per symbol either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .device import (
    DeviceConfig,
    _integer_at_least,
    coherent_distribution,
    incoherent_distribution,
)
from .rng import UniformLanes, child_seeds, reseedable

PROBABILITY_FLOOR = 1e-300
# A schedule holds an offset and a slot of its pooled order per telegraph,
# 16 bytes each, so this caps it at 160 MB.
MAX_TELEGRAPHS = 10**7
# Each decoded block holds at least one whole symbol, and a hit costs about
# 60 B of peak memory, so a symbol of this many pairs takes about 0.6 GB.
MAX_PAIRS = 10**7
# Draws handled at once: the receiver's symbol blocks hold about this many
# hits, the sampler's chunks a quarter of it.
_BLOCK_HITS = 1 << 16
_SAMPLER_CHUNK = 1 << 14
# A message draws its uniforms as PCG64 lanes (``rng.UniformLanes``) when a
# full block, min(symbols, 2^16 // M), holds at least this many symbols per
# pair pooled: 16*M, which a block of 2^16 hits allows only for M <= 64. Each
# of a block's M draws is one vectorised step over its symbols, so the lanes'
# cost per symbol grows with M, while a generator reset per symbol costs about
# the same at any M. On a 2-core x86-64 the lanes took 2-3 ms against 8-14 ms
# for 2000 symbols at M = 27, 1.3-1.5 times less at 16*M symbols for M from
# 16 to 64, and 1.4 and 3-4 times more at M = 100 and 200 (655 and 327
# symbols, a full block).
_LANES_PER_DRAW = 16
_BUCKETS_PER_BIN = 64
_MAX_BUCKETS = 1 << 16
# The planner's lattices: the first step (nats), halved while a bracket
# straddles alpha, and the most points one FFT may take, which bounds a
# probe's cost whatever the geometry (two real FFTs of 8 MiB each).
_COARSE_STEP = 1e-2
_LATTICE_BUDGET = 1 << 20
# Below this alpha the rounding allowance of the lattices it needs (1.9e-10
# at M = 170, the M* for alpha = 1e-9 at the defaults) is a sizeable share of
# alpha, and no bracket could settle M*.
MIN_ALPHA = 1e-9
# The planner's search gives up past this M.
M_CAP = 1 << 16


def _check_period(name: str, value: float) -> None:
    # Negated, so NaN fails too.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be > 0 and finite (got {value})")


def _telegraph_count(name: str, value) -> int:
    count = _integer_at_least(name, value, 1)
    if count > MAX_TELEGRAPHS:
        raise ValueError(f"N must be <= {MAX_TELEGRAPHS} (got {count})")
    return count


class Detector(Enum):
    """Idler detector setting at the sender's end."""

    ON = "on"
    OFF = "off"


class ModelMode(Enum):
    """Which physics the simulated device obeys."""

    NAIVE_COLLAPSE = "NaiveCollapse"
    UNITARY_QM = "UnitaryQM"


@dataclass(frozen=True)
class TransmissionPlan:
    """Pairs per symbol M, pair production period T, telegraph count N."""

    M: int = 1000
    T: float = 1.0
    N: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "M", _integer_at_least("M", self.M, 1))
        if self.M > MAX_PAIRS:
            raise ValueError(f"M must be <= {MAX_PAIRS} (got {self.M})")
        _check_period("T", self.T)
        object.__setattr__(self, "N", _telegraph_count("N", self.N))


@dataclass(frozen=True)
class SymbolHits:
    """One symbol's screen detections as columns: which telegraph, when,
    which screen bin (the hit's position is that bin's center), and (with
    the detectors on, else None) which pipe the idler was found in. Row j of
    every column is the j-th pooled emission."""

    telegraph_id: np.ndarray
    time: np.ndarray
    bin: np.ndarray
    idler: np.ndarray | None = None

    def __post_init__(self) -> None:
        if np.any(self.telegraph_id < 0):
            raise ValueError(f"telegraph_id must be >= 0 (got {self.telegraph_id.min()})")
        if np.any(self.time < 0):
            raise ValueError(f"time must be >= 0 (got {self.time.min()})")


def _shows_coherent(detectors: Detector, mode: ModelMode) -> bool:
    """Under UnitaryQM the receiving end sees the reduced-state diagonal (the
    incoherent pattern) for both settings; under NaiveCollapse the
    detectors-off setting is credited with the coherent pattern."""
    return mode is ModelMode.NAIVE_COLLAPSE and detectors is Detector.OFF


def screen_marginal(cfg: DeviceConfig, detectors: Detector, mode: ModelMode) -> np.ndarray:
    """Screen pattern seen at the receiving end for a detector setting."""
    if _shows_coherent(detectors, mode):
        return coherent_distribution(cfg)
    return incoherent_distribution(cfg)


class _BinSampler:
    """Inverse-CDF bin sampling through a guide table (Chen & Asau, AIIE
    Trans. 6, 163 (1974)), built once per distribution.

    A uniform u draws bin min(searchsorted(cdf, u, 'right'), bins - 1), exactly.
    The unit interval is cut into K buckets, K a power of two (about 64 per
    bin, at most 2^16), so u*K and the edges b/K are exact and bucket
    b = floor(u*K) bounds the search to the CDF values in (b/K, (b+1)/K]. A
    bucket holding at most one of them settles a draw with one comparison;
    only draws in the few crowded buckets are searched.
    """

    def __init__(self, probabilities: np.ndarray) -> None:
        cdf = np.cumsum(probabilities)
        buckets = min(_MAX_BUCKETS, 1 << (_BUCKETS_PER_BIN * cdf.size - 1).bit_length())
        guide = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
        self._cdf = cdf
        self._buckets = buckets
        # Per bucket: the CDF values <= its left edge, the next CDF value, and
        # whether more than one CDF value falls inside it.
        self._below = guide[:-1]
        self._next = cdf[np.minimum(guide[:-1], cdf.size - 1)]
        self._crowded = np.diff(guide) > 1

    def indices(self, u: np.ndarray) -> np.ndarray:
        """Bin index per uniform in [0, 1), in the shape of ``u``."""
        flat = np.ravel(u)
        out = np.empty(flat.size, dtype=np.intp)
        last = self._cdf.size - 1
        for start in range(0, flat.size, _SAMPLER_CHUNK):
            part = flat[start : start + _SAMPLER_CHUNK]
            bucket = (part * self._buckets).astype(np.intp)
            idx = self._below[bucket] + (self._next[bucket] <= part)
            crowded = self._crowded[bucket]
            if crowded.any():
                idx[crowded] = np.searchsorted(self._cdf, part[crowded], side="right")
            np.minimum(idx, last, out=out[start : start + _SAMPLER_CHUNK])
        return out.reshape(np.shape(u))

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        return self.indices(rng.random(count))


def sample_hits(
    cfg: DeviceConfig, probabilities: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` i.i.d. screen positions by inverse CDF over the bins of
    ``cfg``, with the given probabilities. Positions are reported at bin centers.
    """
    count = _integer_at_least("count", count, 0)
    return cfg.bin_centers()[_BinSampler(probabilities).draw(count, rng)]


def floored_log_ratio(p_numerator: np.ndarray, p_denominator: np.ndarray) -> np.ndarray:
    """Elementwise log(p_num / p_den) with both sides floored at 1e-300.

    The floor keeps exact-zero bins (idealized interference nulls) from
    producing infinities while preserving the decision direction.
    """
    num = np.maximum(np.asarray(p_numerator, dtype=float), PROBABILITY_FLOOR)
    den = np.maximum(np.asarray(p_denominator, dtype=float), PROBABILITY_FLOOR)
    return np.log(num) - np.log(den)


def log_ratio_table(cfg: DeviceConfig) -> np.ndarray:
    """Per-bin log(p_coherent / p_incoherent) for the receiver's LRT."""
    return floored_log_ratio(coherent_distribution(cfg), incoherent_distribution(cfg))


def decide_bit(hits: Sequence[float] | np.ndarray, cfg: DeviceConfig) -> tuple[float, float]:
    """(log_lr, fringe statistic) of one symbol: the sum of per-hit
    log(p_coherent / p_incoherent) at the hits' bins, which decides
    interference iff > 0, and |mean over hits of exp(2i * kappa * x)|. Both
    are 0.0 for no hits."""
    xs = np.asarray(hits, dtype=float)
    if xs.size == 0:
        return 0.0, 0.0
    if xs.min() < -cfg.half_width or xs.max() > cfg.half_width:
        raise ValueError("hits must lie within the screen grid")
    return (
        float(log_ratio_table(cfg)[cfg.bin_index(xs)].sum()),
        float(np.abs(np.exp(2j * cfg.kappa * xs).mean())),
    )


@dataclass(frozen=True)
class SampleSizeResult:
    """Planner outcome: the smallest M the error brackets certify, or an
    explicit failure.

    ``error_interference`` is a [lo, hi] bracket on the exact probability that
    the M-sample LRT decides "no-interference" on coherent-pattern data at
    m_star; ``error_no_interference`` brackets the converse error on
    incoherent-pattern data. M* is always sufficient: both upper ends are
    <= alpha. It is the exact minimum unless the lattice budget left the
    bracket at M* - 1 straddling alpha, which counts as infeasible.
    Infeasible (m_star None) means the patterns are indistinguishable, or no
    M up to the cap has both upper ends <= alpha within the lattice budget.
    """

    m_star: int | None
    alpha: float
    error_interference: tuple[float, float] | None = None
    error_no_interference: tuple[float, float] | None = None
    failure_reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.m_star is not None


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def _on_lattice(table: np.ndarray, m: int, step: float) -> tuple[np.ndarray, int]:
    """Each table entry as its nearest multiple k*step: (k - least k, least k).

    Entries below -(m-1)*max(table) are raised to it first. One such draw
    makes the sum of m draws <= 0 whatever the others are, so the raise
    changes no decision, and it keeps the floored null bins (about -690) from
    widening the lattice.
    """
    points = np.rint(np.maximum(table, -(m - 1) * table.max()) / step).astype(np.int64)
    least = int(points.min())
    return points - least, least


def _lattice_law(
    probabilities: np.ndarray, offsets: np.ndarray, m: int
) -> tuple[np.ndarray, float]:
    """Law of the sum of m i.i.d. lattice offsets (entry j is P(sum = j)),
    from one rfft/irfft pair, and its rounding allowance: a bound on the
    error of any sum of its entries over a run of consecutive j.

    An FFT of length L computes each output within g * sum|input|, with
    g = 8 log2(L) eps (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., sec. 24.1, gives about 3.5 log2(L) eps in norm).
    One draw's spectrum Q has sum|q| = 1, so each |dQ_k| <= g, and the power
    (|Q_k| <= 1) makes that at most 2 m g, rounding of the power included. A
    run of consecutive outputs weighs frequency k by at most
    1 / (2 min(k, L - k)), so the power's error moves a run's sum by at most
    2 m g (ln L + 2); the inverse transform adds g * sum|P_k| over the full
    spectrum, and the summation g more.
    """
    size = m * int(offsets.max()) + 1
    length = _fft_length(size)
    one_draw = np.bincount(offsets, weights=probabilities)
    spectrum = np.fft.rfft(one_draw, length) ** m
    g = 8.0 * math.log2(length) * float(np.finfo(float).eps)
    allowance = g * (2.0 * m * (math.log(length) + 2.0) + 2.0 * float(np.abs(spectrum).sum()) + 1.0)
    return np.fft.irfft(spectrum, length)[:size], allowance


def _error_brackets(
    laws: tuple[np.ndarray, np.ndarray], table: np.ndarray, m: int, step: float
) -> tuple[tuple[float, float], tuple[float, float]]:
    """[lo, hi] on each error probability of the m-sample LRT, with the
    table on a lattice of ``step``.

    The lattice sum step*K is within m*step/2 of the true sum S, so with
    h = m // 2, S <= 0 implies K <= h and K <= -h - 1 implies S < 0:
    P_c(K <= -h-1) <= P_c(S <= 0) <= P_c(K <= h) on coherent-pattern data
    and P_i(K >= h+1) <= P_i(S > 0) <= P_i(K >= -h) on incoherent-pattern
    data. Each end is widened by the law's rounding allowance.
    """
    offsets, least = _on_lattice(table, m, step)
    h = m // 2

    def upto(k: int) -> int:
        # Lattice sums <= k: offset sums below k - m*least + 1 (the law's
        # length caps the slice).
        return max(0, k - m * least + 1)

    brackets = []
    for which, probabilities in enumerate(laws):
        law, allowance = _lattice_law(probabilities, offsets, m)
        if which == 0:
            lo, hi = law[: upto(-h - 1)].sum(), law[: upto(h)].sum()
        else:
            lo, hi = law[upto(h) :].sum(), law[upto(-h - 1) :].sum()
        brackets.append((max(0.0, float(lo) - allowance), min(1.0, float(hi) + allowance)))
    return brackets[0], brackets[1]


def required_sample_size(cfg: DeviceConfig, alpha: float) -> SampleSizeResult:
    """Smallest M whose exact error brackets are both <= alpha.

    The receiver's statistic is a sum of M i.i.d. draws from the LLR table,
    so each error is a tail of the table law's M-fold convolution power
    (Cover & Thomas, *Elements of Information Theory*, ch. 11), bracketed on
    a lattice (``_error_brackets``). Searches by doubling, up to M_CAP, then
    by bisection. Each probed M starts on a lattice of step _COARSE_STEP
    (coarser if the lattice budget demands) and halves the step while a
    bracket straddles alpha and the halved lattice fits _LATTICE_BUDGET
    points; M is feasible only if both upper ends are <= alpha, so the
    result is always sufficient. Nothing is random. When the two patterns
    are (numerically) indistinguishable no finite M exists and an explicit
    failure is returned. alpha >= 1/2 needs no data at all: a fair coin
    achieves it, so M = 0. alpha below MIN_ALPHA is refused.
    """
    if not MIN_ALPHA <= alpha < 1.0:
        raise ValueError(
            f"alpha must be in [{MIN_ALPHA:g}, 1); smaller targets are below the "
            f"planner's rounding allowance (got {alpha})"
        )
    if alpha >= 0.5:
        return SampleSizeResult(m_star=0, alpha=alpha)

    p_c = coherent_distribution(cfg)
    p_i = incoherent_distribution(cfg)
    tv = 0.5 * float(np.abs(p_c - p_i).sum())
    if tv < 1e-6:
        return SampleSizeResult(
            m_star=None,
            alpha=alpha,
            failure_reason=(
                f"coherent and incoherent patterns are indistinguishable "
                f"(total variation {tv:.3e}); no finite M suffices"
            ),
        )

    table = floored_log_ratio(p_c, p_i)
    cache: dict[int, tuple[tuple[float, float], tuple[float, float]]] = {}

    def fits(m: int, step: float) -> bool:
        return m * int(_on_lattice(table, m, step)[0].max()) + 1 <= _LATTICE_BUDGET

    def feasible_at(m: int) -> bool:
        if m not in cache:
            step = _COARSE_STEP
            while not fits(m, step):
                step *= 2.0
            while True:
                brackets = _error_brackets((p_c, p_i), table, m, step)
                settled = all(hi <= alpha for _, hi in brackets) or any(
                    lo > alpha for lo, _ in brackets
                )
                if settled or not fits(m, step / 2.0):
                    break
                step /= 2.0
            cache[m] = brackets
        return all(hi <= alpha for _, hi in cache[m])

    hi = 1
    while not feasible_at(hi):
        hi *= 2
        if hi > M_CAP:
            return SampleSizeResult(
                m_star=None,
                alpha=alpha,
                failure_reason=f"no sufficient M found up to cap {M_CAP}",
            )
    lo = hi // 2  # hi == 1 gives lo == 0, the known-infeasible floor
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if feasible_at(mid):
            hi = mid
        else:
            lo = mid
    err_c, err_i = cache[hi]
    return SampleSizeResult(
        m_star=hi, alpha=alpha, error_interference=err_c, error_no_interference=err_i
    )


def _sorted_prefix(offsets: np.ndarray, k: int) -> np.ndarray:
    """``np.argsort(offsets, kind="stable")[:k]`` without sorting them all:
    the first k ids in (offset, id) order all have offsets at most the k-th
    smallest, so only those ids, in id order, are stable-sorted."""
    kth = np.partition(offsets, k - 1)[k - 1]
    candidates = np.flatnonzero(offsets <= kth)
    return candidates[np.argsort(offsets[candidates], kind="stable")[:k]]


@dataclass(frozen=True)
class EnsembleSchedule:
    """N telegraphs, telegraph i firing at offsets[i] + period*j for j >= 0.

    The pooled stream is periodic: cycle c fires every telegraph once, in
    offset order with ties broken by id, so pooled emission k is telegraph
    ``order[k % N]`` at its offset + period*(k // N). ``order`` holds as
    many slots as a read has needed (``pooled_order``), so a message that reads
    fewer than N emissions orders only those, and a run of pooled emissions
    costs O(its length), whatever N is.
    """

    offsets: np.ndarray
    period: float
    order: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        offsets = np.array(self.offsets, dtype=float)
        if offsets.ndim != 1 or offsets.size < 1:
            raise ValueError("offsets must be a non-empty 1-d array")
        _check_period("period", self.period)
        if not (offsets.min() >= 0.0 and offsets.max() < self.period):
            raise ValueError("offsets must lie in [0, period)")
        offsets.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "order", np.empty(0, dtype=np.intp))

    @property
    def telegraphs(self) -> int:
        return self.offsets.size

    def pooled_order(self, slots: int) -> np.ndarray:
        """The read-only ids of the first ``slots`` (at most N) slots of a
        cycle, in pooled order; ordered on the first read that needs them."""
        if slots > self.order.size:
            order = _sorted_prefix(self.offsets, slots)
            order.setflags(write=False)
            object.__setattr__(self, "order", order)
        return self.order[:slots]

    def emissions_after(self, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``count`` pooled emissions after the first ``first``, as
        (times, telegraph ids) in pooled order."""
        cycle, slot = np.divmod(np.arange(first, first + count), self.telegraphs)
        ids = self.pooled_order(min(first + count, self.telegraphs))[slot]
        return self.offsets[ids] + self.period * cycle, ids


def ensemble_schedule(n: int, period: float, rng: np.random.Generator) -> EnsembleSchedule:
    """Draw the staggered ensemble: one uniform [0, T) offset per telegraph."""
    n = _telegraph_count("telegraph count", n)
    _check_period("period", period)
    return EnsembleSchedule(offsets=rng.random(n) * period, period=period)


def _symbol_windows(
    schedule: EnsembleSchedule, m: int, symbols: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The one emission timeline: symbol s pools emissions [s*m, (s+1)*m).

    Yields blocks of consecutive symbols, about _BLOCK_HITS emissions each (at
    least one symbol): (times, telegraph ids) as (symbols, m) arrays, one row
    per symbol, and each symbol's time, which runs from the previous symbol's
    last emission (from 0 for the first).
    """
    cycle, slot = divmod(symbols * m - 1, schedule.telegraphs)
    # The message's last emission is its latest; Python floats overflow to
    # inf without numpy's warning. Every slot the message reads is ordered here.
    order = schedule.pooled_order(min(symbols * m, schedule.telegraphs))
    last = float(schedule.offsets[order[slot]]) + schedule.period * cycle
    if not math.isfinite(last):
        raise ValueError(
            f"emission times overflow the float range; T ({schedule.period}) "
            f"is too large for this message"
        )
    per_block = max(1, _BLOCK_HITS // m)
    clock = 0.0
    for first in range(0, symbols, per_block):
        count = min(per_block, symbols - first)
        times, ids = schedule.emissions_after(first * m, count * m)
        times = times.reshape(count, m)
        ends = times[:, -1]
        yield times, ids.reshape(count, m), np.diff(ends, prepend=clock)
        clock = float(ends[-1])


@dataclass(frozen=True)
class TransmissionResult:
    """Full transcript of one message transmission. ``symbol_times``,
    ``log_lr`` and ``fringe_statistic`` are read-only arrays with one entry
    per symbol; the receiver decides interference iff ``log_lr`` > 0."""

    sent: tuple[int, ...]
    symbol_times: np.ndarray
    log_lr: np.ndarray
    fringe_statistic: np.ndarray
    hit_counts: tuple[int, ...]
    hits: tuple[SymbolHits, ...] | None = None

    @property
    def received(self) -> np.ndarray:
        """The decoded bits: interference -> 0, no-interference -> 1."""
        return np.where(self.log_lr > 0, 0, 1)

    def symbol_error_rate(self) -> float:
        return float(np.mean(self.received != self.sent)) if self.sent else 0.0


def transmit_message(
    bits: Sequence[int],
    plan: TransmissionPlan,
    mode: ModelMode,
    cfg: DeviceConfig,
    rng: np.random.Generator,
    keep_hits: bool = False,
) -> TransmissionResult:
    """Send ``bits`` through the N-telegraph ensemble and decode each symbol.

    For each symbol every telegraph's detectors are set from the bit
    (on = 1, off = 0), hits are pooled in emission order until M are
    collected, and the LRT decides: interference -> 0, no-interference -> 1.
    The symbol time is the pooled collection time; symbols run back to back
    on one continuous emission timeline.
    """
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    if not bits:
        empty = np.empty(0)
        empty.setflags(write=False)
        return TransmissionResult((), empty, empty, empty, (), () if keep_hits else None)

    schedule = ensemble_schedule(plan.N, plan.T, rng)
    seeds = child_seeds(rng, len(bits))
    # Each symbol draws from default_rng(its child seed): as PCG64 lanes when
    # a block holds enough symbols to pay for a vectorised step per draw,
    # else from one generator reset to each symbol's starting state.
    if min(len(bits), _BLOCK_HITS // plan.M) >= _LANES_PER_DRAW * plan.M:
        lanes = UniformLanes(seeds, plan.M)
    else:
        lanes = None
        generator, starts = reseedable(seeds)
    # The receiver's model is fixed by cfg: derive it once per message, each
    # screen pattern built once for the LLR table and the samplers alike.
    coherent, incoherent = coherent_distribution(cfg), incoherent_distribution(cfg)
    table = floored_log_ratio(coherent, incoherent)
    phasors = np.exp(2j * cfg.kappa * cfg.bin_centers())
    samplers = {
        d: _BinSampler(coherent if _shows_coherent(d, mode) else incoherent) for d in Detector
    }
    detectors_on = np.array(bits, dtype=bool)

    log_lr, fringes, symbol_times = (np.empty(len(bits)) for _ in range(3))
    all_hits: list[SymbolHits] = []
    start = 0
    for times, ids, block_times in _symbol_windows(schedule, plan.M, len(bits)):
        stop = start + block_times.size
        on = detectors_on[start:stop]
        idlers = np.zeros(times.shape, dtype=np.int64) if keep_hits else None
        # Both pipes share the envelope, so the screen conditional given the
        # pipe outcome is the same and the idler samples independently, after
        # the screen draws.
        if lanes is not None:
            u = lanes.take(stop - start)
            if keep_hits:
                for row in np.flatnonzero(on):
                    idlers[row] = lanes.generator_after(start + row).integers(1, 3, size=plan.M)
        else:
            u = np.empty(times.shape)
            for row, state in enumerate(starts[start:stop]):
                generator.bit_generator.state = state
                generator.random(out=u[row])
                if keep_hits and on[row]:
                    idlers[row] = generator.integers(1, 3, size=plan.M)
        idx = np.empty(times.shape, dtype=np.intp)
        for detectors, sampler in samplers.items():
            rows = on == (detectors is Detector.ON)
            idx[rows] = sampler.indices(u[rows])
        log_lr[start:stop] = table[idx].sum(axis=1)
        fringes[start:stop] = np.abs(phasors[idx].mean(axis=1))
        symbol_times[start:stop] = block_times
        if keep_hits:
            all_hits.extend(
                SymbolHits(ids[row], times[row], idx[row], idlers[row] if on[row] else None)
                for row in range(stop - start)
            )
        start = stop

    for column in (log_lr, fringes, symbol_times):
        column.setflags(write=False)
    return TransmissionResult(
        sent=tuple(bits),
        symbol_times=symbol_times,
        log_lr=log_lr,
        fringe_statistic=fringes,
        hit_counts=(plan.M,) * len(bits),
        hits=tuple(all_hits) if keep_hits else None,
    )

