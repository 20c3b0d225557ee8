"""Telegraph protocol: detector toggling, hit sampling, and the receiver.

The sender encodes a bit per symbol by switching the idler detectors of all
N telegraphs (on = 1, off = 0). The receiver pools M screen hits and runs an
exact log-likelihood-ratio test of "interference" (coherent pattern) against
"no interference" (incoherent pattern); the fringe statistic |mean e^{2i k x}|
is kept as a secondary diagnostic. Two device models are available, and
``Hypotheses(cfg, mode)`` is the one place that decides what each detector
setting shows, its screen pattern and its reduced screen state; it refuses
any mode or setting that is not a ``ModelMode`` or ``Detector`` member:

* NaiveCollapse: detectors off leaves the coherent pattern, detectors on the
  incoherent one, so toggling is remotely visible and the telegraph works.
* UnitaryQM: the receiving-end marginal is the incoherent pattern whatever
  the detectors do, so the telegraph carries nothing.

The receiver's model is one ``ErrorLaw`` per config: both screen patterns,
the LLR table, and [lo, hi] brackets on both exact errors of the M-sample
receiver from the M-fold convolution power of the table's law, taken on a
lattice by FFT. The sample-size planner is a search over it for the smallest
M meeting a target error probability, so it draws nothing and needs no seed.
The staggered N-telegraph ensemble schedule realizes the M*T/N symbol time of
the many-telegraph construction. Its pooled emission stream repeats every
period, so it is addressed by index: symbol s pools emissions s*M to
(s+1)*M - 1, whatever N is. A message reads its timeline once, before it
draws anything: one emission per symbol, the last, whose time ends the
symbol, or, only when its hits are kept (``simulate``), all M emissions of
each symbol, whose last column gives the same ends.

Screen hits are drawn by inverse CDF through a guide table of about 16
buckets per bin, built once per screen pattern (``_BinSampler``), which gives
exactly the bins a clamped binary search of the CDF would. A message has one
sampler when both detector settings show one pattern (UnitaryQM) and two
otherwise. Once its timeline is read, ``transmit_message`` loops over
blocks of symbols (about 2^16 hits each) only to draw and decode: a block
samples its hits, the bins, log-likelihood ratios and fringe statistics of
the whole block being array operations on screen patterns built once per
message, and writes its bins into the kept hits, if any. Each symbol's M
uniforms are those of ``np.random.default_rng(child seed)``, and a block
takes them from one ``rng.UniformLanes`` per message, which picks how to draw
them from the block's size. Only the screen draws are made: the idler's
outcome is read by no report, so it is not drawn.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .device import (
    DeviceConfig,
    _integer_at_least,
    coherent_distribution,
    coherent_screen_state,
    incoherent_distribution,
    reduced_screen_by_measurement_mixture,
    reduced_screen_by_partial_trace,
)
from .quantum import DensityMatrix, total_variation
from .rng import UniformLanes, child_seeds

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
# Guide buckets per bin, and their cap. At the default 256 bins on a 2-core
# x86-64, 16 per bin built a guide in 0.07 ms against 0.23-0.34 ms at 64 per
# bin, and drew 54,000 hits in 0.27 ms against 0.28 ms. 8 per bin drew as fast
# as 16; at 4 and 2 per bin crowded buckets (up to 2% and 4% of them) slowed
# the draws by 6-22% and 38-73%.
_BUCKETS_PER_BIN = 16
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

Bracket = tuple[float, float]
# One bracket per hypothesis, coherent-pattern data first.
Brackets = tuple[Bracket | None, Bracket | None]


def _check_period(name: str, value: float) -> None:
    # A period, or the planner's lattice step. Negated, so NaN fails too.
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


def _member(kind: type[Enum], name: str, value) -> Enum:
    """``value`` if it is a ``kind`` member; else a ValueError naming the members."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be {' or '.join(map(str, kind))} (got {value!r})")
    return value


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


class _BinSampler:
    """Inverse-CDF bin sampling through a guide table (Chen & Asau, AIIE
    Trans. 6, 163 (1974)), built once per distribution.

    A uniform u draws bin min(searchsorted(cdf, u, 'right'), bins - 1), exactly.
    The unit interval is cut into K buckets, K a power of two (about 16 per
    bin, at most 2^16), so u*K and the edges b/K are exact and bucket
    b = floor(u*K) bounds the search to the CDF values in (b/K, (b+1)/K]. A
    bucket holding at most one of them settles a draw with one comparison;
    only draws in the few crowded buckets are searched. The clamp to the last
    bin is folded into the table, so only those searches are clamped.
    """

    def __init__(self, probabilities: np.ndarray) -> None:
        cdf = np.cumsum(probabilities)
        last = cdf.size - 1
        buckets = min(_MAX_BUCKETS, 1 << (_BUCKETS_PER_BIN * cdf.size - 1).bit_length())
        guide = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
        self._cdf = cdf
        self._buckets = buckets
        # Per bucket: the CDF values <= its left edge, capped at the last bin;
        # the next CDF value, +inf where the cap leaves no bin to step to; and
        # whether more than one CDF value falls inside it.
        self._below = np.minimum(guide[:-1], last)
        self._next = cdf[self._below]
        self._next[self._below == last] = np.inf
        self._crowded = np.diff(guide) > 1

    def indices(self, u: np.ndarray) -> np.ndarray:
        """Bin index per uniform in [0, 1), in the shape of ``u``."""
        flat = np.ravel(u)
        out = np.empty(flat.size, dtype=np.intp)
        for start in range(0, flat.size, _SAMPLER_CHUNK):
            part = flat[start : start + _SAMPLER_CHUNK]
            idx = out[start : start + _SAMPLER_CHUNK]
            bucket = (part * self._buckets).astype(np.intp)
            np.take(self._below, bucket, out=idx)
            idx += self._next[bucket] <= part
            crowded = self._crowded[bucket]
            if crowded.any():
                found = np.searchsorted(self._cdf, part[crowded], side="right")
                idx[crowded] = np.minimum(found, self._cdf.size - 1)
        return out.reshape(np.shape(u))


def sample_hits(
    cfg: DeviceConfig, probabilities: np.ndarray, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``count`` i.i.d. screen positions by inverse CDF over the bins of
    ``cfg``, with the given probabilities. Positions are reported at bin centers.
    """
    count = _integer_at_least("count", count, 0)
    return cfg.bin_centers()[_BinSampler(probabilities).indices(rng.random(count))]


def floored_log_ratio(p_numerator: np.ndarray, p_denominator: np.ndarray) -> np.ndarray:
    """Elementwise log(p_num / p_den) with both sides floored at 1e-300.

    The floor keeps exact-zero bins (idealized interference nulls) from
    producing infinities while preserving the decision direction.
    """
    num = np.maximum(np.asarray(p_numerator, dtype=float), PROBABILITY_FLOOR)
    den = np.maximum(np.asarray(p_denominator, dtype=float), PROBABILITY_FLOOR)
    return np.log(num) - np.log(den)


def log_ratio_table(cfg: DeviceConfig) -> np.ndarray:
    """Per-bin log(p_coherent / p_incoherent) for the receiver's LRT, read-only."""
    return ErrorLaw(cfg).table


def _fringe_phasors(cfg: DeviceConfig, xs: np.ndarray) -> np.ndarray:
    """exp(2i * kappa * x) per position, from the phase 2 * (kappa * x): finite
    where 2i * kappa is not, and refused by name where it overflows."""
    with np.errstate(over="ignore"):
        phases = 2.0 * (cfg.kappa * xs)
    if not np.isfinite(phases).all():
        raise ValueError(f"the fringe phase 2 * kappa * x overflows (kappa={cfg.kappa})")
    return np.exp(1j * phases)


def decide_bit(hits: Sequence[float] | np.ndarray, cfg: DeviceConfig) -> tuple[float, float]:
    """(log_lr, fringe statistic) of one symbol: the sum of per-hit
    log(p_coherent / p_incoherent) at the hits' bins, which decides
    interference iff > 0, and |mean over hits of exp(2i * kappa * x)|. Both
    are 0.0 for no hits."""
    xs = np.asarray(hits, dtype=float)
    if xs.size == 0:
        return 0.0, 0.0
    # Negated, so NaN fails too.
    if not (xs.min() >= -cfg.half_width and xs.max() <= cfg.half_width):
        raise ValueError("hits must lie within the screen grid")
    return (
        float(log_ratio_table(cfg)[cfg.bin_index(xs)].sum()),
        float(np.abs(_fringe_phasors(cfg, xs).mean())),
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


class ErrorLaw:
    """The M-sample receiver's exact error law for one DeviceConfig: the
    screen patterns ``coherent`` and ``incoherent``, the LLR ``table`` the
    receiver sums (all read-only and built on first read), their
    ``total_variation``, and a [lo, hi] bracket on either error at any M. The
    statistic is a sum of M i.i.d. draws from the table, so each error is a
    tail of the table law's M-fold convolution power under its hypothesis
    (Cover & Thomas, *Elements of Information Theory*, ch. 11), bracketed on
    a lattice. It holds nothing else: a planner probe (``settled``) is a
    function of (m, alpha) alone, whatever was probed before it."""

    def __init__(self, cfg: DeviceConfig) -> None:
        self.cfg = cfg

    @functools.cached_property
    def coherent(self) -> np.ndarray:
        return coherent_distribution(self.cfg)

    @functools.cached_property
    def incoherent(self) -> np.ndarray:
        return incoherent_distribution(self.cfg)

    @functools.cached_property
    def table(self) -> np.ndarray:
        table = floored_log_ratio(self.coherent, self.incoherent)
        table.setflags(write=False)
        return table

    @functools.cached_property
    def total_variation(self) -> float:
        return total_variation(self.coherent, self.incoherent)

    def lattice(self, m: int, step: float) -> tuple[np.ndarray, int]:
        """Each table entry as its nearest multiple k*step: (k - least k, least k).

        Entries below -(m-1)*max(table) are raised to it first. One such draw
        makes the sum of m draws <= 0 whatever the others are, so the raise
        changes no decision, and it keeps the floored null bins (about -690)
        from widening the lattice. An m that is not an integer >= 1, or a
        step that is not finite and > 0, is refused.
        """
        m = _integer_at_least("m", m, 1)
        _check_period("step", step)
        raised = np.maximum(self.table, -(m - 1) * self.table.max())
        points = np.rint(raised / step).astype(np.int64)
        least = int(points.min())
        return points - least, least

    @staticmethod
    def power(pattern: np.ndarray, offsets: np.ndarray, m: int) -> tuple[np.ndarray, float]:
        """Law of the sum of m i.i.d. lattice offsets (entry j is P(sum = j)),
        from one rfft/irfft pair, and its rounding allowance: a bound on the
        error of any sum of its entries over a run of consecutive j.

        An FFT of length L computes each output within g * sum|input|, with
        g = 8 log2(L) eps (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., sec. 24.1, gives about 3.5 log2(L) eps in
        norm). One draw's spectrum Q has sum|q| = 1, so each |dQ_k| <= g, and
        the power (|Q_k| <= 1) makes that at most 2 m g, rounding of the power
        included. A run of consecutive outputs weighs frequency k by at most
        1 / (2 min(k, L - k)), so the power's error moves a run's sum by at
        most 2 m g (ln L + 2); the inverse transform adds g * sum|P_k| over
        the full spectrum, and the summation g more.
        """
        size = m * int(offsets.max()) + 1
        length = _fft_length(size)
        spectrum = np.fft.rfft(np.bincount(offsets, weights=pattern), length) ** m
        g = 8.0 * math.log2(length) * float(np.finfo(float).eps)
        allowance = 2.0 * m * (math.log(length) + 2.0) + 2.0 * float(np.abs(spectrum).sum()) + 1.0
        return np.fft.irfft(spectrum, length)[:size], g * allowance

    def bracket(self, m: int, step: float, hypothesis: int) -> Bracket | None:
        """[lo, hi] on one error probability of the m-sample LRT, with the
        table on a lattice of ``step``, from one ``power`` call: hypothesis 0
        is coherent-pattern data, whose error is deciding "no interference",
        and 1 is incoherent-pattern data (the order of ``Brackets``); any
        other hypothesis is refused, as ``lattice`` refuses m and the step,
        before any FFT. None if the m-fold law on that lattice would exceed
        _LATTICE_BUDGET points.

        The lattice sum step*K is within m*step/2 of the true sum S, so with
        h = m // 2, S <= 0 implies K <= h and K <= -h - 1 implies S < 0:
        P_c(K <= -h-1) <= P_c(S <= 0) <= P_c(K <= h) on coherent-pattern data
        and P_i(K >= h+1) <= P_i(S > 0) <= P_i(K >= -h) on incoherent-pattern
        data. Each end is widened by the law's rounding allowance.
        """
        m = _integer_at_least("m", m, 1)
        if _integer_at_least("hypothesis", hypothesis, 0) > 1:
            raise ValueError(f"hypothesis must be 0 or 1 (got {hypothesis})")
        offsets, least = self.lattice(m, step)
        if m * int(offsets.max()) + 1 > _LATTICE_BUDGET:
            return None
        # Lattice sums <= k are offset sums below k - m*least + 1 (the law's
        # length caps the slice), for k = -h - 1 and k = h.
        below, upto = (max(0, k - m * least + 1) for k in (-(m // 2) - 1, m // 2))
        law, allowance = self.power((self.coherent, self.incoherent)[hypothesis], offsets, m)
        if hypothesis == 0:
            lo, hi = law[:below].sum(), law[:upto].sum()
        else:
            lo, hi = law[upto:].sum(), law[below:].sum()
        return max(0.0, float(lo) - allowance), min(1.0, float(hi) + allowance)

    def settled(self, m: int, alpha: float) -> Brackets:
        """The brackets at m at the probe's last lattice step, None for a law
        that step did not build.

        The step starts at _COARSE_STEP, doubled until the lattice fits the
        budget. Each step builds the incoherent law first and fails the probe
        if its lower end is > alpha; only if its upper end is <= alpha does
        it build the coherent law, which fails or meets the probe unless it
        straddles alpha. The step is halved while the probe is open and the
        finer lattice fits.

        Each [lo, hi] bounds its exact error at every step, so a lower end >
        alpha at any step rules out a meet at every step: building both laws
        at every step reaches the same verdict. A probe that meets has no
        lower end > alpha, so it stops, as that ladder does, at the first step
        where both upper ends are <= alpha, with the same brackets. Building
        the incoherent law first sets only how many laws are built. An m
        that is not an integer >= 1, or an alpha ``check_alpha`` refuses, is
        refused before any law is built.
        """
        m = _integer_at_least("m", m, 1)
        check_alpha(alpha)
        step = _COARSE_STEP
        while (incoherent := self.bracket(m, step, 1)) is None:
            step *= 2.0
        while True:
            coherent = None
            if incoherent[1] <= alpha:
                coherent = self.bracket(m, step, 0)
                if coherent[0] > alpha or coherent[1] <= alpha:
                    break
            elif incoherent[0] > alpha:
                break
            if (finer := self.bracket(m, step / 2.0, 1)) is None:
                break
            incoherent, step = finer, step / 2.0
        return coherent, incoherent


class Hypotheses:
    """What each detector setting shows at the receiving end for one (config,
    mode): its screen ``pattern`` and 2 x 2 span ``state``. Detectors on show
    the incoherent pattern and route (b), the which-path mixture. Off, they show
    the coherent pattern and pure superposition under NaiveCollapse, and under
    UnitaryQM the same incoherent pattern object and route (a), the partial
    trace, an independent route to (b)'s matrix. ``law`` is the ErrorLaw."""

    def __init__(self, cfg: DeviceConfig, mode: ModelMode) -> None:
        self._collapse = _member(ModelMode, "mode", mode) is ModelMode.NAIVE_COLLAPSE
        self.law = ErrorLaw(cfg)

    def pattern(self, detectors: Detector) -> np.ndarray:
        """The read-only screen pattern the setting shows."""
        if _member(Detector, "detectors", detectors) is Detector.OFF and self._collapse:
            return self.law.coherent
        return self.law.incoherent

    def state(self, detectors: Detector) -> DensityMatrix:
        """The reduced screen state the setting leaves, on the span."""
        if _member(Detector, "detectors", detectors) is Detector.ON:
            return reduced_screen_by_measurement_mixture(self.law.cfg)
        if self._collapse:
            return coherent_screen_state(self.law.cfg)
        return reduced_screen_by_partial_trace(self.law.cfg)


def check_alpha(alpha: float) -> None:
    """Refuse a target error probability outside [MIN_ALPHA, 1)."""
    if not MIN_ALPHA <= alpha < 1.0:
        raise ValueError(
            f"alpha must be in [{MIN_ALPHA:g}, 1); smaller targets are below the "
            f"planner's rounding allowance (got {alpha})"
        )


def required_sample_size(cfg: DeviceConfig, alpha: float) -> SampleSizeResult:
    """Smallest M whose exact error brackets (``ErrorLaw.settled``) are both
    <= alpha.

    Searches by doubling, up to M_CAP, then by bisection; M is feasible only
    if both upper ends are <= alpha, so the result is always sufficient. A
    probe builds one hypothesis's law at a time (``ErrorLaw.settled``), with
    the verdict, and at M* the brackets, that building both gives. Each M is
    probed once, and the search keeps the brackets of the smallest M met so
    far, which end as M*'s. Nothing is random. When the two patterns are
    (numerically) indistinguishable no finite M exists and an explicit
    failure is returned.
    alpha >= 1/2 needs no data at all: a fair coin achieves it, so M = 0.
    alpha outside [MIN_ALPHA, 1) is refused.
    """
    check_alpha(alpha)
    if alpha >= 0.5:
        return SampleSizeResult(m_star=0, alpha=alpha)
    law = ErrorLaw(cfg)
    if law.total_variation < 1e-6:
        return SampleSizeResult(
            m_star=None,
            alpha=alpha,
            failure_reason=(
                f"coherent and incoherent patterns are indistinguishable "
                f"(total variation {law.total_variation:.3e}); no finite M suffices"
            ),
        )

    def met(m: int) -> Brackets | None:
        found = law.settled(m, alpha)
        return found if all(ends is not None and ends[1] <= alpha for ends in found) else None

    hi = 1
    while (brackets := met(hi)) is None:
        hi *= 2
        if hi > M_CAP:
            reason = f"no sufficient M found up to cap {M_CAP}"
            return SampleSizeResult(None, alpha, failure_reason=reason)
    lo = hi // 2  # hi == 1 gives lo == 0, the known-infeasible floor
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (found := met(mid)) is None:
            lo = mid
        else:
            hi, brackets = mid, found
    err_c, err_i = brackets
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
    many slots as a read has needed, so a message, which reads its timeline
    once, before its block loop, orders only the slots of a cycle it reads,
    and a run of pooled emissions costs O(its length), whatever N is.
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

    def emissions_after(
        self, first: int, count: int, stride: int = 1
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pooled emissions first, first + stride, ..., ``count`` of them, as
        (times, telegraph ids) in pooled order; at stride 1, the ``count``
        emissions after the first ``first``. The slots of a cycle that no
        earlier read reached are ordered here. A read whose latest time
        overflows the float range is refused."""
        first = _integer_at_least("first", first, 0)
        count = _integer_at_least("count", count, 0)
        stride = _integer_at_least("stride", stride, 1)
        cycle, slot = np.divmod(np.arange(first, first + stride * count, stride), self.telegraphs)
        reach = min(first + stride * (count - 1) + 1 if count else 0, self.telegraphs)
        if reach > self.order.size:
            order = _sorted_prefix(self.offsets, reach)
            order.setflags(write=False)
            object.__setattr__(self, "order", order)
        ids = self.order[slot]
        with np.errstate(over="ignore"):
            times = self.offsets[ids] + self.period * cycle
        # The read is in pooled order, so its last time is its latest.
        if count and not math.isfinite(times[-1]):
            raise ValueError(
                f"emission times overflow the float range; T ({self.period}) "
                f"is too large for this message"
            )
        return times, ids


def ensemble_schedule(n: int, period: float, rng: np.random.Generator) -> EnsembleSchedule:
    """Draw the staggered ensemble: one uniform [0, T) offset per telegraph."""
    n = _telegraph_count("telegraph count", n)
    _check_period("period", period)
    # At a subnormal period a uniform below 1 times the period can round up
    # to the period; such an offset takes the greatest double below it.
    offsets = np.minimum(rng.random(n) * period, np.nextafter(period, 0.0))
    return EnsembleSchedule(offsets=offsets, period=period)


@dataclass(frozen=True)
class TransmissionResult:
    """Full transcript of one message transmission. ``sent``, ``symbol_times``,
    ``log_lr`` and ``fringe_statistic`` are read-only arrays with one entry
    per symbol; the receiver decides interference iff ``log_lr`` > 0. Kept
    hits are read-only (symbols, M) arrays whose row s holds symbol s's pooled
    emissions in order: which telegraph, when, and which screen bin (the
    hit's position is that bin's center). They are None unless kept from a
    non-empty message."""

    sent: np.ndarray
    symbol_times: np.ndarray
    log_lr: np.ndarray
    fringe_statistic: np.ndarray
    hit_telegraph_ids: np.ndarray | None = None
    hit_times: np.ndarray | None = None
    hit_bins: np.ndarray | None = None

    @property
    def received(self) -> np.ndarray:
        """The decoded bits: interference -> 0, no-interference -> 1."""
        return np.where(self.log_lr > 0, 0, 1)

    def symbol_error_rate(self) -> float:
        return float(np.mean(self.received != self.sent)) if self.sent.size else 0.0


def transmit_message(
    bits: np.ndarray | Sequence[int],
    plan: TransmissionPlan,
    mode: ModelMode,
    cfg: DeviceConfig,
    rng: np.random.Generator,
    keep_hits: bool = False,
) -> TransmissionResult:
    """Send ``bits``, a 1-d array of 0s and 1s, through the ensemble; decode each symbol.

    For each symbol every telegraph's detectors are set from the bit
    (on = 1, off = 0), hits are pooled in emission order until M are
    collected, and the LRT decides: interference -> 0, no-interference -> 1.
    The symbol time is the pooled collection time; symbols run back to back
    on one continuous emission timeline, read once, before the block loop:
    each symbol's last emission unless ``keep_hits`` is set, and all M of its
    emissions if it is. The loop only draws and decodes: each symbol is
    sampled from the pattern its setting shows, and under UnitaryQM one
    sampler draws every symbol, a block in one call.
    """
    bits = np.asarray(bits)
    if bits.ndim != 1 or not np.isin(bits, (0, 1)).all():
        raise ValueError("bits must be a 1-d array of 0s and 1s")
    bits = bits.astype(np.int64)
    bits.setflags(write=False)
    # The receiver's model is fixed by cfg: derive it once per message, each
    # screen pattern built once for the LLR table and the samplers alike.
    hypotheses = Hypotheses(cfg, mode)
    if not bits.size:
        empty = np.empty(0)
        empty.setflags(write=False)
        return TransmissionResult(bits, empty, empty, empty)

    m, symbols = plan.M, len(bits)
    schedule = ensemble_schedule(plan.N, plan.T, rng)
    lanes = UniformLanes(child_seeds(rng, symbols), m)
    table = hypotheses.law.table
    phasors = _fringe_phasors(cfg, cfg.bin_centers())
    # One sampler per screen pattern shown.
    on, off = map(hypotheses.pattern, (Detector.ON, Detector.OFF))
    sample_on = _BinSampler(on)
    sample_off = sample_on if off is on else _BinSampler(off)

    # The one read of the emission timeline: symbol s pools emissions
    # [s*m, (s+1)*m) and ends at the last, and its time runs from the
    # previous symbol's end (from 0 for the first). Unless its hits are kept,
    # a message reads only those ends.
    hits = {}
    if keep_hits:
        times, ids = (column.reshape(symbols, m) for column in schedule.emissions_after(0, symbols * m))
        ends = times[:, -1]
        bins = np.empty((symbols, m), dtype=np.intp)
        hits = dict(hit_telegraph_ids=ids, hit_times=times, hit_bins=bins)
    else:
        ends, _ = schedule.emissions_after(m - 1, symbols, stride=m)
    symbol_times = np.diff(ends, prepend=0.0)

    # Blocks of about _BLOCK_HITS hits, at least one symbol each.
    log_lr, fringes = np.empty(symbols), np.empty(symbols)
    per_block = max(1, _BLOCK_HITS // m)
    for start in range(0, symbols, per_block):
        stop = min(start + per_block, symbols)
        u = lanes.take(stop - start)
        if sample_off is sample_on:
            idx = sample_on.indices(u)
        else:
            ones = bits[start:stop] == 1
            idx = np.empty(u.shape, dtype=np.intp)
            idx[ones] = sample_on.indices(u[ones])
            idx[~ones] = sample_off.indices(u[~ones])
        log_lr[start:stop] = table[idx].sum(axis=1)
        fringes[start:stop] = np.abs(phasors[idx].mean(axis=1))
        if keep_hits:
            bins[start:stop] = idx

    for column in (log_lr, fringes, symbol_times, *hits.values()):
        column.setflags(write=False)
    return TransmissionResult(
        sent=bits,
        symbol_times=symbol_times,
        log_lr=log_lr,
        fringe_statistic=fringes,
        **hits,
    )

