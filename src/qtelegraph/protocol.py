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
probability by Monte Carlo, and the staggered N-telegraph ensemble schedule
realizes the M*T/N symbol time of the many-telegraph construction. The
ensemble's pooled emission stream repeats every period, so it is addressed by
index: symbol s pools emissions s*M to (s+1)*M - 1, at O(M) cost per symbol
whatever N is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, Sequence

import numpy as np

from .device import (
    DeviceConfig,
    ScreenDistribution,
    _integer_at_least,
    coherent_distribution,
    incoherent_distribution,
)
from .rng import child_seeds

PROBABILITY_FLOOR = 1e-300
INTERFERENCE = "interference"
NO_INTERFERENCE = "no-interference"
# A schedule holds an offset and a slot of its pooled order per telegraph,
# 16 bytes each, so this caps it at 160 MB.
MAX_TELEGRAPHS = 10**7


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
        _check_period("T", self.T)
        object.__setattr__(self, "N", _telegraph_count("N", self.N))


@dataclass(frozen=True)
class SymbolHits:
    """One symbol's screen detections as columns: which telegraph, when,
    where, and (with the detectors on, else None) which pipe the idler was
    found in. Row j of every column is the j-th pooled emission."""

    telegraph_id: np.ndarray
    time: np.ndarray
    x: np.ndarray
    idler: np.ndarray | None = None

    def __post_init__(self) -> None:
        if np.any(self.telegraph_id < 0):
            raise ValueError(f"telegraph_id must be >= 0 (got {self.telegraph_id.min()})")
        if np.any(self.time < 0):
            raise ValueError(f"time must be >= 0 (got {self.time.min()})")


@dataclass(frozen=True)
class DecisionResult:
    """Receiver verdict for one symbol: interference iff ``log_lr`` > 0."""

    log_lr: float
    fringe_statistic: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.fringe_statistic <= 1.0 + 1e-12:
            raise ValueError(f"fringe_statistic out of [0,1]: {self.fringe_statistic}")

    @property
    def decided(self) -> str:
        return INTERFERENCE if self.log_lr > 0 else NO_INTERFERENCE


def screen_marginal(cfg: DeviceConfig, detectors: Detector, mode: ModelMode) -> ScreenDistribution:
    """Screen distribution seen at the receiving end for a detector setting.

    Under UnitaryQM this is the reduced-state diagonal (the incoherent
    pattern) for both settings; under NaiveCollapse the detectors-off setting
    is credited with the coherent pattern.
    """
    if mode is ModelMode.UNITARY_QM:
        return incoherent_distribution(cfg)
    if detectors is Detector.OFF:
        return coherent_distribution(cfg)
    return incoherent_distribution(cfg)


def sample_hits(dist: ScreenDistribution, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` i.i.d. screen positions by inverse CDF over the bins.

    Positions are reported at bin centers.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0 (got {count})")
    indices = _sample_bin_indices(np.cumsum(dist.probabilities), count, rng)
    return dist.bin_centers[indices]


def _sample_bin_indices(cdf: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-CDF bin draws; ``cdf`` is the cumulative sum of the bin probabilities."""
    u = rng.random(count)
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


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
    return floored_log_ratio(
        coherent_distribution(cfg).probabilities,
        incoherent_distribution(cfg).probabilities,
    )


def log_likelihood_ratio(hits: Sequence[float] | np.ndarray, cfg: DeviceConfig) -> float:
    """Sum of per-hit log(p_coherent / p_incoherent) at the hit's bin."""
    xs = np.asarray(hits, dtype=float)
    if xs.size == 0:
        return 0.0
    if xs.min() < -cfg.half_width or xs.max() > cfg.half_width:
        raise ValueError("hits must lie within the screen grid")
    return float(log_ratio_table(cfg)[cfg.bin_index(xs)].sum())


def fringe_statistic(hits: Sequence[float] | np.ndarray, cfg: DeviceConfig) -> float:
    """|mean over hits of exp(2i * kappa * x)|; 0.0 for no hits."""
    xs = np.asarray(hits, dtype=float)
    if xs.size == 0:
        return 0.0
    return float(np.abs(np.exp(2j * cfg.kappa * xs).mean()))


def _decision(llr: float, hits: Sequence[float] | np.ndarray, cfg: DeviceConfig) -> DecisionResult:
    return DecisionResult(log_lr=llr, fringe_statistic=fringe_statistic(hits, cfg))


def decide_bit(hits: Sequence[float] | np.ndarray, cfg: DeviceConfig) -> DecisionResult:
    """LRT verdict: interference iff the log-likelihood ratio is > 0."""
    return _decision(log_likelihood_ratio(hits, cfg), hits, cfg)


@dataclass(frozen=True)
class SampleSizeResult:
    """Planner outcome: the smallest sufficient M, or an explicit failure.

    ``error_interference`` is the Monte Carlo estimate of deciding
    "no-interference" on coherent-pattern data at m_star;
    ``error_no_interference`` the converse error on incoherent-pattern data.
    """

    m_star: int | None
    alpha: float
    trials: int
    error_interference: float | None = None
    error_no_interference: float | None = None
    failure_reason: str | None = None

    @property
    def feasible(self) -> bool:
        return self.m_star is not None


def _mc_error_rates(
    table: np.ndarray,
    p_interference: np.ndarray,
    p_no_interference: np.ndarray,
    m: int,
    trials: int,
    seed_material: tuple[int, int],
) -> tuple[float, float]:
    """Monte Carlo error-rate pair for an M-sample LRT, fixed probe stream."""
    base, m_key = seed_material
    errors = []
    for which, probs in ((0, p_interference), (1, p_no_interference)):
        cdf = np.cumsum(probs)
        rng = np.random.default_rng([base, m_key, which])
        wrong = 0
        remaining = trials
        # Chunked so trials*m never allocates more than ~2^22 doubles.
        chunk = max(1, min(trials, (1 << 22) // max(m, 1)))
        while remaining > 0:
            batch = min(chunk, remaining)
            idx = _sample_bin_indices(cdf, batch * m, rng).reshape(batch, m)
            llr = table[idx].sum(axis=1)
            decided_interference = llr > 0
            if which == 0:
                wrong += int((~decided_interference).sum())
            else:
                wrong += int(decided_interference.sum())
            remaining -= batch
        errors.append(wrong / trials)
    return errors[0], errors[1]


def required_sample_size(
    cfg: DeviceConfig,
    alpha: float,
    rng: np.random.Generator,
    trials: int = 10_000,
    m_cap: int = 1 << 16,
) -> SampleSizeResult:
    """Smallest M whose Monte-Carlo-estimated error rates are both <= alpha.

    Searches by doubling then bisection, with ``trials`` simulated receptions
    per probed M and per hypothesis; each probe uses a fixed stream keyed by
    its M, so re-probing an M inside the bisection is consistent and the whole
    search is reproducible. When the two patterns are (numerically)
    indistinguishable no finite M exists and an explicit failure is returned.
    alpha >= 1/2 needs no data at all: a fair coin achieves it, so M = 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1) (got {alpha})")
    trials = _integer_at_least("trials", trials, 1)
    m_cap = _integer_at_least("m_cap", m_cap, 1)
    if alpha >= 0.5:
        return SampleSizeResult(m_star=0, alpha=alpha, trials=trials)

    p_c = coherent_distribution(cfg).probabilities
    p_i = incoherent_distribution(cfg).probabilities
    tv = 0.5 * float(np.abs(p_c - p_i).sum())
    if tv < 1e-6:
        return SampleSizeResult(
            m_star=None,
            alpha=alpha,
            trials=trials,
            failure_reason=(
                f"coherent and incoherent patterns are indistinguishable "
                f"(total variation {tv:.3e}); no finite M suffices"
            ),
        )

    table = floored_log_ratio(p_c, p_i)
    base = int(child_seeds(rng, 1)[0])
    cache: dict[int, tuple[float, float]] = {}

    def feasible_at(m: int) -> bool:
        if m not in cache:
            cache[m] = _mc_error_rates(table, p_c, p_i, m, trials, (base, m))
        err_c, err_i = cache[m]
        return err_c <= alpha and err_i <= alpha

    hi = 1
    while not feasible_at(hi):
        hi *= 2
        if hi > m_cap:
            return SampleSizeResult(
                m_star=None,
                alpha=alpha,
                trials=trials,
                failure_reason=f"no sufficient M found up to cap {m_cap}",
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
        m_star=hi,
        alpha=alpha,
        trials=trials,
        error_interference=err_c,
        error_no_interference=err_i,
    )


@dataclass(frozen=True)
class EnsembleSchedule:
    """N telegraphs, telegraph i firing at offsets[i] + period*j for j >= 0.

    The pooled stream is periodic: cycle c fires every telegraph once, in
    offset order with ties broken by id, so pooled emission k is telegraph
    ``order[k % N]`` at its offset + period*(k // N). ``order`` is derived
    once per schedule, and a run of pooled emissions costs O(its length),
    whatever N is.
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
        order = np.argsort(offsets, kind="stable")
        offsets.setflags(write=False)
        order.setflags(write=False)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "order", order)

    @property
    def telegraphs(self) -> int:
        return self.offsets.size

    def emissions_after(self, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
        """The ``count`` pooled emissions after the first ``first``, as
        (times, telegraph ids) in pooled order."""
        cycle, slot = np.divmod(np.arange(first, first + count), self.telegraphs)
        ids = self.order[slot]
        return self.offsets[ids] + self.period * cycle, ids


def ensemble_schedule(n: int, period: float, rng: np.random.Generator) -> EnsembleSchedule:
    """Draw the staggered ensemble: one uniform [0, T) offset per telegraph."""
    n = _telegraph_count("telegraph count", n)
    _check_period("period", period)
    return EnsembleSchedule(offsets=rng.random(n) * period, period=period)


def _symbol_windows(
    schedule: EnsembleSchedule, m: int, symbols: int
) -> Iterator[tuple[np.ndarray, np.ndarray, float]]:
    """The one emission timeline: symbol s pools emissions [s*m, (s+1)*m).

    Yields (times, telegraph ids, symbol time) per symbol; a symbol's time
    runs from the previous symbol's last emission (from 0 for the first).
    """
    cycle, slot = divmod(symbols * m - 1, schedule.telegraphs)
    # The message's last emission is its latest; Python floats overflow to
    # inf without numpy's warning.
    last = float(schedule.offsets[schedule.order[slot]]) + schedule.period * cycle
    if not math.isfinite(last):
        raise ValueError(
            f"emission times overflow the float range; T ({schedule.period}) "
            f"is too large for this message"
        )
    clock = 0.0
    for first in range(0, symbols * m, m):
        times, ids = schedule.emissions_after(first, m)
        end = float(times[-1])
        yield times, ids, end - clock
        clock = end


@dataclass(frozen=True)
class TransmissionResult:
    """Full transcript of one message transmission."""

    sent: tuple[int, ...]
    received: tuple[int, ...]
    symbol_times: tuple[float, ...]
    decisions: tuple[DecisionResult, ...]
    hit_counts: tuple[int, ...]
    hits: tuple[SymbolHits, ...] | None = None

    def symbol_error_rate(self) -> float:
        if not self.sent:
            return 0.0
        wrong = sum(1 for s, r in zip(self.sent, self.received) if s != r)
        return wrong / len(self.sent)


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
        return TransmissionResult((), (), (), (), (), () if keep_hits else None)

    schedule = ensemble_schedule(plan.N, plan.T, rng)
    seeds = child_seeds(rng, len(bits))
    # The receiver's model is fixed by cfg: derive it once per message.
    table = log_ratio_table(cfg)
    centers = cfg.bin_centers()
    cdf = {d: np.cumsum(screen_marginal(cfg, d, mode).probabilities) for d in Detector}

    received: list[int] = []
    symbol_times: list[float] = []
    decisions: list[DecisionResult] = []
    all_hits: list[SymbolHits] = []
    windows = _symbol_windows(schedule, plan.M, len(bits))
    for bit, seed, (times, ids, symbol_time) in zip(bits, seeds, windows):
        detectors = Detector.ON if bit == 1 else Detector.OFF
        symbol_rng = np.random.default_rng(int(seed))
        idx = _sample_bin_indices(cdf[detectors], plan.M, symbol_rng)
        xs = centers[idx]
        if detectors is Detector.ON:
            # Both pipes share the envelope, so the screen conditional given
            # the pipe outcome is the same and the idler samples independently.
            idlers = symbol_rng.integers(1, 3, size=plan.M)
        else:
            idlers = None
        decision = _decision(float(table[idx].sum()), xs, cfg)
        received.append(0 if decision.decided == INTERFERENCE else 1)
        decisions.append(decision)
        symbol_times.append(symbol_time)
        if keep_hits:
            all_hits.append(SymbolHits(telegraph_id=ids, time=times, x=xs, idler=idlers))

    return TransmissionResult(
        sent=tuple(bits),
        received=tuple(received),
        symbol_times=tuple(symbol_times),
        decisions=tuple(decisions),
        hit_counts=(plan.M,) * len(bits),
        hits=tuple(all_hits) if keep_hits else None,
    )


def throughput_check(
    plan: TransmissionPlan, rng: np.random.Generator, symbols: int = 32
) -> float:
    """Mean time to pool M hits across the staggered ensemble.

    Timing only; no screen sampling. The contract is agreement with M*T/N
    within 15% for M >= 1000.
    """
    symbols = _integer_at_least("symbols", symbols, 1)
    schedule = ensemble_schedule(plan.N, plan.T, rng)
    return float(np.mean([t for _, _, t in _symbol_windows(schedule, plan.M, symbols)]))
