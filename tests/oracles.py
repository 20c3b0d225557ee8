"""Reference code that only the tests read, kept out of the package."""

import math
from unittest import mock

import numpy as np

from qtelegraph import protocol
from qtelegraph.cli import RunConfig, parse_document, resolve_config


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key/value config document."""
    return resolve_config(parse_document(text))


def divmod_emissions(schedule, first: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Pooled emissions first to first + count - 1 of an ``EnsembleSchedule``,
    as (times, telegraph ids), laid out one divmod per emission over a full
    stable sort of the offsets: emission k is telegraph order[k % N] at its
    offset + period * (k // N)."""
    cycle, slot = np.divmod(np.arange(first, first + count), schedule.telegraphs)
    ids = np.argsort(schedule.offsets, kind="stable")[slot]
    return schedule.offsets[ids] + schedule.period * cycle, ids


class JointErrorLaw(protocol.ErrorLaw):
    """The planner's former probe: both hypotheses' laws at every lattice
    step, the step halved while neither settles the probe."""

    def brackets(self, m: int, step: float):
        """[lo, hi] on each error probability, coherent data first, with the
        table on a lattice of ``step``; None past the lattice budget."""
        offsets, least = self.lattice(m, step)
        if m * int(offsets.max()) + 1 > protocol._LATTICE_BUDGET:
            return None
        below, upto = (max(0, k - m * least + 1) for k in (-(m // 2) - 1, m // 2))
        law, allowance = self.power(self.coherent, offsets, m)
        ends = [(law[:below].sum(), law[:upto].sum(), allowance)]
        del law
        law, allowance = self.power(self.incoherent, offsets, m)
        ends.append((law[upto:].sum(), law[below:].sum(), allowance))
        c, i = ((max(0.0, float(lo) - a), min(1.0, float(hi) + a)) for lo, hi, a in ends)
        return c, i

    def settled(self, m: int, alpha: float):
        """``brackets`` at m from step _COARSE_STEP (doubled until the lattice
        fits the budget), the step halved while a bracket straddles alpha and
        the halved lattice fits."""
        step = protocol._COARSE_STEP
        while (found := self.brackets(m, step)) is None:
            step *= 2.0
        while not (
            all(hi <= alpha for _, hi in found) or any(lo > alpha for lo, _ in found)
        ) and (finer := self.brackets(m, step / 2.0)) is not None:
            found, step = finer, step / 2.0
        return found


def joint_required_sample_size(cfg, alpha: float) -> protocol.SampleSizeResult:
    """``required_sample_size`` with every probe settled by ``JointErrorLaw``."""
    with mock.patch.object(protocol, "ErrorLaw", JointErrorLaw):
        return protocol.required_sample_size(cfg, alpha)


def _log_sum(terms: list[float]) -> float:
    top = max(terms)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(term - top) for term in terms))


def binomial_log_tails(k: int, n: int, p: float) -> tuple[float, float]:
    """(ln P(X <= k), ln P(X >= k)) for X ~ Binomial(n, p), summed in log
    space from ln C(n, j) + j ln p + (n - j) ln(1 - p) (``math.lgamma``), so
    a tail far below the smallest double still compares with a threshold."""
    if not (0 <= k <= n and 0.0 <= p <= 1.0):
        raise ValueError(f"need 0 <= k <= n and p in [0, 1] (got k={k}, n={n}, p={p})")

    def log_pmf(j: int) -> float:
        if (p == 0.0 and j > 0) or (p == 1.0 and j < n):
            return -math.inf
        ways = math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
        return ways + (j * math.log(p) if j else 0.0) + ((n - j) * math.log1p(-p) if j < n else 0.0)

    terms = [log_pmf(j) for j in range(n + 1)]
    return _log_sum(terms[: k + 1]), _log_sum(terms[k:])
