"""Reference code that only the tests read, kept out of the package, and the
names more than one test module shares, so no test module imports another."""

import ast
import csv
import functools
import io
import math
from pathlib import Path
from unittest import mock

import numpy as np

from qtelegraph import protocol
from qtelegraph.cli import RunConfig, parse_document, resolve_config
from qtelegraph.rng import stream

# The planner's M* at the defaults (alpha = 0.01), certified by its error
# brackets: at M = 26 the incoherent-data error is at least 0.0108, at 27
# both are at most 0.0097.
PINNED_M_STAR = 27


@functools.cache
def source_trees() -> dict[str, ast.Module]:
    """Module file -> syntax tree of each of the package's sources, parsed
    on first call and never imported."""
    sources = sorted((Path(__file__).resolve().parents[1] / "src" / "qtelegraph").glob("*.py"))
    return {path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in sources}


def top_level_definitions():
    """(module file, name, defining node) per top-level definition."""
    for module, tree in source_trees().items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                yield module, name, node


def loads_outside(name, node):
    """Every load of ``name`` in src/ outside its defining node."""
    own = {id(inner) for inner in ast.walk(node)}
    return [
        inner
        for tree in source_trees().values()
        for inner in ast.walk(tree)
        if id(inner) not in own
        and isinstance(inner, ast.Name)
        and inner.id == name
        and isinstance(inner.ctx, ast.Load)
    ]


def reference_csv(comment_lines, rows) -> bytes:
    """What the writers wrote before: '# ' lines, then csv.writer rows."""
    buffer = io.StringIO(newline="")
    buffer.writelines(f"# {line}\n" for line in comment_lines)
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


def reference_hits_csv(cfg) -> bytes:
    """``simulate``'s hits.csv for a resolved ``RunConfig``, through csv.writer."""
    bit = 1 if cfg.detectors.value == "on" else 0
    result = protocol.transmit_message(
        [bit], cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "simulate"), keep_hits=True
    )
    rows = [["telegraph_id", "time", "x"]] + [
        [int(i), repr(float(t)), repr(float(x))]
        for i, t, x in zip(
            result.hit_telegraph_ids[0], result.hit_times[0], cfg.device.bin_centers()[result.hit_bins[0]]
        )
    ]
    comments = [f"{key}: {value}" for key, value in sorted(cfg.resolved().items())]
    return reference_csv(comments, rows)


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
