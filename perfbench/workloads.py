"""The benchmark's workloads: generated inputs, command lists and checks.

A workload is a closed loop of ``qtelegraph`` CLI commands issued back to
back by one process. One *pass* is the workload's command list once. Every
pass draws fresh inputs (program seed, bit string, device phase, paradox
geometry) from ``(workload, seed, pass index)``, so the program never sees the
same request twice in a run and cannot answer a later pass from a cache
filled by an earlier one, as it could not across separate CLI invocations.

Each pass is a generator of :class:`Command` objects. The caller runs a
command, then resumes the generator, which may read that command's reports
(``telegraph`` reads the planned M* before transmitting). Each command's
``check`` reads its reports and returns the problems found; an empty list
means the output is correct.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

# Screen grid of the CLI defaults: kappa = pi, envelope_width = 2, x_max = 5.
HALF_WIDTH = 5.0 * 2.0
DEFAULT_BINS = 256
DISTANCE_TOLERANCE = 1e-10
SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Size:
    """Problem sizes of one pass."""

    alpha: float
    bits: int
    nosignal_bins: tuple[int, ...]
    simulate_M: int
    bulk_symbols: int
    bulk_M: int
    bulk_N: int
    distribution_bins: int


# Every command takes under about 1.2 s on a 2-core machine, so a run holds
# many passes: the machines this runs on slow down for seconds at a time, and
# the median of many short commands rejects those spells where a few long
# ones cannot.
FULL = Size(
    alpha=0.01,
    bits=2_000,
    nosignal_bins=(256, 384, 512),
    simulate_M=100_000,
    bulk_symbols=64,
    bulk_M=10_000,
    bulk_N=100,
    distribution_bins=4096,
)
# Warm-up before timing and the smoke tests: every command of the full pass,
# at sizes that run in well under a second.
TINY = Size(
    alpha=0.1,
    bits=400,
    nosignal_bins=(32, 64),
    simulate_M=2_000,
    bulk_symbols=8,
    bulk_M=1_000,
    bulk_N=10,
    distribution_bins=64,
)

Check = Callable[[Path, int], "list[str]"]


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass.

    ``label`` names the command's output directory and its timings.
    ``symbols`` counts the symbols it decodes and ``hits`` the hits.csv rows
    it writes, for the throughput figures; ``metric`` names a headline time
    the command alone defines.
    """

    label: str
    argv: tuple[str, ...]
    check: Check
    symbols: int = 0
    hits: int = 0
    metric: str | None = None


def pass_rng(workload: str, seed: int, index: int | str) -> random.Random:
    """The input generator of one pass; the same arguments give the same inputs."""
    return random.Random(f"{workload}:{seed}:{index}")


def _load_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(line for line in handle if not line.startswith("#")))


def _guarded(label: str, expected_exit: int, body: Callable[[Path], list[str]]) -> Check:
    """A check that first requires the exit code, then runs ``body`` on the reports."""

    def check(out: Path, code: int) -> list[str]:
        if code != expected_exit:
            return [f"{label}: exit {code}, expected {expected_exit}"]
        try:
            return body(out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"{label}: unreadable report: {exc!r}"]

    return check


# --- telegraph ------------------------------------------------------------


def _check_plan(out: Path) -> list[str]:
    doc = _load_json(out / "plan.json")
    m_star = doc["m_star"]
    if doc["feasible"] is not True or not isinstance(m_star, int) or m_star < 1:
        return [f"plan: infeasible or invalid m_star {m_star!r}"]
    return []


def _check_transmit_telegraph(
    label: str, bits: str, M: int, mode: str, alpha: float
) -> Callable[[Path], list[str]]:
    def body(out: Path) -> list[str]:
        problems = []
        transcript = _load_json(out / "transcript.json")
        sent = transcript["sent"]
        if "".join(str(b) for b in sent) != bits or len(transcript["received"]) != len(bits):
            problems.append(f"{label}: transcript does not carry the {len(bits)} sent bits")
        counts = transcript["hit_counts"]
        if len(counts) != len(bits) or any(c != M for c in counts):
            problems.append(f"{label}: a hit_counts entry differs from M={M}")
        ser = _load_json(out / "summary.json")["symbol_error_rate"]
        if mode == "NaiveCollapse" and not ser <= 2 * alpha:
            problems.append(f"{label}: SER {ser} above {2 * alpha} at the planned M*")
        # Under unitary QM the decoded bits are coin flips; the window is
        # 0.05, widened to 4.5 binomial standard deviations for short messages.
        tolerance = max(0.05, 2.25 / math.sqrt(len(bits)))
        if mode == "UnitaryQM" and not abs((1.0 - ser) - 0.5) <= tolerance:
            problems.append(f"{label}: accuracy {1.0 - ser} outside 0.5 +- {tolerance}")
        return problems

    return body


def telegraph(seed: int, index: int | str, size: Size, out: Path) -> Iterator[Command]:
    """Plan M* at alpha, then send one random message under both models.

    Many tiny symbols: the per-symbol fixed cost in ``protocol`` and
    ``device`` dominates, and the dense ``quantum`` algebra is never used.
    """
    rng = pass_rng("telegraph", seed, index)
    program_seed = str(rng.randrange(2**31))
    bits = "".join(rng.choice("01") for _ in range(size.bits))
    alpha = size.alpha
    yield Command(
        "plan",
        ("plan", "--alpha", repr(alpha), "--seed", program_seed),
        _guarded("plan", 0, _check_plan),
        metric="plan_s",
    )
    try:
        m_star = int(_load_json(out / "plan" / "plan.json")["m_star"])
    except (OSError, ValueError, KeyError, TypeError):
        return  # the plan check has already failed; nothing to transmit
    for mode, label in (("NaiveCollapse", "transmit-naive"), ("UnitaryQM", "transmit-unitary")):
        yield Command(
            label,
            ("transmit", "--mode", mode, "--bits", bits, "--M", str(m_star), "--N", "1",
             "--seed", program_seed),
            _guarded(label, 0, _check_transmit_telegraph(label, bits, m_star, mode, alpha)),
            symbols=len(bits),
        )


# --- nosignal -------------------------------------------------------------


def _check_nosignal_pass(label: str) -> Callable[[Path], list[str]]:
    def body(out: Path) -> list[str]:
        report = _load_json(out / "nosignal.json")["report"]
        tv, td = report["tv_distance"], report["trace_distance_reduced"]
        if not (tv < DISTANCE_TOLERANCE and td < DISTANCE_TOLERANCE):
            return [f"{label}: TV {tv} or trace distance {td} not below {DISTANCE_TOLERANCE}"]
        return []

    return body


def nosignal(seed: int, index: int | str, size: Size, out: Path) -> Iterator[Command]:
    """The no-signaling verdict under both models at growing screen sizes.

    O(bins^3) dense work in ``quantum`` and ``nosignal`` dominates, while
    ``protocol`` does only O(bins) work. The device phase is drawn per pass.
    """
    rng = pass_rng("nosignal", seed, index)
    phase = repr(rng.uniform(0.0, 2.0 * math.pi))
    for bins in size.nosignal_bins:
        for mode, expected in (("UnitaryQM", 0), ("NaiveCollapse", 1)):
            label = f"nosignal-{mode}-{bins}"
            body = _check_nosignal_pass(label) if mode == "UnitaryQM" else (lambda out: [])
            yield Command(
                label,
                ("nosignal-check", "--mode", mode, "--bins", str(bins), "--relative-phase", phase),
                _guarded(label, expected, body),
                metric=f"nosignal_{bins}_s" if mode == "UnitaryQM" else None,
            )


# --- bulk -----------------------------------------------------------------


def _check_hits(label: str, M: int) -> Callable[[Path], list[str]]:
    bin_width = 2.0 * HALF_WIDTH / DEFAULT_BINS

    def body(out: Path) -> list[str]:
        problems = []
        rows = _csv_rows(out / "hits.csv")
        if rows[0][:3] != ["telegraph_id", "time", "x"]:
            problems.append(f"{label}: unexpected hits.csv header {rows[0]}")
        body_rows = rows[1:]
        if len(body_rows) != M:
            problems.append(f"{label}: {len(body_rows)} hits, expected M={M}")
        times = [float(row[1]) for row in body_rows]
        if any(later <= earlier for earlier, later in zip(times, times[1:])):
            problems.append(f"{label}: hit times are not increasing")
        for row in body_rows:
            x = float(row[2])
            j = round((x + HALF_WIDTH) / bin_width - 0.5)
            if not (0 <= j < DEFAULT_BINS and abs(x - (-HALF_WIDTH + (j + 0.5) * bin_width)) <= 1e-9):
                problems.append(f"{label}: hit x={x} is not a bin center")
                break
        if _load_json(out / "decision.json")["hit_count"] != M:
            problems.append(f"{label}: decision.json hit_count differs from M={M}")
        return problems

    return body


def _check_ensemble(label: str, symbols: int, M: int, N: int) -> Callable[[Path], list[str]]:
    def body(out: Path) -> list[str]:
        problems = []
        counts = _load_json(out / "transcript.json")["hit_counts"]
        if len(counts) != symbols or any(c != M for c in counts):
            problems.append(f"{label}: hit_counts differ from {symbols} x M={M}")
        mean_time = _load_json(out / "summary.json")["mean_symbol_time"]
        expected = M * 1.0 / N
        if not abs(mean_time - expected) <= 0.15 * expected:
            problems.append(f"{label}: mean symbol time {mean_time} not within 15% of M*T/N={expected}")
        return problems

    return body


def _check_distributions(label: str, bins: int) -> Callable[[Path], list[str]]:
    def body(out: Path) -> list[str]:
        rows = _csv_rows(out / "distributions.csv")
        header, body_rows = rows[0], rows[1:]
        if len(body_rows) != bins:
            return [f"{label}: {len(body_rows)} rows, expected {bins}"]
        problems = []
        for column in range(1, len(header)):
            total = math.fsum(float(row[column]) for row in body_rows)
            if not abs(total - 1.0) <= SUM_TOLERANCE:
                problems.append(f"{label}: column {header[column]} sums to {total!r}")
        return problems

    return body


def _check_paradox(label: str, v: float, separation: float) -> Callable[[Path], list[str]]:
    def body(out: Path) -> list[str]:
        advance = _load_json(out / "paradox.json")["trace"]["loop_advance"]
        if not abs(advance - 2.0 * v * separation) <= SUM_TOLERANCE:
            return [f"{label}: loop_advance {advance!r} differs from 2vX={2.0 * v * separation!r}"]
        return []

    return body


def bulk(seed: int, index: int | str, size: Size, out: Path) -> Iterator[Command]:
    """Large single-symbol hit streams, a staggered ensemble, the writers.

    Per-hit cost and the report writers dominate; per-symbol cost is
    negligible, so a per-symbol saving shows on ``telegraph`` and not here.
    """
    rng = pass_rng("bulk", seed, index)
    program_seed = str(rng.randrange(2**31))
    M = size.simulate_M
    for detectors in ("on", "off"):
        label = f"simulate-{detectors}"
        yield Command(
            label,
            ("simulate", "--detectors", detectors, "--M", str(M), "--seed", program_seed),
            _guarded(label, 0, _check_hits(label, M)),
            hits=M,
        )
    symbols, bulk_M, N = size.bulk_symbols, size.bulk_M, size.bulk_N
    yield Command(
        "transmit-ensemble",
        ("transmit", "--symbols", str(symbols), "--M", str(bulk_M), "--N", str(N),
         "--seed", program_seed),
        _guarded("transmit-ensemble", 0, _check_ensemble("transmit-ensemble", symbols, bulk_M, N)),
        symbols=symbols,
    )
    bins = size.distribution_bins
    yield Command(
        "distributions",
        ("distributions", "--bins", str(bins), "--relative-phase",
         repr(rng.uniform(0.0, 2.0 * math.pi))),
        _guarded("distributions", 0, _check_distributions("distributions", bins)),
    )
    v, separation = rng.uniform(0.1, 0.9), rng.uniform(0.5, 2.0)
    yield Command(
        "paradox",
        ("paradox", "--v", repr(v), "--separation", repr(separation)),
        _guarded("paradox", 0, _check_paradox("paradox", v, separation)),
    )


WORKLOADS = {"telegraph": telegraph, "nosignal": nosignal, "bulk": bulk}
