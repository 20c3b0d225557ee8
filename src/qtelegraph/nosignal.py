"""No-signaling verifier: is the receiving end sensitive to the detectors?

Three measures are reported for a given device model:

* total variation distance between the screen distributions under the two
  detector settings;
* trace distance between the reduced screen density matrices, computed by
  two independent routes (partial trace of the untouched joint state vs.
  Born-probability-weighted mixture of post-measurement signal states after
  an idler which-path measurement), so the verdict cannot be a tautology of
  shared code;
* the mutual information of the one-sample detector-setting -> screen-hit
  channel under a uniform setting (the Jensen-Shannon divergence, in bits,
  of the two marginals).

Each setting's screen pattern and reduced screen state, a 2 x 2 matrix on
the span of the pipe amplitudes built in ``device``, come from
``protocol.Hypotheses(cfg, mode)``. So a trace distance is a 2 x 2
eigenproblem; the tests check each against the dense ``quantum`` algebra.

Under unitary quantum mechanics all three vanish to float precision; under
the naive collapse model all three are macroscopic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

# The span states are built in device and read here under their own names.
from .device import (
    DeviceConfig,
    coherent_screen_state,
    eraser_conditionals,
    incoherent_distribution,
    reduced_screen_by_measurement_mixture,
    reduced_screen_by_partial_trace,
)
from .protocol import Detector, Hypotheses, ModelMode
from .quantum import total_variation, trace_distance

# The total variation and trace distances must be below DISTANCE_TOLERANCE,
# the mutual information below MI_TOLERANCE bits.
DISTANCE_TOLERANCE = 1e-10
MI_TOLERANCE = 0.01


@dataclass(frozen=True)
class NoSignalReport:
    """Verdict plus the three measures; the report states the thresholds."""

    mode: ModelMode
    tv_distance: float
    trace_distance_reduced: float
    mutual_information_bits: float

    def passed(self) -> bool:
        return (
            self.tv_distance < DISTANCE_TOLERANCE
            and self.trace_distance_reduced < DISTANCE_TOLERANCE
            and self.mutual_information_bits < MI_TOLERANCE
        )

    @property
    def verdict(self) -> str:
        return "pass" if self.passed() else "fail"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.value,
            "tv_distance": self.tv_distance,
            "trace_distance_reduced": self.trace_distance_reduced,
            "mutual_information_bits": self.mutual_information_bits,
            "distance_tolerance": DISTANCE_TOLERANCE,
            "mi_tolerance": MI_TOLERANCE,
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [f"{key}: {value}" for key, value in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def _entropy_bits(p: np.ndarray) -> float:
    positive = p[p > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def jensen_shannon_bits(p: np.ndarray, q: np.ndarray) -> float:
    """JS divergence in bits; the one-observation channel MI for uniform input."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mid = 0.5 * (p + q)
    return max(0.0, _entropy_bits(mid) - 0.5 * (_entropy_bits(p) + _entropy_bits(q)))


def verify_no_signaling(cfg: DeviceConfig, mode: ModelMode) -> NoSignalReport:
    """Compare the receiving end's statistics across the two detector settings."""
    hypotheses = Hypotheses(cfg, mode)
    p_off, p_on = map(hypotheses.pattern, (Detector.OFF, Detector.ON))
    reduced_off, reduced_on = map(hypotheses.state, (Detector.OFF, Detector.ON))
    return NoSignalReport(
        mode=mode,
        tv_distance=total_variation(p_on, p_off),
        trace_distance_reduced=trace_distance(reduced_off, reduced_on),
        mutual_information_bits=jensen_shannon_bits(p_on, p_off),
    )


def mixture_residual(
    p_plus: np.ndarray, p_minus: np.ndarray, p_reference: np.ndarray
) -> float:
    """Max-norm of (p_plus + p_minus)/2 - p_reference."""
    avg = 0.5 * (np.asarray(p_plus, dtype=float) + np.asarray(p_minus, dtype=float))
    return float(np.abs(avg - np.asarray(p_reference, dtype=float)).max())


def eraser_decomposition_check(cfg: DeviceConfig) -> float:
    """How far the eraser conditionals are from averaging to the incoherent
    pattern; the completeness of the eraser basis makes this < 1e-12."""
    conditionals = eraser_conditionals(cfg)
    return mixture_residual(
        conditionals.p_plus, conditionals.p_minus, incoherent_distribution(cfg)
    )


def plugin_mutual_information(
    xs: Sequence[Hashable], ys: Sequence[Hashable]
) -> float:
    """Plug-in mutual information (bits) of an empirical joint distribution."""
    if len(xs) != len(ys):
        raise ValueError("sequences must have equal length")
    total = len(xs)
    if total == 0:
        raise ValueError("need at least one sample")
    joint: dict[tuple[Hashable, Hashable], int] = {}
    left: dict[Hashable, int] = {}
    right: dict[Hashable, int] = {}
    for x, y in zip(xs, ys):
        joint[(x, y)] = joint.get((x, y), 0) + 1
        left[x] = left.get(x, 0) + 1
        right[y] = right.get(y, 0) + 1
    info = 0.0
    for (x, y), count in joint.items():
        p_xy = count / total
        info += p_xy * np.log2(p_xy * total * total / (left[x] * right[y]))
    return max(0.0, float(info))

