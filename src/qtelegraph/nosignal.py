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

The joint state is the 2 x bins amplitude matrix A = [psi_1; psi_2] / sqrt(2)
(the config's ``amplitudes``, scaled): row k is the signal amplitude left by
idler which-path outcome k. Every screen state here lies in the span of those
two rows, so it is held as a 2 x 2 matrix in the coordinates of an
orthonormal basis Q of that span, from the config's one QR factorization
A^T = Q R (``DeviceConfig.span``). Route (a) is then R R^H, route (b) the
mixture of the normalized Q^H a_k weighted by |a_k|^2, the collapse story's
coherent state the normalized Q^H (psi_1 + psi_2) from
``device.superposition``, and a trace distance is a 2 x 2 eigenproblem.
Because Q is an isometry, each is exactly the bins x bins quantity of the
dense ``quantum`` algebra, which the tests use as the reference; no
bins-sized matrix is built here.

Under unitary quantum mechanics all three vanish to float precision; under
the naive collapse model all three are macroscopic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .device import (
    DeviceConfig,
    eraser_conditionals,
    incoherent_distribution,
    superposition,
)
from .protocol import Detector, ModelMode, _shows_coherent, screen_marginal
from .quantum import DensityMatrix, _derived_density, total_variation, trace_distance

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


def reduced_screen_by_partial_trace(cfg: DeviceConfig) -> DensityMatrix:
    """Route (a): trace the idler out of the untouched joint state.

    The reduced state A^T A* is Q (R R^H) Q^H, so in span coordinates it is
    R R^H; Hermitian and positive semidefinite by construction.
    """
    _, triangle = cfg.span
    reduced = triangle @ triangle.conj().T
    # Symmetrized for an exactly Hermitian result; the report bits rely on it.
    return _derived_density(0.5 * (reduced + reduced.conj().T))


def reduced_screen_by_measurement_mixture(cfg: DeviceConfig) -> DensityMatrix:
    """Route (b): which-path-measure the idler, mix the collapsed signal
    states s_k = Q^H a_k / |a_k| with weights |a_k|^2; checked once, in full."""
    basis, _ = cfg.span
    mixture = np.zeros((2, 2), dtype=complex)
    for amplitude in cfg.amplitudes / math.sqrt(2.0):
        norm = float(np.linalg.norm(amplitude))
        signal = basis.conj().T @ amplitude / norm
        mixture += norm**2 * np.outer(signal, signal.conj())
    return DensityMatrix(mixture)


def coherent_screen_state(cfg: DeviceConfig) -> DensityMatrix:
    """The pure superposition the collapse story credits to detectors-off."""
    basis, _ = cfg.span
    summed = basis.conj().T @ superposition(cfg, 1)
    summed /= np.linalg.norm(summed)
    return _derived_density(np.outer(summed, summed.conj()))


def verify_no_signaling(cfg: DeviceConfig, mode: ModelMode) -> NoSignalReport:
    """Compare the receiving end's statistics across the two detector settings."""
    p_on = screen_marginal(cfg, Detector.ON, mode)
    # Detectors-off sees the same pattern unless it is credited with the coherent one.
    off_differs = _shows_coherent(Detector.OFF, mode)
    p_off = screen_marginal(cfg, Detector.OFF, mode) if off_differs else p_on
    tv = total_variation(p_on, p_off)
    mi = jensen_shannon_bits(p_on, p_off)

    if mode is ModelMode.UNITARY_QM:
        reduced_off = reduced_screen_by_partial_trace(cfg)
    else:
        reduced_off = coherent_screen_state(cfg)
    reduced_on = reduced_screen_by_measurement_mixture(cfg)
    td = trace_distance(reduced_off, reduced_on)

    return NoSignalReport(
        mode=mode,
        tv_distance=tv,
        trace_distance_reduced=td,
        mutual_information_bits=mi,
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

