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

Under unitary quantum mechanics all three vanish to float precision; under
the naive collapse model all three are macroscopic. A Monte Carlo estimator
of the decoded-symbol channel's mutual information is provided separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .device import (
    PIPES,
    DeviceConfig,
    _integer_at_least,
    build_joint_state,
    eraser_conditionals,
    incoherent_distribution,
)
from .protocol import (
    Detector,
    ModelMode,
    TransmissionPlan,
    screen_marginal,
    transmit_message,
)
from .quantum import (
    DensityMatrix,
    StateVector,
    density_from_state,
    normalize,
    partial_trace,
    trace_distance,
    which_subsystem_basis,
)

DEFAULT_DISTANCE_TOLERANCE = 1e-10
DEFAULT_MI_TOLERANCE = 0.01


@dataclass(frozen=True)
class NoSignalReport:
    """Verdict plus the three measures and the thresholds they were held to."""

    mode: ModelMode
    tv_distance: float
    trace_distance_reduced: float
    mutual_information_bits: float
    distance_tolerance: float
    mi_tolerance: float

    def passed(self) -> bool:
        return (
            self.tv_distance < self.distance_tolerance
            and self.trace_distance_reduced < self.distance_tolerance
            and self.mutual_information_bits < self.mi_tolerance
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
            "distance_tolerance": self.distance_tolerance,
            "mi_tolerance": self.mi_tolerance,
            "verdict": self.verdict,
        }

    def to_text(self) -> str:
        lines = [f"{key}: {value}" for key, value in self.to_dict().items()]
        return "\n".join(lines) + "\n"


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance between two probability vectors."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def _entropy_bits(p: np.ndarray) -> float:
    positive = p[p > 0.0]
    return float(-(positive * np.log2(positive)).sum())


def jensen_shannon_bits(p: np.ndarray, q: np.ndarray) -> float:
    """JS divergence in bits; the one-observation channel MI for uniform input."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    mid = 0.5 * (p + q)
    return max(0.0, _entropy_bits(mid) - 0.5 * (_entropy_bits(p) + _entropy_bits(q)))


def _pipe_amplitudes(joint: StateVector) -> dict[int, np.ndarray]:
    """Signal amplitudes per idler which-path outcome, in screen-bin order."""
    masks = which_subsystem_basis(PIPES, 0).outcome_masks(joint)
    return {pipe: joint.amplitudes[mask] for pipe, mask in masks.items()}


def reduced_screen_by_partial_trace(cfg: DeviceConfig) -> DensityMatrix:
    """Route (a): trace the idler out of the untouched joint state."""
    joint = density_from_state(build_joint_state(cfg))
    return partial_trace(joint, dims=(2, cfg.bins), keep=1)


def reduced_screen_by_measurement_mixture(cfg: DeviceConfig) -> DensityMatrix:
    """Route (b): which-path-measure the idler, mix the collapsed signal
    states P_k psi / |P_k psi| with weights |P_k psi|^2; checked once, in full."""
    mixture = np.zeros((cfg.bins, cfg.bins), dtype=complex)
    for amplitudes in _pipe_amplitudes(build_joint_state(cfg)).values():
        norm = np.linalg.norm(amplitudes)
        signal = amplitudes / float(norm)
        mixture += float(norm**2) * np.outer(signal, signal.conj())
    return DensityMatrix(mixture)


def coherent_screen_state(cfg: DeviceConfig) -> DensityMatrix:
    """The pure superposition the collapse story credits to detectors-off."""
    amplitudes = _pipe_amplitudes(build_joint_state(cfg))
    summed = amplitudes[1] + amplitudes[2]
    return density_from_state(normalize(StateVector(tuple(range(cfg.bins)), summed)))


def verify_no_signaling(
    cfg: DeviceConfig,
    mode: ModelMode,
    distance_tolerance: float = DEFAULT_DISTANCE_TOLERANCE,
    mi_tolerance: float = DEFAULT_MI_TOLERANCE,
) -> NoSignalReport:
    """Compare the receiving end's statistics across the two detector settings.

    ``distance_tolerance`` bounds the total variation and trace distances,
    ``mi_tolerance`` (bits) the mutual information; each is set on its own.
    """
    if not distance_tolerance > 0:
        raise ValueError(f"distance_tolerance must be > 0 (got {distance_tolerance})")
    if not mi_tolerance > 0:
        raise ValueError(f"mi_tolerance must be > 0 (got {mi_tolerance})")

    p_off = screen_marginal(cfg, Detector.OFF, mode)
    p_on = screen_marginal(cfg, Detector.ON, mode)
    tv = total_variation(p_on.probabilities, p_off.probabilities)
    mi = jensen_shannon_bits(p_on.probabilities, p_off.probabilities)

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
        distance_tolerance=distance_tolerance,
        mi_tolerance=mi_tolerance,
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
        conditionals.p_plus.probabilities,
        conditionals.p_minus.probabilities,
        incoherent_distribution(cfg).probabilities,
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


def channel_mutual_information(
    mode: ModelMode,
    plan: TransmissionPlan,
    symbols: int,
    cfg: DeviceConfig,
    rng: np.random.Generator,
) -> float:
    """Bits per symbol carried by the telegraph, estimated by simulation.

    Transmits ``symbols`` uniform random bits and returns the plug-in mutual
    information of the (sent, decoded) empirical joint. A single symbol gives
    0 exactly (the one-sample plug-in estimate is degenerate).
    """
    symbols = _integer_at_least("symbols", symbols, 1)
    bits = rng.integers(0, 2, size=symbols)
    result = transmit_message(list(bits), plan, mode, cfg, rng)
    return plugin_mutual_information(result.sent, result.received)
