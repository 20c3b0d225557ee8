"""Two-pipe interference device: geometry, joint state, screen distributions.

The photon reaching the screen from pipe k carries a far-field two-source
amplitude with a shared Gaussian envelope,

    psi_k(x) = exp(-x^2 / (4 w^2)) * exp(i * s_k * kappa * x + i * delta_k),

with s_1 = +1, s_2 = -1, delta_1 = 0 and delta_2 = relative_phase. The screen
is a finite grid of ``bins`` cells spanning [-x_max*w, +x_max*w]; amplitudes
are sampled at bin centers and renormalized, once per config, into the
read-only 2 x bins array ``DeviceConfig.amplitudes``. Everything downstream
(the entangled joint state, the coherent/incoherent/eraser-conditioned screen
patterns, each a read-only probability array over the bins, the span
``DeviceConfig.span``, also factored once per config, and the reduced screen
states, 2 x 2 matrices on it that equal their bins x bins counterparts) is an
exact finite-dimensional computation from those two rows; which state each
detector setting leaves is ``protocol.Hypotheses``'s to decide. Every
superposed amplitude psi_1 ± psi_2 comes from ``superposition``, which
refuses one that cancels to rounding noise.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .quantum import (
    ATOL_LINALG,
    DensityMatrix,
    QuantumStateError,
    StateVector,
    _derived_density,
    clamp_probabilities,
)
from .report import write_csv

PIPES = (1, 2)
# nosignal-check, the command that holds the most per bin, peaks at about 240 B
# per bin (measured at 2^20 bins), so this many bins take about 0.5 GB.
MAX_BINS = 1 << 21


def _integer_at_least(name: str, value, minimum: int) -> int:
    """``value`` as a plain int if it is an integer (numpy's too, but not a
    bool) of at least ``minimum``; otherwise a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum} (got {value})")
    return int(value)


@dataclass(frozen=True)
class DeviceConfig:
    """Dimensionless two-pipe interference geometry.

    kappa: fringe wavenumber (radians per screen-position unit), > 0 and finite.
    envelope_width: Gaussian envelope width w, > 0.
    x_max: half-width of the screen grid in units of w, > 0.
    bins: number of screen bins, in [2, MAX_BINS].
    relative_phase: extra phase on pipe 2, radians, finite.
    """

    kappa: float = math.pi
    envelope_width: float = 2.0
    x_max: float = 5.0
    bins: int = 256
    relative_phase: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be > 0 and finite (got {self.kappa})")
        if not math.isfinite(self.relative_phase):
            raise ValueError(f"relative_phase must be finite (got {self.relative_phase})")
        if not self.envelope_width > 0:
            raise ValueError(f"envelope_width must be > 0 (got {self.envelope_width})")
        if not self.x_max > 0:
            raise ValueError(f"x_max must be > 0 (got {self.x_max})")
        object.__setattr__(self, "bins", _integer_at_least("bins", self.bins, 2))
        if self.bins > MAX_BINS:
            raise ValueError(f"bins must be <= {MAX_BINS} (got {self.bins})")
        if not 0.0 < self.bin_width < math.inf:
            raise ValueError(
                f"x_max * envelope_width = {self.half_width} gives no finite, "
                f"non-empty screen grid (bin width {self.bin_width})"
            )

    @property
    def half_width(self) -> float:
        """Screen half-width in position units."""
        return self.x_max * self.envelope_width

    @property
    def bin_width(self) -> float:
        return 2.0 * self.half_width / self.bins

    def bin_centers(self) -> np.ndarray:
        j = np.arange(self.bins)
        return -self.half_width + (j + 0.5) * self.bin_width

    def bin_index(self, x: np.ndarray | float) -> np.ndarray:
        """Nearest-bin index for positions inside the grid."""
        idx = np.floor((np.asarray(x, dtype=float) + self.half_width) / self.bin_width)
        return np.clip(idx.astype(int), 0, self.bins - 1)

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The read-only 2 x bins array [psi_1; psi_2] of unit-norm pipe
        amplitudes on the bin grid, evaluated once per config."""
        xs = self.bin_centers()
        signs = np.array([[1.0], [-1.0]])
        deltas = np.array([[0.0], [self.relative_phase]])
        # Squared as a numpy float, the envelope width overflows to inf instead
        # of raising (it rounds as float ** 2 does); a square that underflows
        # gives 0/0 or x/0. The NaN or zero norm either leaves is rejected
        # below by name, not warned about.
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            width_squared = np.float64(self.envelope_width) ** 2
            envelope = np.exp(-(xs**2) / (4.0 * width_squared))
            rows = envelope * np.exp(1j * (signs * self.kappa * xs + deltas))
            # |psi_1| = |psi_2| pointwise, so one norm serves both.
            norm = np.linalg.norm(rows[0])
        if not 0.0 < norm < math.inf:
            raise QuantumStateError(
                f"screen amplitudes vanish or are not finite for envelope_width="
                f"{self.envelope_width}, x_max={self.x_max}, kappa={self.kappa}"
            )
        rows /= norm
        rows.setflags(write=False)
        return rows

    @functools.cached_property
    def span(self) -> tuple[np.ndarray, np.ndarray]:
        """The read-only QR factors (Q, R) of A^T, factored once per config.

        A = amplitudes / sqrt(2) is the 2 x bins joint amplitude matrix and
        A^T = Q R, with Q (bins x 2) an orthonormal basis of the span of the
        pipe amplitudes and R upper triangular (2 x 2). A screen state held
        as the 2 x 2 matrix rho is the bins x bins matrix Q rho Q^H.
        """
        basis, triangle = np.linalg.qr((self.amplitudes / math.sqrt(2.0)).T)
        # Orthonormality makes every 2 x 2 check and distance on the span
        # equal to its bins x bins counterpart; it is proved once, not assumed.
        residual = float(np.linalg.norm(basis.conj().T @ basis - np.eye(2)))
        if not residual <= ATOL_LINALG:
            raise QuantumStateError(f"span basis is not orthonormal within 1e-12 ({residual})")
        basis.setflags(write=False)
        triangle.setflags(write=False)
        return basis, triangle


def superposition(cfg: DeviceConfig, sign: int) -> np.ndarray:
    """psi_1 + sign * psi_2 for sign +1 or -1: the screen amplitude of the
    interfering pipes, and twice what the idler outcome (|1> ± |2>)/sqrt(2)
    leaves on the screen.

    Where 2 * kappa * bin_width is a multiple of 2 pi, psi_2 is psi_1 times
    one phase on every bin, and at the phases that make it -psi_1 or +psi_1
    the sum or the difference is rounding noise. Normalizing that noise would
    give a confident but meaningless pattern, so it is refused by name.
    """
    psi1, psi2 = cfg.amplitudes
    summed = psi1 + sign * psi2
    weight = float((np.abs(summed) ** 2).sum())
    if not weight > ATOL_LINALG:
        raise QuantumStateError(
            f"psi_1 {'+' if sign > 0 else '-'} psi_2 cancels on the screen grid "
            f"(squared norm {weight:.3g}) for kappa={cfg.kappa}, "
            f"relative_phase={cfg.relative_phase}, bins={cfg.bins}"
        )
    return summed


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


def build_joint_state(cfg: DeviceConfig) -> StateVector:
    """Entangled pair state (|1>|psi_1> + |2>|psi_2>) / sqrt(2) on the grid,
    over the pipe-major (pipe, bin) product basis."""
    amplitudes = cfg.amplitudes.ravel() / math.sqrt(2.0)
    labels = tuple((pipe, j) for pipe in PIPES for j in range(cfg.bins))
    return StateVector(labels, amplitudes)


def coherent_distribution(cfg: DeviceConfig) -> np.ndarray:
    """Screen statistics with the pipes interfering: p proportional to |psi_1 + psi_2|^2."""
    return clamp_probabilities(np.abs(superposition(cfg, 1)) ** 2)


def incoherent_distribution(cfg: DeviceConfig) -> np.ndarray:
    """Which-path-marked screen statistics: p proportional to (|psi_1|^2 + |psi_2|^2) / 2.

    Equals the diagonal of the reduced screen density matrix of the joint state.
    """
    psi1, psi2 = cfg.amplitudes
    return clamp_probabilities(0.5 * (np.abs(psi1) ** 2 + np.abs(psi2) ** 2))


@dataclass(frozen=True)
class EraserConditionals:
    """Screen statistics conditioned on measuring the idler in (|1> ± |2>)/sqrt(2):
    the read-only pattern per outcome and the outcome's probability."""

    p_plus: np.ndarray
    p_minus: np.ndarray
    prob_plus: float
    prob_minus: float


def eraser_conditionals(cfg: DeviceConfig) -> EraserConditionals:
    """Conditional screen distributions after the eraser-basis idler measurement.

    Projecting the idler on (|1> ± |2>)/sqrt(2) leaves the unnormalized signal
    amplitude (psi_1 ± psi_2)/2; the outcome probability is its squared norm.
    The plus outcome's pattern is the coherent one, the same array.
    """
    plus = 0.5 * superposition(cfg, 1)
    minus = 0.5 * superposition(cfg, -1)
    return EraserConditionals(
        p_plus=coherent_distribution(cfg),
        p_minus=clamp_probabilities(np.abs(minus) ** 2),
        prob_plus=float(np.linalg.norm(plus) ** 2),
        prob_minus=float(np.linalg.norm(minus) ** 2),
    )


def write_distributions_csv(
    cfg: DeviceConfig, path: str | Path, header_comments: Iterable[str] = ()
) -> None:
    """Write the four reference screen distributions as CSV.

    Columns: x, p_coherent, p_incoherent, p_plus, p_minus. Lines from
    ``header_comments`` are emitted first, prefixed with '# '; one holding
    a line break is refused, as ``report.write_csv`` refuses it.
    """
    eraser = eraser_conditionals(cfg)
    coherent, incoherent = eraser.p_plus, incoherent_distribution(cfg)
    columns = (cfg.bin_centers(), coherent, incoherent, coherent, eraser.p_minus)
    write_csv(path, header_comments, ("x", "p_coherent", "p_incoherent", "p_plus", "p_minus"), columns)
