"""Finite-dimensional quantum state algebra over labeled product bases.

States live on an explicit ordered basis of hashable labels; for the
telegraph the labels are ``(pipe, bin)`` pairs, pipe-major. Everything is
dense complex double precision. The no-signaling verifier holds its screen
states as 2 x 2 matrices on the span of the two pipe amplitudes and uses
only ``DensityMatrix``, ``trace_distance`` and ``total_variation`` from
here; the dense joint state, partial trace and Born probabilities are the
bins x bins reference its tests compare against. The tolerance ladder is 1e-12 for composed linear
algebra and 1e-10 for eigenvalue checks. ``DensityMatrix(matrix)`` checks a
matrix in full against it, so an invalid state fails loudly where it enters;
what ``density_from_state`` and ``partial_trace`` derive from checked
operands is Hermitian and positive semidefinite by construction, so only its
trace is re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

ATOL_LINALG = 1e-12
ATOL_EIG = 1e-10


class QuantumStateError(ValueError):
    """Raised when a state, density matrix or measurement is malformed."""


def _frozen_complex_array(values, ndim: int) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if arr.ndim != ndim:
        raise QuantumStateError(f"expected a {ndim}-d complex array, got ndim={arr.ndim}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class StateVector:
    """Pure state: one complex amplitude per (unique) basis label."""

    labels: tuple[Hashable, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        amps = _frozen_complex_array(self.amplitudes, ndim=1)
        object.__setattr__(self, "amplitudes", amps)
        if len(self.labels) != amps.shape[0]:
            raise QuantumStateError(
                f"{len(self.labels)} labels but {amps.shape[0]} amplitudes"
            )
        if len(set(self.labels)) != len(self.labels):
            raise QuantumStateError("basis labels must be unique")

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def normalize(state: StateVector) -> StateVector:
    """Scale ``state`` to unit norm; error on the zero vector."""
    norm = state.norm()
    if norm == 0.0:
        raise QuantumStateError("cannot normalize the zero vector")
    return StateVector(state.labels, state.amplitudes / norm)


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-one, Hermitian, positive-semidefinite matrix (up to tolerance)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = _frozen_complex_array(self.matrix, ndim=2)
        n, m = mat.shape
        if n != m:
            raise QuantumStateError(f"density matrix must be square, got {n}x{m}")
        if not np.allclose(mat, mat.conj().T, atol=ATOL_LINALG, rtol=0.0):
            raise QuantumStateError("density matrix is not Hermitian within 1e-12")
        _set_unit_trace_matrix(self, mat)
        smallest = float(np.linalg.eigvalsh(mat)[0])
        if smallest < -ATOL_EIG:
            raise QuantumStateError(
                f"density matrix has eigenvalue {smallest} below -1e-10"
            )

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


def _set_unit_trace_matrix(rho: DensityMatrix, mat: np.ndarray) -> DensityMatrix:
    trace = np.trace(mat)
    if abs(trace - 1.0) > ATOL_LINALG:
        raise QuantumStateError(f"trace must be 1 within 1e-12, got {trace}")
    object.__setattr__(rho, "matrix", mat)
    return rho


def _derived_density(mat: np.ndarray) -> DensityMatrix:
    """Freeze a matrix built here from checked operands: it is Hermitian and
    positive semidefinite by construction, so only its trace is re-checked."""
    mat.setflags(write=False)
    return _set_unit_trace_matrix(object.__new__(DensityMatrix), mat)


def clamp_probabilities(values: np.ndarray) -> np.ndarray:
    """Zero out numerical-noise negatives and renormalize to unit sum, as a
    read-only array.

    Entries below -1e-10 are genuine errors, not noise, and raise.
    """
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise QuantumStateError("probabilities must be finite")
    smallest = float(arr.min()) if arr.size else 0.0
    if smallest < -ATOL_EIG:
        raise QuantumStateError(f"probability {smallest} below clamp floor {-ATOL_EIG}")
    clipped = np.clip(arr, 0.0, None)
    total = clipped.sum()
    if total <= 0.0:
        raise QuantumStateError("probabilities sum to zero")
    clipped /= total
    clipped.setflags(write=False)
    return clipped


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Half the L1 distance between two probability vectors, the classical
    counterpart of ``trace_distance``."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def density_from_state(state: StateVector) -> DensityMatrix:
    """Rank-1 projector onto a normalized state."""
    if abs(state.norm() - 1.0) > ATOL_LINALG:
        raise QuantumStateError(
            f"state must be normalized within 1e-12, norm={state.norm()}"
        )
    amps = state.amplitudes
    return _derived_density(np.outer(amps, amps.conj()))


def partial_trace(rho: DensityMatrix, dims: tuple[int, int], keep: int) -> DensityMatrix:
    """Reduce a bipartite density matrix to one factor.

    ``dims`` gives the (first, second) factor dimensions of the row-major
    product basis; ``keep`` is 0 or 1.
    """
    d1, d2 = dims
    if d1 * d2 != rho.dimension:
        raise QuantumStateError(
            f"factor structure {d1}x{d2} does not match dimension {rho.dimension}"
        )
    if keep not in (0, 1):
        raise QuantumStateError("keep must be 0 (first factor) or 1 (second factor)")
    blocks = rho.matrix.reshape(d1, d2, d1, d2)
    if keep == 0:
        reduced = np.einsum("ikjk->ij", blocks)
    else:
        reduced = np.einsum("kikj->ij", blocks)
    # Symmetrized for an exactly Hermitian result; the report bits rely on it.
    reduced = 0.5 * (reduced + reduced.conj().T)
    return _derived_density(reduced)


@dataclass(frozen=True)
class MeasurementBasis:
    """Projective measurement given by disjoint label groups on one subsystem.

    ``subsystem`` indexes the component of tuple-valued labels the projectors
    act on (None measures whole labels). Each outcome is ``(name, values)``;
    the groups must be disjoint and, against any state they are applied to,
    jointly cover that subsystem's values.
    """

    outcomes: tuple[tuple[Hashable, frozenset], ...]
    subsystem: int | None = None

    def __post_init__(self) -> None:
        canonical = tuple(
            (name, frozenset(values)) for name, values in self.outcomes
        )
        object.__setattr__(self, "outcomes", canonical)
        if not canonical:
            raise QuantumStateError("measurement needs at least one outcome")
        names = [name for name, _ in canonical]
        if len(set(names)) != len(names):
            raise QuantumStateError("outcome names must be unique")
        seen: set = set()
        for _, values in canonical:
            if seen & values:
                raise QuantumStateError("outcome label groups must be disjoint")
            seen |= values

    def _component(self, label: Hashable) -> Hashable:
        if self.subsystem is None:
            return label
        return label[self.subsystem]

    def outcome_masks(self, state: StateVector) -> dict[Hashable, np.ndarray]:
        """Boolean membership mask per outcome; errors unless masks cover."""
        components = [self._component(label) for label in state.labels]
        masks: dict[Hashable, np.ndarray] = {}
        covered = np.zeros(state.dimension, dtype=bool)
        for name, values in self.outcomes:
            mask = np.array([c in values for c in components], dtype=bool)
            masks[name] = mask
            covered |= mask
        if not covered.all():
            missing = [state.labels[i] for i in np.flatnonzero(~covered)[:3]]
            raise QuantumStateError(
                f"measurement does not cover the basis (e.g. {missing})"
            )
        return masks


def born_probabilities(state: StateVector, basis: MeasurementBasis) -> dict[Hashable, float]:
    """Outcome probabilities |P_k psi|^2 for a normalized state."""
    if abs(state.norm() - 1.0) > ATOL_LINALG:
        raise QuantumStateError("born_probabilities requires a normalized state")
    weights = np.abs(state.amplitudes) ** 2
    return {
        name: float(weights[mask].sum())
        for name, mask in basis.outcome_masks(state).items()
    }


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """Half the sum of |eigenvalues| of (a - b); in [0, 1]."""
    if a.dimension != b.dimension:
        raise QuantumStateError(
            f"dimension mismatch: {a.dimension} vs {b.dimension}"
        )
    eigenvalues = np.linalg.eigvalsh(a.matrix - b.matrix)
    return float(0.5 * np.abs(eigenvalues).sum())
