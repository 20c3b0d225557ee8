"""Tests for the finite-dimensional state algebra."""

import numpy as np
import pytest

from qtelegraph.quantum import (
    DensityMatrix,
    MeasurementBasis,
    QuantumStateError,
    StateVector,
    born_probabilities,
    clamp_probabilities,
    density_from_state,
    normalize,
    partial_trace,
    trace_distance,
)


def plain_state(*amplitudes):
    amps = np.array(amplitudes, dtype=complex)
    return StateVector(tuple(range(amps.size)), amps)


def random_state(rng, dim):
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return normalize(StateVector(tuple(range(dim)), amps))


def random_density(rng, dim):
    """Random mixed state via an eigenbasis-free Wishart-style construction."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return DensityMatrix(rho / np.trace(rho))


def kron_state(v, w):
    labels = tuple((a, b) for a in v.labels for b in w.labels)
    return StateVector(labels, np.kron(v.amplitudes, w.amplitudes))


class TestStateVector:
    def test_duplicate_labels_rejected(self):
        with pytest.raises(QuantumStateError, match="unique"):
            StateVector(("a", "a"), [1.0, 0.0])

    def test_label_count_must_match(self):
        with pytest.raises(QuantumStateError):
            StateVector(("a", "b", "c"), [1.0, 0.0])


class TestNormalize:
    def test_unit_vector_unchanged(self):
        v = plain_state(1 / np.sqrt(2), 1j / np.sqrt(2))
        out = normalize(v)
        assert np.allclose(out.amplitudes, v.amplitudes, atol=1e-15, rtol=0)

    def test_scaling(self):
        out = normalize(plain_state(2.0, 0.0))
        assert np.allclose(out.amplitudes, [1.0, 0.0], atol=1e-15, rtol=0)

    def test_zero_vector_errors(self):
        with pytest.raises(QuantumStateError, match="zero"):
            normalize(plain_state(0.0, 0.0))

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            v = plain_state(*(rng.normal(size=5) + 1j * rng.normal(size=5)))
            once = normalize(v)
            twice = normalize(once)
            assert np.allclose(once.amplitudes, twice.amplitudes, atol=1e-15, rtol=0)


class TestDensityFromState:
    def test_basis_state_projector(self):
        rho = density_from_state(plain_state(1.0, 0.0))
        assert np.allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-15, rtol=0)

    def test_equal_superposition(self):
        rho = density_from_state(plain_state(1 / np.sqrt(2), 1 / np.sqrt(2)))
        assert np.allclose(rho.matrix, 0.25 * np.full((2, 2), 2.0), atol=1e-15, rtol=0)

    def test_trace_one_for_random_states(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = density_from_state(random_state(rng, 6))
            assert abs(np.trace(rho.matrix) - 1.0) < 1e-12

    def test_unnormalized_input_errors(self):
        with pytest.raises(QuantumStateError, match="normalized"):
            density_from_state(plain_state(1.0, 1.0))


class TestDensityMatrixInvariants:
    def test_non_hermitian_rejected(self):
        with pytest.raises(QuantumStateError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_wrong_trace_rejected(self):
        with pytest.raises(QuantumStateError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(QuantumStateError, match="eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))


class TestClampProbabilities:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, bad):
        with pytest.raises(QuantumStateError, match="finite"):
            clamp_probabilities(np.array([0.5, bad]))

    @pytest.mark.parametrize("probs", [[np.nan] * 3, [0.5, np.nan, 0.5]])
    def test_nan_rejected(self, probs):
        with pytest.raises(QuantumStateError, match="must be finite"):
            clamp_probabilities(np.array(probs))

    def test_negative_below_clamp_floor_rejected(self):
        with pytest.raises(QuantumStateError, match="below clamp floor"):
            clamp_probabilities(np.array([1.5, -0.5]))

    @pytest.mark.parametrize("probs", [[0.0, 0.0], [-1e-12, 0.0], []])
    def test_zero_total_rejected(self, probs):
        with pytest.raises(QuantumStateError, match="sum to zero"):
            clamp_probabilities(np.array(probs))

    def test_noise_clipped_and_total_renormalized(self):
        clamped = clamp_probabilities(np.array([0.25, -1e-12, 0.25]))
        assert clamped.tolist() == [0.5, 0.0, 0.5]


class TestPartialTrace:
    def test_bell_pair_reduces_to_maximally_mixed(self):
        bell = StateVector(
            ((0, 0), (0, 1), (1, 0), (1, 1)),
            np.array([1, 0, 0, 1]) / np.sqrt(2),
        )
        rho = density_from_state(bell)
        for keep in (0, 1):
            reduced = partial_trace(rho, (2, 2), keep=keep)
            assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-15, rtol=0)

    def test_product_state_law(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = random_state(rng, 3)
            w = random_state(rng, 4)
            joint = density_from_state(kron_state(v, w))
            reduced = partial_trace(joint, (3, 4), keep=0)
            assert np.allclose(
                reduced.matrix, density_from_state(v).matrix, atol=1e-12, rtol=0
            )

    def test_trace_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = random_density(rng, 6)
            reduced = partial_trace(rho, (2, 3), keep=1)
            assert abs(np.trace(reduced.matrix) - 1.0) < 1e-12

    def test_dimension_mismatch_errors(self):
        rho = random_density(np.random.default_rng(1), 6)
        with pytest.raises(QuantumStateError, match="factor structure"):
            partial_trace(rho, (4, 2), keep=0)

    def test_telegraph_joint_state_reduces_to_pipe_mixture(self):
        """Oracle: assemble (|psi1><psi1| + |psi2><psi2|)/2 by hand from the
        amplitude formula and compare against the partial-trace route."""
        from qtelegraph.device import DeviceConfig, build_joint_state

        cfg = DeviceConfig(bins=64)
        xs = cfg.bin_centers()
        envelope = np.exp(-(xs**2) / (4.0 * cfg.envelope_width**2))
        psi1 = envelope * np.exp(1j * cfg.kappa * xs)
        psi2 = envelope * np.exp(-1j * cfg.kappa * xs)
        psi1 = psi1 / np.linalg.norm(psi1)
        psi2 = psi2 / np.linalg.norm(psi2)
        expected = 0.5 * (np.outer(psi1, psi1.conj()) + np.outer(psi2, psi2.conj()))

        rho = density_from_state(build_joint_state(cfg))
        reduced = partial_trace(rho, (2, cfg.bins), keep=1)
        assert np.abs(reduced.matrix - expected).max() < 1e-12


class TestMeasurement:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(QuantumStateError, match="disjoint"):
            MeasurementBasis(outcomes=(("a", frozenset([0])), ("b", frozenset([0, 1]))))

    def test_empty_basis_rejected(self):
        with pytest.raises(QuantumStateError, match="at least one outcome"):
            MeasurementBasis(outcomes=())

    def test_duplicate_outcome_names_rejected(self):
        with pytest.raises(QuantumStateError, match="unique"):
            MeasurementBasis(outcomes=(("a", frozenset([0])), ("a", frozenset([1]))))

    def test_unnormalized_state_rejected(self):
        basis = MeasurementBasis(outcomes=((0, frozenset([0])), (1, frozenset([1]))))
        with pytest.raises(QuantumStateError, match="normalized"):
            born_probabilities(plain_state(1.0, 1.0), basis)

    def test_grouped_outcome_sums_its_weights(self):
        rng = np.random.default_rng(9)
        state = random_state(rng, 4)
        basis = MeasurementBasis(
            outcomes=(("a", frozenset([0, 1])), ("b", frozenset([2, 3])))
        )
        weights = np.abs(state.amplitudes) ** 2
        probs = born_probabilities(state, basis)
        assert probs["a"] == pytest.approx(weights[:2].sum(), abs=1e-15)
        assert probs["b"] == pytest.approx(weights[2:].sum(), abs=1e-15)

    def test_non_covering_basis_errors_at_use(self):
        basis = MeasurementBasis(outcomes=(("only", frozenset([0])),))
        with pytest.raises(QuantumStateError, match="cover"):
            born_probabilities(plain_state(1.0, 0.0), basis)

    def test_own_basis_state_is_certain(self):
        basis = MeasurementBasis(outcomes=((0, frozenset([0])), (1, frozenset([1]))))
        probs = born_probabilities(plain_state(1.0, 0.0), basis)
        assert probs[0] == pytest.approx(1.0, abs=1e-15)
        assert probs[1] == pytest.approx(0.0, abs=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(17)
        basis = MeasurementBasis(
            outcomes=(("low", frozenset([0, 1])), ("high", frozenset([2, 3, 4])))
        )
        for _ in range(20):
            probs = born_probabilities(random_state(rng, 5), basis)
            assert abs(sum(probs.values()) - 1.0) < 1e-12

    def test_subsystem_measurement_on_product_labels(self):
        labels = ((1, 0), (1, 1), (2, 0), (2, 1))
        state = StateVector(labels, np.array([0.5, 0.5, 0.5, 0.5]))
        basis = MeasurementBasis(
            outcomes=((1, frozenset([1])), (2, frozenset([2]))), subsystem=0
        )
        probs = born_probabilities(state, basis)
        assert probs[1] == pytest.approx(0.5, abs=1e-12)
        assert probs[2] == pytest.approx(0.5, abs=1e-12)


class TestTraceDistance:
    def test_identical_states(self):
        rho = random_density(np.random.default_rng(2), 5)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = density_from_state(plain_state(1.0, 0.0))
        b = density_from_state(plain_state(0.0, 1.0))
        assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            a, b, c = (random_density(rng, 4) for _ in range(3))
            dab = trace_distance(a, b)
            assert dab == pytest.approx(trace_distance(b, a), abs=1e-12)
            assert dab <= trace_distance(a, c) + trace_distance(c, b) + 1e-10
            assert -1e-15 <= dab <= 1.0 + 1e-12

    def test_dimension_mismatch_errors(self):
        rng = np.random.default_rng(4)
        with pytest.raises(QuantumStateError, match="mismatch"):
            trace_distance(random_density(rng, 2), random_density(rng, 3))
