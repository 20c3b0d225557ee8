"""Tests for the no-signaling verifier and the channel-information estimate."""

import math

import numpy as np
import pytest

from qtelegraph.device import (
    PIPES,
    DeviceConfig,
    build_joint_state,
    coherent_distribution,
    eraser_conditionals,
    incoherent_distribution,
)
from qtelegraph.nosignal import (
    DISTANCE_TOLERANCE,
    MI_TOLERANCE,
    NoSignalReport,
    coherent_screen_state,
    eraser_decomposition_check,
    jensen_shannon_bits,
    mixture_residual,
    plugin_mutual_information,
    reduced_screen_by_measurement_mixture,
    reduced_screen_by_partial_trace,
    verify_no_signaling,
)
from qtelegraph import protocol as protocol_module
from qtelegraph.protocol import (
    Detector,
    Hypotheses,
    ModelMode,
    TransmissionPlan,
    transmit_message,
)
from qtelegraph.quantum import (
    DensityMatrix,
    MeasurementBasis,
    QuantumStateError,
    StateVector,
    clamp_probabilities,
    density_from_state,
    normalize,
    partial_trace,
    total_variation,
    trace_distance,
)
from qtelegraph.rng import stream

from oracles import PINNED_M_STAR

ENVELOPE_COMPLETE = DeviceConfig(x_max=8.0, bins=256)
STATE_BUILDERS = (
    "coherent_screen_state",
    "reduced_screen_by_measurement_mixture",
    "reduced_screen_by_partial_trace",
)
# 2 * kappa * bin_width = 2 pi: psi_2 is psi_1 times one phase on every bin.
ALIASED_KAPPA = math.pi * 256 / 20


def pipe_formula(cfg, pipe, xs):
    """Unnormalized psi_k(x) for pipe k, straight from the amplitude formula."""
    sign, delta = (1.0, 0.0) if pipe == 1 else (-1.0, cfg.relative_phase)
    envelope = np.exp(-(xs**2) / (4.0 * cfg.envelope_width**2))
    return envelope * np.exp(1j * (sign * cfg.kappa * xs + delta))


def lifted(cfg, rho):
    """A span-coordinate screen state as the bins x bins matrix Q rho Q^H."""
    basis, _ = cfg.span
    return basis @ rho.matrix @ basis.conj().T


def dense_screen_states(cfg):
    """The bins x bins reference: partial trace of the joint projector, the
    which-path mixture of the joint state's masked amplitudes, and the
    coherent projector (None where the pipe sum cancels to rounding noise),
    all on the labeled (pipe, bin) basis."""
    joint = build_joint_state(cfg)
    partial = partial_trace(density_from_state(joint), dims=(2, cfg.bins), keep=1)
    which_path = MeasurementBasis(tuple((pipe, {pipe}) for pipe in PIPES), subsystem=0)
    masks = which_path.outcome_masks(joint)
    pipes = [joint.amplitudes[masks[pipe]] for pipe in PIPES]
    mixture = np.zeros((cfg.bins, cfg.bins), dtype=complex)
    for amplitudes in pipes:
        norm = float(np.linalg.norm(amplitudes))
        signal = amplitudes / norm
        mixture += norm**2 * np.outer(signal, signal.conj())
    summed = StateVector(tuple(range(cfg.bins)), pipes[0] + pipes[1])
    coherent = density_from_state(normalize(summed)) if summed.norm() ** 2 > 1e-12 else None
    return partial, DensityMatrix(mixture), coherent


class TestDistanceHelpers:
    def test_total_variation_bounds(self):
        assert total_variation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0
        assert total_variation(np.array([0.5, 0.5]), np.array([0.5, 0.5])) == 0.0

    def test_jensen_shannon_of_identical_is_exact_zero(self):
        p = incoherent_distribution(DeviceConfig())
        assert jensen_shannon_bits(p, p) == 0.0

    def test_jensen_shannon_of_disjoint_is_one_bit(self):
        assert jensen_shannon_bits(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(
            1.0, abs=1e-12
        )


class TestVerifyNoSignaling:
    def test_unitary_mode_passes_with_margin(self):
        report = verify_no_signaling(DeviceConfig(), ModelMode.UNITARY_QM)
        assert report.tv_distance < 1e-12
        assert report.trace_distance_reduced < 1e-12
        assert report.mutual_information_bits < 1e-12
        assert report.verdict == "pass"

    def test_naive_collapse_fails_loudly(self):
        report = verify_no_signaling(DeviceConfig(), ModelMode.NAIVE_COLLAPSE)
        assert report.tv_distance > 0.3
        assert report.trace_distance_reduced > 0.3
        assert report.mutual_information_bits > 0.01
        assert report.verdict == "fail"

    @pytest.mark.parametrize(
        "mode, built, states",
        [
            (
                ModelMode.UNITARY_QM,
                ["incoherent_distribution"],
                ["reduced_screen_by_measurement_mixture", "reduced_screen_by_partial_trace"],
            ),
            (
                ModelMode.NAIVE_COLLAPSE,
                ["coherent_distribution", "incoherent_distribution"],
                ["coherent_screen_state", "reduced_screen_by_measurement_mixture"],
            ),
        ],
        ids=["UnitaryQM", "NaiveCollapse"],
    )
    def test_each_screen_pattern_built_once(self, monkeypatch, mode, built, states):
        """Under UnitaryQM both settings show the incoherent pattern, so it
        is built once and the two marginals are exactly equal. Each setting's
        state is built once, and under UnitaryQM by two independent routes:
        the partial trace (off) and the which-path mixture (on)."""
        calls = []
        for name in ("coherent_distribution", "incoherent_distribution"):
            original = getattr(protocol_module, name)
            monkeypatch.setattr(
                protocol_module, name, lambda cfg, name=name, original=original: calls.append(name) or original(cfg)
            )
        state_calls = []
        for name in STATE_BUILDERS:
            original = getattr(protocol_module, name)
            monkeypatch.setattr(
                protocol_module, name, lambda cfg, name=name, original=original: state_calls.append(name) or original(cfg)
            )
        report = verify_no_signaling(DeviceConfig(bins=64), mode)
        assert sorted(calls) == built
        assert sorted(state_calls) == states
        if mode is ModelMode.UNITARY_QM:
            assert report.tv_distance == report.mutual_information_bits == 0.0
            hypotheses = Hypotheses(DeviceConfig(bins=64), mode)
            assert hypotheses.pattern(Detector.OFF) is hypotheses.pattern(Detector.ON)

    @pytest.mark.parametrize("mode", ["NaiveCollapse", None, 1], ids=["str", "None", "int"])
    def test_a_mode_that_is_not_a_member_is_refused(self, mode):
        # A string mode returned a pass with TV 0 before.
        with pytest.raises(ValueError, match=r"mode must be ModelMode\.NAIVE_COLLAPSE or ModelMode\.UNITARY_QM"):
            verify_no_signaling(DeviceConfig(bins=16), mode)

    def test_report_serialization_round_trip(self):
        report = verify_no_signaling(DeviceConfig(), ModelMode.UNITARY_QM)
        text = report.to_text()
        assert "verdict: pass" in text
        assert "tv_distance" in text
        assert report.to_dict()["mode"] == "UnitaryQM"
        assert report.to_dict()["distance_tolerance"] == DISTANCE_TOLERANCE == 1e-10
        assert report.to_dict()["mi_tolerance"] == MI_TOLERANCE == 0.01

    def test_report_verdict_consistency_enforced(self):
        report = NoSignalReport(
            mode=ModelMode.UNITARY_QM,
            tv_distance=0.5,
            trace_distance_reduced=0.0,
            mutual_information_bits=0.0,
        )
        assert report.verdict == "fail"
        assert not report.passed()
        assert report.to_dict()["verdict"] == "fail"

    @pytest.mark.parametrize(
        "measure, tolerance",
        [
            ("tv_distance", DISTANCE_TOLERANCE),
            ("trace_distance_reduced", DISTANCE_TOLERANCE),
            ("mutual_information_bits", MI_TOLERANCE),
        ],
    )
    def test_measure_at_its_tolerance_fails(self, measure, tolerance):
        values = dict(tv_distance=0.0, trace_distance_reduced=0.0, mutual_information_bits=0.0)
        values[measure] = tolerance
        assert NoSignalReport(mode=ModelMode.UNITARY_QM, **values).verdict == "fail"

    def test_measures_just_under_their_tolerances_pass(self):
        report = NoSignalReport(
            mode=ModelMode.UNITARY_QM,
            tv_distance=math.nextafter(DISTANCE_TOLERANCE, 0.0),
            trace_distance_reduced=math.nextafter(DISTANCE_TOLERANCE, 0.0),
            mutual_information_bits=math.nextafter(MI_TOLERANCE, 0.0),
        )
        assert report.verdict == "pass"


class TestReducedStateRoutes:
    def test_partial_trace_and_mixture_routes_agree(self):
        cfg = DeviceConfig()
        route_a = reduced_screen_by_partial_trace(cfg)
        route_b = reduced_screen_by_measurement_mixture(cfg)
        assert trace_distance(route_a, route_b) < 1e-12

    def test_unitary_marginals_identical_twice_over(self):
        """Bin-by-bin identity of the two detector-setting marginals (same
        computation path, 1e-15) and independently against the
        measurement-mixture route (1e-12)."""
        cfg = DeviceConfig()
        hypotheses = Hypotheses(cfg, ModelMode.UNITARY_QM)
        off, on = hypotheses.pattern(Detector.OFF), hypotheses.pattern(Detector.ON)
        assert np.abs(on - off).max() < 1e-15
        mixture = reduced_screen_by_measurement_mixture(cfg)
        mixture_diagonal = clamp_probabilities(np.real(np.diag(DensityMatrix(lifted(cfg, mixture)).matrix)))
        assert np.abs(off - mixture_diagonal).max() < 1e-12

    @pytest.mark.parametrize("mode", list(ModelMode))
    def test_verify_makes_two_screen_sized_eigen_solves(self, monkeypatch, mode):
        """Only the mixture's own check and the trace distance diagonalize;
        the matrices derived from checked operands are not re-proved. Screen
        states live in the 2 x 2 span coordinates, so no solve grows with the
        grid, up to the 4096-bin stress size the dense algebra cannot hold."""
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for bins in (64, 4096):
            shapes.clear()
            verify_no_signaling(DeviceConfig(bins=bins), mode)
            assert 1 <= len(shapes) <= 2
            assert all(shape == (2, 2) for shape in shapes)

    @pytest.mark.parametrize("bins", [8, 64, 256])
    @pytest.mark.parametrize("x_max", [5.0, 8.0])
    def test_derived_states_pass_the_full_check(self, bins, x_max):
        """What is no longer checked at runtime still holds: every reduced
        screen state and the joint projector pass ``DensityMatrix`` in full."""
        for phase in (0.0, 0.7, 2.5):
            cfg = DeviceConfig(x_max=x_max, bins=bins, relative_phase=phase)
            for rho in (
                reduced_screen_by_partial_trace(cfg),
                reduced_screen_by_measurement_mixture(cfg),
                coherent_screen_state(cfg),
            ):
                assert not rho.matrix.flags.writeable
                DensityMatrix(rho.matrix)
                DensityMatrix(lifted(cfg, rho))
            joint = density_from_state(build_joint_state(cfg))
            assert not joint.matrix.flags.writeable
            DensityMatrix(joint.matrix)


class TestSpanAgainstDenseOracle:
    """The 2 x 2 span route reproduces the dense bins x bins algebra."""

    def test_span_basis_factors_the_amplitudes(self):
        cfg = DeviceConfig(relative_phase=0.7)
        amplitudes = cfg.amplitudes / math.sqrt(2.0)
        basis, triangle = cfg.span
        assert amplitudes.shape == (2, cfg.bins) and basis.shape == (cfg.bins, 2)
        assert np.abs(basis.conj().T @ basis - np.eye(2)).max() < 1e-12
        assert np.abs(basis @ triangle - amplitudes.T).max() < 1e-12

    @pytest.mark.parametrize("mode", list(ModelMode), ids=lambda mode: mode.value)
    def test_factored_once_per_verify(self, monkeypatch, mode):
        factorizations = []
        qr = np.linalg.qr

        def counted(matrix):
            factorizations.append(matrix.shape)
            return qr(matrix)

        monkeypatch.setattr(np.linalg, "qr", counted)
        cfg = DeviceConfig(bins=64)
        verify_no_signaling(cfg, mode)
        assert factorizations == [(64, 2)]
        for factor in cfg.span:
            assert not factor.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.0

    @pytest.mark.parametrize(
        "cfg",
        [
            DeviceConfig(bins=bins, x_max=x_max, relative_phase=phase)
            for bins in (2, 3, 8, 32, 64, 256, 512)
            for x_max in (5.0, 8.0)
            for phase in (0.0, 0.7, 2.5)
        ]
        # Rank-1 grids, where psi_2 is psi_1 times one phase on every bin:
        # bins=2 at phase 0 above (psi_2 = psi_1) and the aliased kappa.
        + [DeviceConfig(kappa=ALIASED_KAPPA, relative_phase=0.7)],
        ids=lambda cfg: f"bins{cfg.bins}-xmax{cfg.x_max}-phase{cfg.relative_phase}-kappa{cfg.kappa:.4g}",
    )
    def test_distances_and_diagonals_match_dense(self, cfg):
        partial, mixture, coherent = dense_screen_states(cfg)
        pairs = [
            (reduced_screen_by_partial_trace(cfg), partial),
            (reduced_screen_by_measurement_mixture(cfg), mixture),
        ]
        dense_distance = {ModelMode.UNITARY_QM: trace_distance(partial, mixture)}
        if coherent is None:
            # A bin width of pi / kappa puts every center on a zero of
            # cos(kappa x): the coherent pattern does not exist on this grid.
            with pytest.raises(QuantumStateError, match="cancels"):
                verify_no_signaling(cfg, ModelMode.NAIVE_COLLAPSE)
            with pytest.raises(QuantumStateError, match="cancels"):
                coherent_screen_state(cfg)
        else:
            pairs.append((coherent_screen_state(cfg), coherent))
            dense_distance[ModelMode.NAIVE_COLLAPSE] = trace_distance(coherent, mixture)
        for mode, expected in dense_distance.items():
            report = verify_no_signaling(cfg, mode)
            assert abs(report.trace_distance_reduced - expected) <= 1e-12
        for span_state, dense_state in pairs:
            diagonal = clamp_probabilities(np.real(np.diag(lifted(cfg, span_state))))
            dense_diagonal = clamp_probabilities(np.real(np.diag(dense_state.matrix)))
            assert np.abs(diagonal - dense_diagonal).max() <= 1e-12


class TestMixtureIdentities:
    def test_which_path_mixture_recovers_marginal(self):
        """Sum over pipe outcomes of P(pipe) * p(x | pipe) equals the
        unconditional marginal, assembled here from the amplitude formula."""
        cfg = DeviceConfig()
        xs = cfg.bin_centers()
        mixture = np.zeros(cfg.bins)
        for pipe in (1, 2):
            conditional = np.abs(pipe_formula(cfg, pipe, xs)) ** 2
            mixture += 0.5 * conditional / conditional.sum()
        p_i = incoherent_distribution(cfg)
        assert np.abs(mixture - p_i).max() < 1e-12

    def test_eraser_mixture_recovers_marginal_at_defaults(self):
        # Born-weighted (not unweighted) average: exact at every config.
        cfg = DeviceConfig()
        conditionals = eraser_conditionals(cfg)
        mixture = (
            conditionals.prob_plus * conditionals.p_plus
            + conditionals.prob_minus * conditionals.p_minus
        )
        p_i = incoherent_distribution(cfg)
        assert np.abs(mixture - p_i).max() < 1e-12


class TestEraserDecomposition:
    def test_envelope_complete_grid_meets_contract(self):
        assert eraser_decomposition_check(ENVELOPE_COMPLETE) < 1e-12

    def test_phase_independent(self):
        cfg = DeviceConfig(x_max=8.0, relative_phase=math.pi / 2)
        assert eraser_decomposition_check(cfg) < 1e-12

    def test_default_truncation_residual_scale(self):
        # Envelope truncation at the default x_max=5 leaves a ~1e-9 residual
        # in the unweighted average; see the decisions notes.
        residual = eraser_decomposition_check(DeviceConfig())
        assert residual < 1e-8

    def test_detects_perturbation(self):
        cfg = ENVELOPE_COMPLETE
        conditionals = eraser_conditionals(cfg)
        perturbed = conditionals.p_plus.copy()
        perturbed[10] += 1e-3
        residual = mixture_residual(
            perturbed,
            conditionals.p_minus,
            incoherent_distribution(cfg),
        )
        assert residual >= 5e-4


class TestPluginMutualInformation:
    def test_single_sample_is_zero(self):
        assert plugin_mutual_information([0], [1]) == 0.0

    def test_perfect_correlation_is_one_bit(self):
        bits = [0, 1, 0, 1, 1, 0]
        assert plugin_mutual_information(bits, bits) == pytest.approx(1.0, abs=1e-12)

    def test_balanced_independence_is_zero(self):
        assert plugin_mutual_information([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            plugin_mutual_information([0, 1], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            plugin_mutual_information([], [])

    def test_symmetric_in_its_arguments(self):
        rng = np.random.default_rng(8)
        xs = rng.integers(0, 3, size=200).tolist()
        ys = [(x + int(flip)) % 3 for x, flip in zip(xs, rng.random(200) < 0.3)]
        assert plugin_mutual_information(xs, ys) == pytest.approx(
            plugin_mutual_information(ys, xs), abs=1e-12
        )

    def test_numpy_labels_match_python_labels(self):
        xs = [0, 1, 1, 0, 1, 0, 0]
        ys = [0, 1, 0, 0, 1, 1, 0]
        assert plugin_mutual_information(np.array(xs), np.array(ys)) == (
            plugin_mutual_information(xs, ys)
        )


class TestChannelMutualInformation:
    """Bits per symbol the telegraph carries: the plug-in mutual information
    of the (sent, decoded) pairs of a message of uniform random bits."""

    @staticmethod
    def channel_bits(mode, plan, symbols, rng):
        bits = rng.integers(0, 2, size=symbols)
        result = transmit_message(list(bits), plan, mode, DeviceConfig(), rng)
        return plugin_mutual_information(result.sent, result.received)

    def test_zero_symbols_rejected(self):
        with pytest.raises(ValueError, match="at least one sample"):
            self.channel_bits(ModelMode.UNITARY_QM, TransmissionPlan(), 0, stream(0, "mi"))

    def test_numpy_integer_symbols_accepted(self):
        mi = self.channel_bits(
            ModelMode.NAIVE_COLLAPSE, TransmissionPlan(M=5), np.int64(3), stream(0, "mi")
        )
        assert mi >= 0.0

    def test_single_symbol_is_exactly_zero(self):
        mi = self.channel_bits(ModelMode.UNITARY_QM, TransmissionPlan(M=5), 1, stream(1, "mi"))
        assert mi == 0.0

    def test_naive_collapse_carries_most_of_a_bit(self):
        # Binary channel with crossover <= 0.02 has capacity >= 0.857 bits.
        plan = TransmissionPlan(M=PINNED_M_STAR, T=1.0, N=4)
        mi = self.channel_bits(ModelMode.NAIVE_COLLAPSE, plan, 10_000, stream(2, "mi"))
        assert mi >= 0.85

    def test_unitary_channel_carries_nothing(self):
        plan = TransmissionPlan(M=PINNED_M_STAR, T=1.0, N=4)
        mi = self.channel_bits(ModelMode.UNITARY_QM, plan, 600, stream(3, "mi"))
        assert mi <= 0.05

    def test_naive_information_non_decreasing_in_m(self):
        """More pairs per symbol cannot hurt the collapse-model channel;
        checked over M in {1, 10, M*} with a 3-sigma statistical slack."""
        mis = []
        for index, m in enumerate((1, 10, PINNED_M_STAR)):
            plan = TransmissionPlan(M=m, T=1.0, N=2)
            mis.append(
                self.channel_bits(ModelMode.NAIVE_COLLAPSE, plan, 2500, stream(4, "mi", index))
            )
        slack = 0.05
        assert mis[0] <= mis[1] + slack
        assert mis[1] <= mis[2] + slack
