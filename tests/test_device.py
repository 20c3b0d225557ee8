"""Tests for the two-pipe device geometry and screen distributions."""

import csv
import math

import numpy as np
import pytest

from qtelegraph import device as device_module
from qtelegraph.device import (
    DeviceConfig,
    build_joint_state,
    coherent_distribution,
    eraser_conditionals,
    incoherent_distribution,
    write_distributions_csv,
)
from qtelegraph.nosignal import verify_no_signaling
from qtelegraph.protocol import ModelMode, TransmissionPlan, transmit_message
from qtelegraph.quantum import QuantumStateError, clamp_probabilities, density_from_state, partial_trace

# Grid whose bin centers land exactly on the integers and half-integers, so
# the kappa=pi fringe nulls (x = n + 1/2) and antifringe nulls (x = n) are
# bin centers: width 20.5, 41 bins of width 0.5.
NULL_ALIGNED = DeviceConfig(x_max=5.125, bins=41)

# Grid wide enough that the Gaussian envelope is captured to double
# precision (edge density e^-32), making the sampled pipe modes orthogonal
# to ~1e-16; the exact-identity examples run here.
ENVELOPE_COMPLETE = DeviceConfig(x_max=8.0, bins=256)


def envelope_squared(cfg, xs):
    return np.exp(-(xs**2) / (2.0 * cfg.envelope_width**2))


def diagonal_probabilities(rho):
    """A density matrix's diagonal as a clamped, renormalized probability vector."""
    return clamp_probabilities(np.real(np.diag(rho.matrix)))


class TestDeviceConfig:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"kappa": 0.0}, "kappa"),
            ({"envelope_width": -1.0}, "envelope_width"),
            ({"x_max": 0.0}, "x_max"),
            ({"bins": 1}, "bins"),
            ({"x_max": 1e308}, "x_max"),
            ({"envelope_width": 1e308}, "envelope_width"),
        ],
    )
    def test_invalid_fields_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            DeviceConfig(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field, message",
        [("kappa", "kappa must be > 0 and finite"), ("relative_phase", "relative_phase must be finite")],
        ids=["kappa", "relative_phase"],
    )
    def test_non_finite_kappa_and_phase_rejected_by_name(self, field, message, value):
        """Refused here, not later as a cancelled or NaN pattern."""
        with pytest.raises(ValueError, match=rf"^{message} \(got {value}\)$"):
            DeviceConfig(**{field: value})

    def test_bin_centers_formula(self):
        cfg = DeviceConfig()
        width = 2.0 * cfg.x_max * cfg.envelope_width / cfg.bins
        expected = [
            -cfg.x_max * cfg.envelope_width + (j + 0.5) * width for j in range(cfg.bins)
        ]
        assert np.allclose(cfg.bin_centers(), expected, atol=1e-12, rtol=0)

    def test_bin_index_round_trip(self):
        cfg = DeviceConfig()
        centers = cfg.bin_centers()
        assert np.array_equal(cfg.bin_index(centers), np.arange(cfg.bins))


class TestPipeAmplitude:
    def test_shared_envelope_modulus(self):
        a1, a2 = np.abs(DeviceConfig().amplitudes)
        assert np.allclose(a1, a2, atol=1e-15, rtol=0)

    def test_equal_at_origin_without_phase(self):
        origin = NULL_ALIGNED.bins // 2
        assert NULL_ALIGNED.bin_centers()[origin] == 0.0
        psi1, psi2 = NULL_ALIGNED.amplitudes
        assert psi1[origin] == pytest.approx(psi2[origin])

    def test_phase_difference_is_twice_kappa_x(self):
        cfg = DeviceConfig()
        a1, a2 = cfg.amplitudes
        # arg(a1) - arg(a2) = 2 kappa x (mod 2 pi), checked wrap-free.
        phase = a1 * a2.conj() / (np.abs(a1) * np.abs(a2))
        assert np.abs(phase - np.exp(2j * cfg.kappa * cfg.bin_centers())).max() < 1e-12

    def test_rows_are_unit_and_read_only(self):
        amplitudes = DeviceConfig().amplitudes
        assert amplitudes.shape == (2, 256)
        assert np.abs(np.linalg.norm(amplitudes, axis=1) - 1.0).max() < 1e-12
        assert not amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            amplitudes[0, 0] = 0.0

    @pytest.mark.parametrize(
        "pipeline",
        [
            pytest.param(lambda cfg: verify_no_signaling(cfg, ModelMode.NAIVE_COLLAPSE), id="nosignal-naive"),
            pytest.param(lambda cfg: verify_no_signaling(cfg, ModelMode.UNITARY_QM), id="nosignal-unitary"),
            pytest.param(
                lambda cfg: transmit_message(
                    [0, 1, 1], TransmissionPlan(M=5, N=2), ModelMode.NAIVE_COLLAPSE, cfg, np.random.default_rng(0)
                ),
                id="transmit-naive",
            ),
            pytest.param(
                lambda cfg: transmit_message(
                    [0, 1, 1], TransmissionPlan(M=5, N=2), ModelMode.UNITARY_QM, cfg, np.random.default_rng(0)
                ),
                id="transmit-unitary",
            ),
            pytest.param(lambda cfg: write_distributions_csv(cfg, "d.csv"), id="distributions"),
        ],
    )
    def test_evaluated_once_per_config(self, monkeypatch, tmp_path, pipeline):
        evaluations = []
        evaluate = DeviceConfig.amplitudes.func

        def counted(cfg):
            evaluations.append(cfg)
            return evaluate(cfg)

        monkeypatch.setattr(DeviceConfig.amplitudes, "func", counted)
        monkeypatch.chdir(tmp_path)
        cfg = DeviceConfig(bins=64)
        pipeline(cfg)
        assert len(evaluations) == 1 and evaluations[0] is cfg


class TestJointState:
    def test_normalized(self):
        assert abs(build_joint_state(DeviceConfig()).norm() - 1.0) < 1e-12

    def test_pipe_factor_maximally_mixed_on_envelope_complete_grid(self):
        rho = density_from_state(build_joint_state(ENVELOPE_COMPLETE))
        reduced = partial_trace(rho, (2, ENVELOPE_COMPLETE.bins), keep=0)
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12

    def test_pipe_factor_mixing_at_default_truncation(self):
        # The default screen edge (5 envelope widths) leaks ~1e-7 of mode
        # overlap through envelope truncation; pin the scale.
        rho = density_from_state(build_joint_state(DeviceConfig()))
        reduced = partial_trace(rho, (2, 256), keep=0)
        off_diagonal = abs(reduced.matrix[0, 1])
        assert off_diagonal < 1e-7
        assert abs(reduced.matrix[0, 0] - 0.5) < 1e-12

    def test_screen_factor_matches_incoherent_diagonal(self):
        cfg = DeviceConfig()
        rho = density_from_state(build_joint_state(cfg))
        reduced = partial_trace(rho, (2, cfg.bins), keep=1)
        p_i = incoherent_distribution(cfg)
        assert np.abs(diagonal_probabilities(reduced) - p_i).max() < 1e-12


class TestCoherentDistribution:
    def test_normalized(self):
        assert abs(coherent_distribution(DeviceConfig()).sum() - 1.0) < 1e-12

    def test_nulls_at_half_integer_bins(self):
        p_c = coherent_distribution(NULL_ALIGNED)
        centers = NULL_ALIGNED.bin_centers()
        peak = p_c.max()
        null_bins = [
            j
            for j, x in enumerate(centers)
            if abs(x - (math.floor(x) + 0.5)) < 1e-9
        ]
        assert null_bins
        assert p_c[null_bins].max() / peak < 1e-12

    def test_center_bin_ratio_is_two(self):
        """kappa=pi, w=2: p_c(center)/p_i(center) = 2 within 1e-9.

        Oracle: the ratio equals (sum G^2) / (sum G^2 cos^2 kappa x) on the
        grid, computed here directly from the amplitude formula. Odd bin
        count puts a bin center exactly at x = 0; the envelope-complete
        half-width makes the grid sums match the continuum to float noise.
        """
        cfg = DeviceConfig(x_max=8.0, bins=257)
        xs = cfg.bin_centers()
        g2 = envelope_squared(cfg, xs)
        oracle = g2.sum() / (g2 * np.cos(cfg.kappa * xs) ** 2).sum()
        assert oracle == pytest.approx(2.0, abs=1e-9)

        center = cfg.bins // 2
        assert xs[center] == 0.0
        p_c = coherent_distribution(cfg)
        p_i = incoherent_distribution(cfg)
        ratio = p_c[center] / p_i[center]
        assert ratio == pytest.approx(oracle, abs=1e-12)
        assert ratio == pytest.approx(2.0, abs=1e-9)


class TestIncoherentDistribution:
    def test_proportional_to_envelope(self):
        cfg = DeviceConfig()
        p_i = incoherent_distribution(cfg)
        g2 = envelope_squared(cfg, cfg.bin_centers())
        assert np.abs(p_i - g2 / g2.sum()).max() < 1e-12

    def test_matches_reduced_density_diagonal(self):
        cfg = DeviceConfig(bins=128)
        rho = density_from_state(build_joint_state(cfg))
        reduced = partial_trace(rho, (2, cfg.bins), keep=1)
        p_i = incoherent_distribution(cfg)
        assert np.abs(p_i - diagonal_probabilities(reduced)).max() < 1e-12

    def test_even_in_x(self):
        p = incoherent_distribution(DeviceConfig())
        assert np.abs(p - p[::-1]).max() < 1e-12


class TestEraserConditionals:
    def test_average_recovers_incoherent_on_envelope_complete_grid(self):
        conditionals = eraser_conditionals(ENVELOPE_COMPLETE)
        p_i = incoherent_distribution(ENVELOPE_COMPLETE)
        avg = 0.5 * (conditionals.p_plus + conditionals.p_minus)
        assert np.abs(avg - p_i).max() < 1e-12

    def test_average_residual_at_default_truncation(self):
        conditionals = eraser_conditionals(DeviceConfig())
        p_i = incoherent_distribution(DeviceConfig())
        avg = 0.5 * (conditionals.p_plus + conditionals.p_minus)
        assert np.abs(avg - p_i).max() < 1e-8

    def test_plus_branch_equals_coherent_pattern(self):
        cfg = DeviceConfig()
        conditionals = eraser_conditionals(cfg)
        p_c = coherent_distribution(cfg)
        assert np.abs(conditionals.p_plus - p_c).max() < 1e-12

    def test_plus_branch_equals_the_clamped_half_sum_bitwise(self):
        """The oracle is the formula p_plus had before it was taken from the
        coherent pattern: |(psi_1 + psi_2) / 2|^2, clamped. Halving is exact,
        so the two agree bit for bit on any grid."""
        rng = np.random.default_rng(20261020)
        compared = 0
        for _ in range(300):
            cfg = DeviceConfig(
                kappa=float(np.exp(rng.uniform(math.log(0.05), math.log(40.0)))),
                envelope_width=float(rng.uniform(0.1, 5.0)),
                x_max=float(rng.uniform(0.5, 12.0)),
                bins=int(rng.integers(2, 5000)),
                relative_phase=float(rng.uniform(-7.0, 7.0)),
            )
            try:
                p_plus = eraser_conditionals(cfg).p_plus
            except QuantumStateError:
                continue
            psi1, psi2 = cfg.amplitudes
            assert p_plus.tobytes() == clamp_probabilities(np.abs(0.5 * (psi1 + psi2)) ** 2).tobytes()
            compared += 1
        assert compared > 250

    def test_minus_branch_nulls_at_integer_bins(self):
        conditionals = eraser_conditionals(NULL_ALIGNED)
        p_minus = conditionals.p_minus
        antinull_bins = [
            j for j, x in enumerate(NULL_ALIGNED.bin_centers()) if abs(x - round(x)) < 1e-9
        ]
        assert antinull_bins
        assert p_minus[antinull_bins].max() / p_minus.max() < 1e-12

    def test_outcomes_equiprobable(self):
        conditionals = eraser_conditionals(ENVELOPE_COMPLETE)
        assert conditionals.prob_plus == pytest.approx(0.5, abs=1e-12)
        assert conditionals.prob_minus == pytest.approx(0.5, abs=1e-12)
        defaults = eraser_conditionals(DeviceConfig())
        assert defaults.prob_plus == pytest.approx(0.5, abs=1e-6)
        assert defaults.prob_plus + defaults.prob_minus == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "cfg",
        [
            # Centers at +-5 with kappa = pi: psi_2 = psi_1 on both bins.
            DeviceConfig(bins=2),
            # 2 kappa bin_width = 2 pi, and phase pi turns psi_2 into psi_1.
            DeviceConfig(bins=64, kappa=10.053096491487338, relative_phase=math.pi),
        ],
    )
    def test_cancelled_minus_outcome_refused(self, cfg):
        with pytest.raises(QuantumStateError, match=f"psi_1 - psi_2 cancels .* bins={cfg.bins}"):
            eraser_conditionals(cfg)
        assert abs(coherent_distribution(cfg).sum() - 1.0) < 1e-12

    def test_completeness_phase_independent(self):
        cfg = DeviceConfig(x_max=8.0, relative_phase=math.pi / 2)
        conditionals = eraser_conditionals(cfg)
        p_i = incoherent_distribution(cfg)
        avg = 0.5 * (conditionals.p_plus + conditionals.p_minus)
        assert np.abs(avg - p_i).max() < 1e-12


class TestDistributionProperties:
    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi])
    def test_all_distributions_are_probability_vectors(self, phase):
        cfg = DeviceConfig(relative_phase=phase)
        conditionals = eraser_conditionals(cfg)
        for dist in (
            coherent_distribution(cfg),
            incoherent_distribution(cfg),
            conditionals.p_plus,
            conditionals.p_minus,
        ):
            assert dist.min() >= 0.0
            assert abs(dist.sum() - 1.0) < 1e-12
            assert dist.shape == (cfg.bins,) and not dist.flags.writeable

    @pytest.mark.parametrize("phase", [0.0, math.pi / 2, math.pi])
    def test_fringe_pattern_shifts_by_half_phase_over_kappa(self, phase):
        """Adding relative phase phi translates the fringes by phi/(2 kappa):
        the bin nearest the shifted crest carries the pattern's maximum."""
        cfg = DeviceConfig(relative_phase=phase)
        p_c = coherent_distribution(cfg)
        shift = phase / (2.0 * cfg.kappa)
        nearest = int(np.argmin(np.abs(cfg.bin_centers() - shift)))
        assert p_c[nearest] >= p_c.max() * (1.0 - 1e-9)
        if phase == math.pi:
            old_peak = int(np.argmin(np.abs(cfg.bin_centers())))
            assert p_c[old_peak] < 0.02 * p_c.max()

    def test_grid_refinement_stability(self):
        # Center sampling leaves an O(bin_width^2) discretization error from
        # the fringe curvature: TV ~ 2.4e-3 at the 256-bin default, shrinking
        # fourfold per doubling.
        def refinement_tv(bins):
            coarse = coherent_distribution(DeviceConfig(bins=bins))
            fine = coherent_distribution(DeviceConfig(bins=2 * bins))
            aggregated = fine.reshape(-1, 2).sum(axis=1)
            return 0.5 * np.abs(coarse - aggregated).sum()

        at_default = refinement_tv(256)
        assert at_default < 3e-3
        assert refinement_tv(512) < at_default / 3.0


class TestCsvExport:
    def test_coherent_pattern_built_once(self, monkeypatch, tmp_path):
        """Five columns from three clamped patterns: p_coherent and p_plus
        are one array."""
        clamped, written = [], []
        clamp = device_module.clamp_probabilities
        monkeypatch.setattr(device_module, "clamp_probabilities", lambda values: clamped.append(1) or clamp(values))
        monkeypatch.setattr(device_module, "write_csv", lambda *args: written.append(args[3]))
        write_distributions_csv(DeviceConfig(bins=32), tmp_path / "distributions.csv")
        assert len(clamped) == 3
        (columns,) = written
        assert columns[1] is columns[3]

    def test_round_trip(self, tmp_path):
        cfg = DeviceConfig(bins=32)
        path = tmp_path / "distributions.csv"
        write_distributions_csv(cfg, path, header_comments=["seed: 0"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# seed: 0"
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        assert rows[0] == ["x", "p_coherent", "p_incoherent", "p_plus", "p_minus"]
        body = np.array([[float(v) for v in row] for row in rows[1:]])
        assert body.shape == (32, 5)
        assert np.allclose(body[:, 1:].sum(axis=0), 1.0, atol=1e-9)
        assert np.allclose(body[:, 0], cfg.bin_centers(), atol=1e-12, rtol=0)
