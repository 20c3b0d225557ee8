"""Tests for the telegraph protocol: receiver, planner, ensemble, throughput."""

import contextlib
import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qtelegraph import protocol as protocol_module
from qtelegraph.device import (
    DeviceConfig,
    coherent_distribution,
    incoherent_distribution,
)
from qtelegraph.cli import ConfigError, resolve_config
from qtelegraph.protocol import (
    Detector,
    EnsembleSchedule,
    ErrorLaw,
    Hypotheses,
    MAX_TELEGRAPHS,
    ModelMode,
    TransmissionPlan,
    TransmissionResult,
    decide_bit,
    ensemble_schedule,
    floored_log_ratio,
    log_ratio_table,
    required_sample_size,
    sample_hits,
    transmit_message,
    _BLOCK_HITS,
    _BinSampler,
    _sorted_prefix,
)
from qtelegraph.nosignal import plugin_mutual_information
from qtelegraph.rng import stream

from oracles import PINNED_M_STAR, binomial_log_tails, divmod_emissions, joint_required_sample_size

NULL_ALIGNED = DeviceConfig(x_max=5.125, bins=41)
# Patterns a total variation of 0.016 apart.
NEARLY_EQUAL = DeviceConfig(bins=64, kappa=0.5, x_max=0.5, envelope_width=0.5, relative_phase=0.5)


def mc_error_rates(cfg, m, trials, rng):
    """Test-side Monte Carlo of the receiver's two error rates at sample size m."""
    table = log_ratio_table(cfg)
    errors = []
    for dist, want_interference in (
        (coherent_distribution(cfg), True),
        (incoherent_distribution(cfg), False),
    ):
        xs = sample_hits(cfg, dist, trials * m, rng).reshape(trials, m)
        llr = table[cfg.bin_index(xs)].sum(axis=1)
        decided_interference = llr > 0
        wrong = (~decided_interference if want_interference else decided_interference).sum()
        errors.append(wrong / trials)
    return tuple(errors)


def clipped_search(probabilities, u):
    """The sampler's definition: a binary search of the CDF, clipped to the
    last bin."""
    cdf = np.cumsum(probabilities)
    return np.minimum(np.searchsorted(cdf, u, side="right"), cdf.size - 1)


class TestPlanAndRecords:
    def test_plan_validation_names_field_and_bound(self):
        with pytest.raises(ValueError, match=r"N must be an integer >= 1"):
            TransmissionPlan(N=0)
        with pytest.raises(ValueError, match=r"M must be an integer >= 1"):
            TransmissionPlan(M=0)
        with pytest.raises(ValueError, match=r"T must be > 0"):
            TransmissionPlan(T=0.0)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_plan_rejects_non_finite_period(self, value):
        with pytest.raises(ValueError, match=r"^T must be > 0 and finite"):
            TransmissionPlan(T=value)

    def test_telegraph_count_bounded_before_allocation(self):
        assert TransmissionPlan(N=MAX_TELEGRAPHS).N == MAX_TELEGRAPHS
        with pytest.raises(ValueError, match=rf"^N must be <= {MAX_TELEGRAPHS} "):
            TransmissionPlan(N=MAX_TELEGRAPHS + 1)
        with pytest.raises(ValueError, match=rf"^N must be <= {MAX_TELEGRAPHS} "):
            ensemble_schedule(MAX_TELEGRAPHS + 1, 1.0, stream(0, "t"))

    @pytest.mark.parametrize(
        "field, read, value",
        [
            pytest.param("bins", lambda v: DeviceConfig(bins=v).bins, 64, id="bins"),
            pytest.param("M", lambda v: TransmissionPlan(M=v).M, 28, id="M"),
            pytest.param("N", lambda v: TransmissionPlan(N=v).N, 3, id="N"),
            pytest.param(
                "telegraph count",
                lambda v: ensemble_schedule(v, 1.0, stream(0, "t")).telegraphs,
                3,
                id="ensemble_schedule",
            ),
        ],
    )
    def test_integer_fields_accept_numpy_integers_not_bool(self, field, read, value):
        stored = read(np.int64(value))
        assert stored == value and type(stored) is int
        with pytest.raises(ValueError, match=rf"^{field} must be an integer >= \d \(got True\)"):
            read(True)

    def test_received_bit_is_interference_iff_log_lr_positive(self):
        result = TransmissionResult(
            sent=np.array([0, 1, 1]),
            symbol_times=np.ones(3),
            log_lr=np.array([1.0, 0.0, -1.0]),
            fringe_statistic=np.zeros(3),
        )
        assert result.received.tolist() == [0, 1, 1]
        assert result.symbol_error_rate() == 0.0

    def test_enum_parsing(self):
        assert ModelMode("NaiveCollapse") is ModelMode.NAIVE_COLLAPSE
        assert Detector("off") is Detector.OFF
        with pytest.raises(ValueError):
            ModelMode("Copenhagen")
        with pytest.raises(ConfigError, match="mode"):
            resolve_config({"mode": "Copenhagen"})
        with pytest.raises(ConfigError, match="detectors"):
            resolve_config({"detectors": "maybe"})


class TestScreenMarginal:
    def test_naive_collapse_reveals_detector_setting(self):
        cfg = DeviceConfig()
        hypotheses = Hypotheses(cfg, ModelMode.NAIVE_COLLAPSE)
        off, on = hypotheses.pattern(Detector.OFF), hypotheses.pattern(Detector.ON)
        assert np.array_equal(off, coherent_distribution(cfg))
        assert np.array_equal(on, incoherent_distribution(cfg))

    def test_unitary_marginal_is_detector_independent_bitwise(self):
        cfg = DeviceConfig()
        hypotheses = Hypotheses(cfg, ModelMode.UNITARY_QM)
        off, on = hypotheses.pattern(Detector.OFF), hypotheses.pattern(Detector.ON)
        assert np.array_equal(off, on)
        assert np.array_equal(off, incoherent_distribution(cfg))
        assert not off.flags.writeable

    @pytest.mark.parametrize("mode", ["NaiveCollapse", None, 1], ids=["str", "None", "int"])
    def test_a_mode_that_is_not_a_member_is_refused(self, mode):
        """A mode's value is not the mode: no model is picked for it (a string
        ran UnitaryQM, at SER 0.5 where NaiveCollapse decodes)."""
        cfg = DeviceConfig(bins=16)
        members = r"mode must be ModelMode\.NAIVE_COLLAPSE or ModelMode\.UNITARY_QM"
        with pytest.raises(ValueError, match=members):
            Hypotheses(cfg, mode)
        for bits in ([0, 1], []):
            with pytest.raises(ValueError, match=members):
                transmit_message(bits, TransmissionPlan(M=27), mode, cfg, stream(0, "mode"))

    @pytest.mark.parametrize("detectors", ["off", None, 0], ids=["str", "None", "int"])
    @pytest.mark.parametrize("mode", list(ModelMode))
    def test_a_setting_that_is_not_a_member_is_refused(self, mode, detectors):
        hypotheses = Hypotheses(DeviceConfig(bins=16), mode)
        for read in (hypotheses.pattern, hypotheses.state):
            with pytest.raises(ValueError, match=r"detectors must be Detector\.ON or Detector\.OFF"):
                read(detectors)


class TestSampleHits:
    def test_zero_draws(self):
        cfg = DeviceConfig()
        assert sample_hits(cfg, incoherent_distribution(cfg), 0, stream(0, "empty")).size == 0

    def test_point_mass(self):
        cfg = DeviceConfig(bins=8)
        probs = np.zeros(8)
        probs[3] = 1.0
        xs = sample_hits(cfg, probs, 200, stream(1, "point"))
        assert np.all(xs == cfg.bin_centers()[3])

    def test_frequencies_within_multinomial_bounds(self):
        """10^5 draws from the incoherent pattern: per-bin frequencies within
        five multinomial sigmas (plus a 5/n Poisson allowance for the
        near-empty tail bins)."""
        cfg = DeviceConfig()
        p = incoherent_distribution(cfg)
        n = 100_000
        xs = sample_hits(cfg, p, n, stream(99, "multinomial"))
        counts = np.bincount(cfg.bin_index(xs), minlength=cfg.bins)
        freq = counts / n
        bound = 5.0 * np.sqrt(p * (1 - p) / n) + 5.0 / n
        assert np.all(np.abs(freq - p) <= bound)

    def test_hits_are_bin_centers(self):
        cfg = DeviceConfig()
        xs = sample_hits(cfg, incoherent_distribution(cfg), 500, stream(5, "centers"))
        assert set(np.unique(xs)) <= set(cfg.bin_centers())

    @pytest.mark.parametrize("count", [2.5, True, -1])
    def test_count_must_be_a_non_negative_integer(self, count):
        cfg = DeviceConfig()
        with pytest.raises(ValueError, match=r"^count must be an integer >= 0"):
            sample_hits(cfg, incoherent_distribution(cfg), count, stream(0, "count"))

    def test_numpy_integer_count_accepted(self):
        cfg = DeviceConfig()
        assert sample_hits(cfg, incoherent_distribution(cfg), np.int64(7), stream(0, "count")).shape == (7,)


class TestBinSampler:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        bins=st.integers(1, 2**15),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        skew=st.floats(0.0, 60.0),
        total_error=st.sampled_from([-1e-13, 0.0, 1e-13]),
        seed=st.integers(0, 2**32 - 1),
        extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    # The fewest bins whose guide is capped at _MAX_BUCKETS, and a guide
    # capped at two buckets per bin, each with a total short of 1.
    @example(bins=4097, zero_fraction=0.3, skew=8.0, total_error=-1e-13, seed=1, extra=[])
    @example(bins=2**15, zero_fraction=0.9, skew=30.0, total_error=-1e-13, seed=2, extra=[])
    def test_matches_clipped_binary_search(self, bins, zero_fraction, skew, total_error, seed, extra):
        """Exact for any probability vector (empty bins, tiny bins, a total
        off 1 by 1e-13) and any uniform, including 0, every CDF value, every
        bucket edge and the floats either side of each. Above 4096 bins the
        guide is capped at 2^16 buckets, fewer than 16 per bin. A total short
        of 1 (-1e-13) leaves buckets past the CDF's end, where the table's
        folded clamp to the last bin decides the draw."""
        rng = np.random.default_rng(seed)
        weights = rng.random(bins) ** skew
        weights[rng.random(bins) < zero_fraction] = 0.0
        weights[rng.integers(bins)] += 1.0
        probabilities = weights / weights.sum() * (1.0 + total_error)
        sampler = _BinSampler(probabilities)
        edges = np.arange(sampler._buckets + 1) / sampler._buckets
        points = np.concatenate([[0.0], np.cumsum(probabilities), edges, extra])
        u = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])
        u = u[(u >= 0.0) & (u < 1.0)]
        assert np.array_equal(sampler.indices(u), clipped_search(probabilities, u))

    def test_draw_takes_one_uniform_per_hit_in_any_shape(self):
        cfg = DeviceConfig()
        probabilities = coherent_distribution(cfg)
        sampler = _BinSampler(probabilities)
        u = stream(3, "draw").random(50_000)
        assert np.array_equal(sampler.indices(u), clipped_search(probabilities, u))
        # sample_hits draws its hits from the same uniforms.
        hits = sample_hits(cfg, probabilities, 50_000, stream(3, "draw"))
        assert np.array_equal(hits, cfg.bin_centers()[clipped_search(probabilities, u)])
        block = u.reshape(500, 100)
        assert np.array_equal(sampler.indices(block), clipped_search(probabilities, block))
        assert sampler.indices(np.empty((0, 5))).shape == (0, 5)

    def test_one_guide_search_per_distribution(self, monkeypatch):
        """Each sampler searches the CDF once, for its guide; after that only
        draws in crowded buckets are searched. The symbol count adds no search
        over the draws, and the planner builds no sampler and draws nothing."""
        cfg = DeviceConfig()
        guide_size = _BinSampler(coherent_distribution(cfg))._buckets + 1
        searched, drawn, samplers = [], [], []
        original_search = np.searchsorted
        original_indices = _BinSampler.indices
        original_init = _BinSampler.__init__

        def counted_search(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return original_search(a, v, *args, **kwargs)

        def counted_indices(self, u):
            drawn.append(np.size(u))
            return original_indices(self, u)

        def counted_init(self, probabilities):
            samplers.append(probabilities.size)
            original_init(self, probabilities)

        monkeypatch.setattr(np, "searchsorted", counted_search)
        monkeypatch.setattr(_BinSampler, "indices", counted_indices)
        monkeypatch.setattr(_BinSampler, "__init__", counted_init)

        def searches(action):
            searched.clear()
            drawn.clear()
            action()
            builds = searched.count(guide_size)
            fallback = sum(searched) - builds * guide_size
            assert fallback <= 1 + sum(drawn) // 100
            return builds

        plan = TransmissionPlan(M=28, T=1.0, N=3)
        per_block = _BLOCK_HITS // plan.M
        for symbols in (2, 40):
            bits = [0, 1] * (symbols // 2)
            assert searches(lambda: transmit_message(bits, plan, ModelMode.NAIVE_COLLAPSE, cfg, stream(5, "tx"))) == 2
        # Under UnitaryQM both settings show the incoherent pattern: one guide
        # table per message, and one draw per block whatever its bits.
        for symbols in (2, 40, 2 * per_block + 2):
            bits = [0, 1] * (symbols // 2)
            assert searches(lambda: transmit_message(bits, plan, ModelMode.UNITARY_QM, cfg, stream(5, "tx"))) == 1
            assert len(drawn) == -(-symbols // per_block)

        def no_generator(*args, **kwargs):
            raise AssertionError("the planner made a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        legacy_state = np.random.get_state()
        for alpha in (0.2, 0.01):
            samplers.clear()
            assert searches(lambda: required_sample_size(cfg, alpha)) == 0
            assert samplers == [] and drawn == []
        after = np.random.get_state()
        assert legacy_state[0] == after[0] and np.array_equal(legacy_state[1], after[1])


class TestLogLikelihoodRatio:
    def test_empty_hits_zero(self):
        assert decide_bit([], DeviceConfig())[0] == 0.0

    def test_hit_at_fringe_null_is_strongly_negative(self):
        # In double precision the null-bin coherent probability is ~1e-33
        # (cos(pi/2) rounds to 6e-17), so the single-hit ratio is about -74;
        # the idealized exact-zero case is exercised through the floor below.
        assert decide_bit([0.5], NULL_ALIGNED)[0] <= -60.0

    def test_floor_handles_exact_zero_bins(self):
        table = floored_log_ratio(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        assert table[0] <= -600.0
        assert np.isfinite(table).all()

    def test_positive_on_coherent_data(self):
        """M=1000 coherent-pattern hits: the LLR is positive in at least 99%
        of 1000 seeded trials (it concentrates near 1000 * KL ~ 300 nats)."""
        cfg = DeviceConfig()
        table = log_ratio_table(cfg)
        dist = coherent_distribution(cfg)
        trials, m = 1000, 1000
        xs = sample_hits(cfg, dist, trials * m, stream(7, "llr-mc")).reshape(trials, m)
        llr = table[cfg.bin_index(xs)].sum(axis=1)
        assert (llr > 0).sum() >= 990

    def test_out_of_grid_hit_rejected(self):
        # NaN compares false with every bound, so it must be refused too.
        for hits in ([1000.0], [math.nan], [0.3, math.nan], [math.nan, 1000.0], [-math.inf]):
            with pytest.raises(ValueError, match="hits must lie within the screen grid"):
                decide_bit(hits, DeviceConfig())


class TestDecideBit:
    def test_single_hit_fringe_is_unit(self):
        _, fringe = decide_bit([0.3], DeviceConfig())
        assert fringe == pytest.approx(1.0, abs=1e-12)

    def test_empty_hits_give_zeros(self):
        assert decide_bit([], DeviceConfig()) == (0.0, 0.0)

    def test_fringe_statistic_on_coherent_hits(self):
        """Grid oracle: E[e^{2 i kappa x}] under the coherent pattern is 1/2
        (the cos^2 Fourier component); 10^4 hits land within 0.03 of it."""
        cfg = DeviceConfig()
        p_c = coherent_distribution(cfg)
        oracle = abs((p_c * np.exp(2j * cfg.kappa * cfg.bin_centers())).sum())
        assert oracle == pytest.approx(0.5, abs=1e-6)
        xs = sample_hits(cfg, p_c, 10_000, stream(13, "fringe-c"))
        assert abs(decide_bit(xs, cfg)[1] - 0.5) <= 0.03

    def test_fringe_statistic_on_incoherent_hits(self):
        cfg = DeviceConfig()
        xs = sample_hits(cfg, incoherent_distribution(cfg), 10_000, stream(14, "fringe-i"))
        assert decide_bit(xs, cfg)[1] <= 0.05

    def test_decisions_recover_pattern(self):
        cfg = DeviceConfig()
        coherent_hits = sample_hits(cfg, coherent_distribution(cfg), 1000, stream(2, "dec-c"))
        incoherent_hits = sample_hits(cfg, incoherent_distribution(cfg), 1000, stream(2, "dec-i"))
        assert decide_bit(coherent_hits, cfg)[0] > 0
        assert decide_bit(incoherent_hits, cfg)[0] <= 0


def recorded_probes(monkeypatch):
    """Every bracket the planner computes, as (m, step, hypothesis, bracket)."""
    probes = []
    original = ErrorLaw.bracket

    def recording(law, m, step, hypothesis):
        bracket = original(law, m, step, hypothesis)
        if bracket is not None:
            probes.append((m, step, hypothesis, bracket))
        return bracket

    monkeypatch.setattr(ErrorLaw, "bracket", recording)
    return probes


@contextlib.contextmanager
def counted_powers():
    """Count ``ErrorLaw.power`` calls, the planner's FFT laws, made inside
    the block: yields a list whose one entry is the count so far."""
    count = [0]
    original = ErrorLaw.power

    def counted(*args):
        count[0] += 1
        return original(*args)

    with mock.patch.object(ErrorLaw, "power", staticmethod(counted)):
        yield count


@st.composite
def non_aliased_geometries(draw):
    """A device geometry of 32 to 256 bins with at least 2 bins per fringe
    period (pi / kappa) and at least 2 periods across the grid."""
    bins = draw(st.integers(32, 256))
    x_max = draw(st.floats(2.0, 8.0))
    width = draw(st.floats(0.5, 4.0))
    bins_per_period = draw(st.floats(2.0, bins / 2.0))
    return DeviceConfig(
        kappa=math.pi * bins / (2.0 * x_max * width * bins_per_period),
        envelope_width=width,
        x_max=x_max,
        bins=bins,
        relative_phase=draw(st.floats(0.0, 2.0 * math.pi)),
    )


def direct_power(law, m):
    """The m-fold convolution power of a nonnegative law by direct
    convolutions: every entry a sum of nonnegative terms, so it is accurate
    to a few ulps relative, the reference for the FFT route."""
    result, base = np.array([1.0]), law
    while m:
        if m & 1:
            result = np.convolve(result, base)
        m >>= 1
        if m:
            base = np.convolve(base, base)
    return result


class TestRequiredSampleSize:
    def test_alpha_at_least_half_needs_no_data(self):
        result = required_sample_size(DeviceConfig(), 0.5)
        assert result.feasible and result.m_star == 0

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            required_sample_size(DeviceConfig(), 0.0)

    @pytest.mark.parametrize("alpha", [1e-10, protocol_module.MIN_ALPHA * 0.999])
    def test_alpha_below_the_rounding_allowance_rejected(self, alpha):
        with pytest.raises(ValueError, match=r"^alpha must be in \[1e-09, 1\)"):
            required_sample_size(DeviceConfig(), alpha)

    def test_indistinguishable_patterns_fail_explicitly(self):
        # One fringe spanning far beyond the grid: verify first that the
        # hypotheses are numerically identical, then expect the failure.
        cfg = DeviceConfig(kappa=1e-4)
        p_c = coherent_distribution(cfg)
        p_i = incoherent_distribution(cfg)
        assert 0.5 * np.abs(p_c - p_i).sum() < 1e-6
        result = required_sample_size(cfg, 0.01)
        assert not result.feasible
        assert result.m_star is None
        assert "indistinguishable" in result.failure_reason

    def test_pinned_regression_value_at_defaults(self):
        result = required_sample_size(DeviceConfig(), 0.01)
        assert result.feasible
        assert result.m_star == PINNED_M_STAR
        assert result.error_interference[1] <= 0.01
        assert result.error_no_interference[1] <= 0.01

    @pytest.mark.parametrize("alpha, m_star", [(0.01, 27), (1e-6, 106)])
    def test_m_star_is_certified_minimal(self, monkeypatch, alpha, m_star):
        """Both upper ends at M* are <= alpha, and at M* - 1 a lower end is
        > alpha, so M* is the exact minimum. At 1e-6, 10^4 Monte Carlo
        trials could not tell these apart."""
        probes = recorded_probes(monkeypatch)
        result = required_sample_size(DeviceConfig(), alpha)
        assert result.m_star == m_star
        assert max(result.error_interference[1], result.error_no_interference[1]) <= alpha
        # The probe at M* - 1 stopped on the last bracket it computed.
        below = [bracket for m, _, _, bracket in probes if m == m_star - 1]
        assert below[-1][0] > alpha
        for lo, hi in (result.error_interference, result.error_no_interference):
            assert 0.0 <= lo <= hi <= 1.0

    def test_search_is_reproducible(self):
        first = required_sample_size(DeviceConfig(), 0.05)
        second = required_sample_size(DeviceConfig(), 0.05)
        assert first == second

    def test_search_cap_reports_failure(self, monkeypatch):
        # Weak fringes (kappa=0.1) need far more than 64 samples per symbol.
        monkeypatch.setattr(protocol_module, "M_CAP", 64)
        result = required_sample_size(DeviceConfig(kappa=0.1), 0.01)
        assert not result.feasible
        assert result.m_star is None
        assert "cap" in result.failure_reason

    def test_decision_consistency_at_m_star(self):
        """Error rates at M* stay within alpha plus a 3-sigma band of the
        10^4-trial estimate."""
        cfg = DeviceConfig()
        alpha, trials = 0.01, 10_000
        band = alpha + 3.0 * np.sqrt(alpha * (1 - alpha) / trials)
        err_c, err_i = mc_error_rates(cfg, PINNED_M_STAR, trials, stream(77, "consistency"))
        assert err_c <= band
        assert err_i <= band

    def test_monte_carlo_within_three_sigma_of_every_probe(self, monkeypatch):
        """At every M the search at alpha = 0.01 probes, 10^4 simulated
        receptions per hypothesis land within 3 sigma of the exact bracket."""
        cfg = DeviceConfig()
        trials = 10_000
        probes = recorded_probes(monkeypatch)
        required_sample_size(cfg, 0.01)
        assert len({m for m, _, _, _ in probes}) >= 8
        estimates = {}
        for m, _, hypothesis, (lo, hi) in probes:
            if m not in estimates:
                estimates[m] = mc_error_rates(cfg, m, trials, stream(78, "probe", m))
            estimate = estimates[m][hypothesis]
            assert lo - 3.0 * math.sqrt(lo * (1 - lo) / trials) <= estimate, (m, lo, estimate)
            assert estimate <= hi + 3.0 * math.sqrt(hi * (1 - hi) / trials), (m, hi, estimate)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [0.5, 0.1, 1e-2])
    def test_brackets_hold_the_exhaustive_error_rates(self, m, step):
        """On a 24-bin grid every one of the 24^m hit tuples is enumerated:
        the exact error rates of the receiver's sum lie inside the brackets,
        at every lattice step."""
        law = ErrorLaw(DeviceConfig(bins=24))
        grids = np.ix_(*[np.arange(law.table.size)] * m)
        llr = sum(law.table[grid] for grid in grids)
        weight_c = math.prod(law.coherent[grid] for grid in grids)
        weight_i = math.prod(law.incoherent[grid] for grid in grids)
        err_c = weight_c[llr <= 0].sum()
        err_i = weight_i[llr > 0].sum()
        (lo_c, hi_c), (lo_i, hi_i) = (law.bracket(m, step, hypothesis) for hypothesis in (0, 1))
        assert lo_c <= err_c <= hi_c
        assert lo_i <= err_i <= hi_i

    @pytest.mark.parametrize(
        "cfg, m, step",
        [
            (DeviceConfig(), 27, 1e-2),
            (DeviceConfig(), 9, 1e-3),
            (DeviceConfig(bins=64, kappa=2.0), 60, 2e-2),
            (DeviceConfig(relative_phase=0.7, x_max=8.0), 27, 1e-2),
        ],
    )
    def test_fft_law_within_its_rounding_allowance(self, cfg, m, step):
        """Every run sum of the FFT law (each tail the brackets read) matches
        the direct-convolution power within the stated allowance."""
        error_law = ErrorLaw(cfg)
        offsets, _ = error_law.lattice(m, step)
        for pattern in (error_law.coherent, error_law.incoherent):
            law, allowance = error_law.power(pattern, offsets, m)
            reference = direct_power(np.bincount(offsets, weights=pattern), m)
            assert law.shape == reference.shape
            assert np.abs(np.cumsum(law) - np.cumsum(reference)).max() <= allowance
            assert np.abs(np.cumsum(law[::-1]) - np.cumsum(reference[::-1])).max() <= allowance
            assert allowance < 1e-10


def forbid_ffts(monkeypatch):
    def no_fft(*args, **kwargs):
        raise AssertionError("an FFT ran")

    monkeypatch.setattr(np.fft, "rfft", no_fft)


class TestErrorLaw:
    def test_arrays_are_read_only_and_the_receiver_sums_the_table(self):
        cfg = DeviceConfig()
        law = ErrorLaw(cfg)
        for array in (law.coherent, law.incoherent, law.table, log_ratio_table(cfg)):
            assert not array.flags.writeable
        assert np.array_equal(log_ratio_table(cfg), law.table)
        assert law.total_variation == 0.5 * float(np.abs(law.coherent - law.incoherent).sum())

    @pytest.mark.parametrize(
        "m, step, hypothesis, named",
        [
            (-3, 0.01, 0, "m"),
            (-1, 0.01, 0, "m"),
            (0, 0.01, 0, "m"),
            (2.5, 0.01, 0, "m"),
            (True, 0.01, 0, "m"),
            (27, -0.01, 1, "step"),
            (27, 0.0, 1, "step"),
            (27, math.nan, 1, "step"),
            (27, math.inf, 1, "step"),
            (27, 0.01, -1, "hypothesis"),
            (27, 0.01, 2, "hypothesis"),
            (27, 0.01, 1.0, "hypothesis"),
            (27, 0.01, True, "hypothesis"),
        ],
    )
    def test_bracket_and_lattice_refuse_bad_arguments_before_any_fft(self, monkeypatch, m, step, hypothesis, named):
        forbid_ffts(monkeypatch)
        law = ErrorLaw(DeviceConfig())
        with pytest.raises(ValueError, match=rf"^{named} must"):
            law.bracket(m, step, hypothesis)
        if named != "hypothesis":
            with pytest.raises(ValueError, match=rf"^{named} must"):
                law.lattice(m, step)
        if named == "m":
            offsets, _ = law.lattice(PINNED_M_STAR, 0.01)
            with pytest.raises(ValueError, match=r"^m must"):
                ErrorLaw.power(law.coherent, offsets, m)

    @pytest.mark.parametrize(
        "m, alpha, named",
        [(0, 0.01, "m"), (-1, 0.01, "m"), (27.0, 0.01, "m"), (27, 2.0, "alpha"), (27, math.nan, "alpha"), (27, 0.0, "alpha")],
    )
    def test_settled_refuses_bad_arguments_before_any_fft(self, monkeypatch, m, alpha, named):
        forbid_ffts(monkeypatch)
        with pytest.raises(ValueError, match=rf"^{named} must"):
            ErrorLaw(DeviceConfig()).settled(m, alpha)

    def test_numpy_integer_m_gives_the_same_brackets(self):
        law = ErrorLaw(DeviceConfig())
        for hypothesis in (0, 1, np.int64(0), np.int64(1)):
            assert law.bracket(np.int64(PINNED_M_STAR), 0.01, hypothesis) == law.bracket(PINNED_M_STAR, 0.01, hypothesis)
        assert law.settled(np.int64(PINNED_M_STAR), 0.01) == law.settled(PINNED_M_STAR, 0.01)
        offsets, _ = law.lattice(PINNED_M_STAR, 0.01)
        power, allowance = ErrorLaw.power(law.coherent, offsets, np.int64(PINNED_M_STAR))
        want_power, want_allowance = ErrorLaw.power(law.coherent, offsets, PINNED_M_STAR)
        assert np.array_equal(power, want_power) and allowance == want_allowance

    def test_brackets_hold_one_law_at_a_time(self):
        # At M = 65536 and step 0.01 each hypothesis's law has 786433 points.
        law = ErrorLaw(NEARLY_EQUAL)
        m, step = 65536, 0.01
        offsets, _ = law.lattice(m, step)
        tracemalloc.start()
        try:
            ErrorLaw.power(law.coherent, offsets, m)
            power_peak = tracemalloc.get_traced_memory()[1]
            bracket_peaks = []
            for hypothesis in (0, 1):
                tracemalloc.reset_peak()
                assert law.bracket(m, step, hypothesis) is not None
                bracket_peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert max(bracket_peaks) <= 1.1 * power_peak, (bracket_peaks, power_peak)

    def test_settled_brackets_are_computed_once_per_m(self, monkeypatch):
        """Within one search each probed M's laws are built once, at one
        lattice step each; M = 26 fails and M = 27 meets at alpha = 0.01."""
        probes = recorded_probes(monkeypatch)
        assert required_sample_size(DeviceConfig(), 0.01).m_star == PINNED_M_STAR
        built = [(m, step, hypothesis) for m, step, hypothesis, _ in probes]
        assert len(built) == len(set(built))
        assert {26, 27} <= {m for m, _, _ in built}
        law = ErrorLaw(DeviceConfig())
        assert law.settled(26, 0.01)[1][0] > 0.01
        assert all(hi <= 0.01 for _, hi in law.settled(27, 0.01))

    # In the second geometry the coherent error is the larger near M* = 895:
    # a probe order carried over from the search's last probes would build
    # the coherent law first there and return other brackets.
    @pytest.mark.parametrize(
        "cfg",
        [
            DeviceConfig(),
            DeviceConfig(kappa=0.3538232007016849, envelope_width=0.7113473787509113, x_max=6.342618037215829, bins=64, relative_phase=0.7466830947691562),
        ],
        ids=["defaults", "coherent-error-larger"],
    )
    def test_a_probe_depends_only_on_m_and_alpha(self, cfg):
        """``settled(m, alpha)`` gives the same brackets on a fresh ErrorLaw
        as on the one a full search used, which holds nothing but its config
        and its cached per-config arrays."""
        used = []

        def kept(cfg):
            used.append(ErrorLaw(cfg))
            return used[-1]

        with mock.patch.object(protocol_module, "ErrorLaw", kept):
            m_star = required_sample_size(cfg, 0.01).m_star
        (law,) = used
        assert set(vars(law)) <= {"cfg", "coherent", "incoherent", "table", "total_variation"}
        assert not hasattr(law, "meets")
        for m in (1, m_star // 2, m_star - 1, m_star, 2 * m_star):
            for alpha in (0.01, 1e-3):
                assert repr(law.settled(m, alpha)) == repr(ErrorLaw(cfg).settled(m, alpha)), (m, alpha)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        cfg=non_aliased_geometries(),
        alpha=st.sampled_from([0.3, 0.1, 0.01, 1e-3]),
        budget=st.sampled_from([1 << 10, 1 << 14, 1 << 18]),
    )
    # At M = 121 and 122, step 0.01, the incoherent law meets alpha and the
    # coherent one straddles it; both meet at step 0.005.
    @example(
        cfg=DeviceConfig(kappa=0.18139079365739716, envelope_width=3.174564404917848, x_max=5.754162996172942, bins=60),
        alpha=0.01,
        budget=1 << 18,
    )
    def test_one_law_at_a_time_plans_as_both_laws_at_every_step(self, cfg, alpha, budget):
        """The planner gives the result of the ladder that builds both laws at
        every step (the oracle), field for field and bit for bit, from no
        more FFT laws. Lattice budgets below the planner's own leave some
        probes open, or the search without M*, at a small cost."""
        with mock.patch.object(protocol_module, "_LATTICE_BUDGET", budget), counted_powers() as count:
            result = required_sample_size(cfg, alpha)
            laws = count[0]
            count[0] = 0
            reference = joint_required_sample_size(cfg, alpha)
        assert result.m_star == reference.m_star
        # repr tells apart every two doubles but NaNs.
        assert repr(result.error_interference) == repr(reference.error_interference)
        assert repr(result.error_no_interference) == repr(reference.error_no_interference)
        assert result.failure_reason == reference.failure_reason
        assert laws <= count[0], (laws, count[0])

    @pytest.mark.parametrize(
        "cfg, alpha, most",
        [(DeviceConfig(), 0.01, 15), (DeviceConfig(), 1e-6, 25), (NEARLY_EQUAL, 0.01, 34)],
        ids=["defaults-0.01", "defaults-1e-06", "nearly-equal-0.01"],
    )
    def test_planner_builds_few_laws(self, cfg, alpha, most):
        # Building both laws at every step took 22, 38 and 64.
        with counted_powers() as count:
            required_sample_size(cfg, alpha)
        assert count[0] <= most

    # None runs the planner; a mode sends a message under it.
    @pytest.mark.parametrize("mode", [None, *ModelMode], ids=["plan", *(m.value for m in ModelMode)])
    def test_each_pattern_built_once_per_call(self, monkeypatch, mode):
        built = []
        for name in ("coherent_distribution", "incoherent_distribution"):
            original = getattr(protocol_module, name)

            def counted(cfg, _original=original, _name=name):
                built.append(_name)
                return _original(cfg)

            monkeypatch.setattr(protocol_module, name, counted)
        if mode is None:
            required_sample_size(DeviceConfig(), 0.01)
        else:
            transmit_message([0, 1, 1], TransmissionPlan(M=5, N=2), mode, DeviceConfig(), stream(3, "once"))
        assert sorted(built) == ["coherent_distribution", "incoherent_distribution"]


# The false-alarm probability of each exact-law test case below, fixed before
# any run; each of the case's tail comparisons gets an equal share of it.
FAMILY_WISE = 1e-3
EXACT_LAW_SEEDS = range(8)


def plausible(count, n, p_range, comparisons):
    """Whether ``count`` successes in n trials is a plausible Binomial(n, p)
    draw for some p in ``p_range`` = (lo, hi): its upper tail at hi and its
    lower tail at lo (the largest each tail takes over the range) are both
    at least FAMILY_WISE / comparisons."""
    lo, hi = p_range
    floor = math.log(FAMILY_WISE / comparisons)
    return binomial_log_tails(count, n, hi)[1] >= floor and binomial_log_tails(count, n, lo)[0] >= floor


class TestBinomialLogTails:
    @pytest.mark.parametrize("n", [0, 1, 7, 40])
    @pytest.mark.parametrize("p", [0.0, 1e-3, 0.3, 0.5, 1.0])
    def test_equal_exact_sums(self, n, p):
        pmf = [math.comb(n, j) * p**j * (1 - p) ** (n - j) for j in range(n + 1)]
        for k in range(n + 1):
            below, above = binomial_log_tails(k, n, p)
            assert math.exp(below) == pytest.approx(math.fsum(pmf[: k + 1]), rel=1e-12, abs=1e-300)
            assert math.exp(above) == pytest.approx(math.fsum(pmf[k:]), rel=1e-12, abs=1e-300)

    def test_tails_below_the_smallest_double(self):
        below, above = binomial_log_tails(0, 10**4, 0.5)
        assert below == pytest.approx(10**4 * math.log(0.5), rel=1e-12)
        assert abs(above) < 1e-9  # ln 1, up to lgamma rounding over 10^4 terms


class TestSeededFiguresMatchTheirExactLaws:
    """Seeded runs against the exact law they are drawn from (the tolerance
    assertions elsewhere stay beside these). Every seed of EXACT_LAW_SEEDS
    is tested; the family-wise threshold is fixed above."""

    SYMBOLS = 3000

    def test_the_error_pair_at_m_star(self):
        law = ErrorLaw(DeviceConfig())
        (lo_c, hi_c), (lo_i, hi_i) = (law.bracket(PINNED_M_STAR, 1e-3, h) for h in (0, 1))
        assert 0.00600 <= lo_c <= hi_c <= 0.00612
        assert 0.00953 <= lo_i <= hi_i <= 0.00965

    @pytest.mark.parametrize("mode", list(ModelMode), ids=lambda mode: mode.value)
    def test_transmit_error_counts_per_sent_bit(self, mode):
        """Each sent bit's error count is Binomial(n_bit, p), p within both
        ends of ``ErrorLaw.bracket(27, 1e-3, h)``: under NaiveCollapse bit 0
        errs with e_c and bit 1 with e_i; under UnitaryQM bit 0 (incoherent
        data, decided "interference" only if the LLR is > 0) errs with
        1 - e_i and bit 1 with e_i."""
        cfg = DeviceConfig()
        law = ErrorLaw(cfg)
        e_c, (lo_i, hi_i) = (law.bracket(PINNED_M_STAR, 1e-3, h) for h in (0, 1))
        if mode is ModelMode.NAIVE_COLLAPSE:
            p_ranges = (e_c, (lo_i, hi_i))
        else:
            p_ranges = ((1.0 - hi_i, 1.0 - lo_i), (lo_i, hi_i))
        comparisons = 2 * 2 * len(EXACT_LAW_SEEDS)
        plan = TransmissionPlan(M=PINNED_M_STAR, N=1)
        for seed in EXACT_LAW_SEEDS:
            bits = stream(seed, "exact-law", "bits").integers(0, 2, self.SYMBOLS)
            result = transmit_message(bits, plan, mode, cfg, stream(seed, "exact-law", mode.value))
            for bit, p_range in enumerate(p_ranges):
                sent = result.sent == bit
                errors = int((result.received[sent] != bit).sum())
                assert plausible(errors, int(sent.sum()), p_range, comparisons), (seed, bit, errors)

    @pytest.mark.parametrize("n, m", [(7, 3), (10, 27), (100, 27)])
    def test_symbol_times(self, n, m):
        """Each of a message's first four symbol times against its law
        (``symbol_time_law``), at the law's 10/30/50/70/90% points: the count
        of messages at or below a point is Binomial(messages, its CDF). One
        message per seed, so the samples are independent. Item 12's law for
        later symbols, whole periods + Beta(r, n - r), holds only averaged
        over i; at n = 10, m = 27 it misreads symbol 1."""
        messages, symbols, points = 2000, 4, (0.1, 0.3, 0.5, 0.7, 0.9)
        comparisons = 2 * symbols * len(points)
        cfg, plan = DeviceConfig(bins=16), TransmissionPlan(M=m, N=n)
        times = np.array(
            [
                transmit_message([0] * symbols, plan, ModelMode.UNITARY_QM, cfg, stream(seed, "symbol-law")).symbol_times
                for seed in range(messages)
            ]
        )
        for s in range(symbols):
            periods, a, b = symbol_time_law(s, n, m)
            for q in points:
                x = beta_quantile(q, a, b)
                p = beta_cdf(x, a, b)
                count = int((times[:, s] - periods <= x).sum())
                assert plausible(count, messages, (p, p), comparisons), (s, q, count / messages, p)

    def test_unitary_plugin_mutual_information_is_its_small_sample_bias(self):
        """Under UnitaryQM the received bit is independent of the sent one,
        so 2 n ln 2 times the plug-in MI in bits is the G statistic, about
        chi-squared with 1 degree of freedom (Miller, 1955): its mean, 1, is
        the estimator's bias. At M = 2 the receiver decides "interference"
        about 38% of the time, so both received values are common. The sum of
        G over the independent seeds is chi-squared with 2k = len(seeds)
        degrees of freedom, whose upper tail at g is P(Poisson(g / 2) < k),
        and both its tails are tested."""
        cfg, plan, symbols = DeviceConfig(), TransmissionPlan(M=2), 4000
        total = 0.0
        for seed in EXACT_LAW_SEEDS:
            bits = stream(seed, "plug-in MI", "bits").integers(0, 2, symbols)
            result = transmit_message(bits, plan, ModelMode.UNITARY_QM, cfg, stream(seed, "plug-in MI"))
            assert 0.2 < (result.received == 0).mean() < 0.8
            total += 2 * symbols * math.log(2) * plugin_mutual_information(result.sent, result.received)
        k = len(EXACT_LAW_SEEDS) // 2
        upper = math.fsum(math.exp(-total / 2) * (total / 2) ** i / math.factorial(i) for i in range(k))
        assert min(upper, 1.0 - upper) >= FAMILY_WISE / 2, (total, upper)

    @pytest.mark.parametrize("mode", list(ModelMode), ids=lambda mode: mode.value)
    @pytest.mark.parametrize("detectors", list(Detector), ids=lambda detectors: detectors.value)
    def test_simulate_bin_counts(self, mode, detectors):
        """``simulate``'s hits in a bin are Binomial(M, p_j), p_j the bin's
        probability in the pattern the setting shows: at the central fringe
        peak, its flank, the next null and the screen's left quarter."""
        cfg = DeviceConfig()
        pattern = Hypotheses(cfg, mode).pattern(detectors)
        plan = TransmissionPlan(M=20_000, N=3)
        bins = (127, 124, 121, 64)
        comparisons = 2 * len(bins) * len(EXACT_LAW_SEEDS)
        bit = 1 if detectors is Detector.ON else 0
        for seed in EXACT_LAW_SEEDS:
            result = transmit_message([bit], plan, mode, cfg, stream(seed, "simulate"), keep_hits=True)
            counts = np.bincount(result.hit_bins.ravel(), minlength=cfg.bins)
            for j in bins:
                p = float(pattern[j])
                assert plausible(int(counts[j]), plan.M, (p, p), comparisons), (seed, j, counts[j], p)


def beta_cdf(x, a, b):
    """P(Beta(a, b) <= x) for integers a, b >= 1: P(Binomial(a + b - 1, x) >= a)."""
    return math.exp(binomial_log_tails(a, a + b - 1, x)[1])


def beta_quantile(q, a, b):
    """The least x in [0, 1], to within 2**-50, with P(Beta(a, b) <= x) >= q."""
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if beta_cdf(mid, a, b) < q else (lo, mid)
    return hi


def symbol_time_law(s, n, m):
    """(whole periods, a, b): symbol s of N = n period-1 telegraphs pooling
    m > 0 pairs takes whole periods + Beta(a, b), for m mod n > 0.

    Symbol s >= 1 spans pooled emissions s*m - 1 to (s + 1)*m - 1, the
    offsets' order statistics i + 1 and i + r + 1, i = (s*m - 1) mod n and
    r = m mod n: r uniform spacings, Beta(r, n - r + 1), if i + r < n, and
    otherwise one period less n - r of them, Beta(r + 1, n - r). Symbol 0
    starts at clock 0 and ends at emission m - 1."""
    if s == 0:
        j = (m - 1) % n + 1
        return (m - 1) // n, j, n - j + 1
    i, r = (s * m - 1) % n, m % n
    return (m // n, r, n - r + 1) if i + r < n else (m // n, r + 1, n - r)


def message_on(monkeypatch, schedule, m, symbols, keep_hits=True, rng=None):
    """A ``symbols``-bit message at M = m sent through ``schedule`` in place
    of the one ``transmit_message`` would draw."""
    monkeypatch.setattr(protocol_module, "ensemble_schedule", lambda *_: schedule)
    plan = TransmissionPlan(M=m, T=schedule.period, N=schedule.telegraphs)
    bits = np.zeros(symbols, dtype=int)
    rng = stream(36, "tx") if rng is None else rng
    return transmit_message(bits, plan, ModelMode.UNITARY_QM, DeviceConfig(), rng, keep_hits=keep_hits)


class RecordedDraws:
    """A generator's ``random`` that appends each draw's size to ``events``."""

    def __init__(self, rng, events):
        self._rng, self._events = rng, events

    def random(self, size):
        self._events.append(("draw", size))
        return self._rng.random(size)


def merged_emissions(schedule, count):
    """The first ``count`` pooled emissions by brute force: every telegraph's
    first ceil(count/N) + 1 emissions, merged by time with ties broken by id."""
    per = math.ceil(count / schedule.telegraphs) + 1
    times = (schedule.offsets[:, None] + schedule.period * np.arange(per)[None, :]).ravel()
    ids = np.repeat(np.arange(schedule.telegraphs), per)
    order = np.lexsort((ids, times))[:count]
    return times[order], ids[order]


class TestEnsembleSchedule:
    def test_single_telegraph_is_arithmetic_progression(self):
        schedule = ensemble_schedule(1, 2.5, stream(6, "sched"))
        times, ids = schedule.emissions_after(0, 50)
        assert np.all(ids == 0)
        assert np.allclose(np.diff(times), 2.5, atol=1e-12, rtol=0)

    def test_offsets_in_range(self):
        schedule = ensemble_schedule(500, 0.7, stream(8, "sched"))
        assert schedule.offsets.min() >= 0.0
        assert schedule.offsets.max() < 0.7

    @pytest.mark.parametrize("period", [5e-324, 1e-322])
    def test_offsets_stay_below_a_subnormal_period(self, period):
        # A uniform below 1 times a subnormal period can round up to it.
        for seed in range(400):
            offsets = ensemble_schedule(1, period, stream(seed, "sched")).offsets
            assert 0.0 <= offsets[0] < period

    def test_emissions_after_is_sorted_and_strict(self):
        schedule = ensemble_schedule(7, 1.0, stream(9, "sched"))
        head, _ = schedule.emissions_after(0, 13)
        times, ids = schedule.emissions_after(13, 40)
        assert times.size == 40 and ids.size == 40
        assert np.all(times > head[-1])  # distinct offsets: no tie at the boundary
        assert np.all(np.diff(times) >= 0)

    def test_consecutive_pooling_never_double_counts(self):
        """Walking emissions_after symbol by symbol must consume each
        emission exactly once, even across float-awkward periods (T=0.1)."""
        schedule = ensemble_schedule(5, 0.1, stream(21, "sched"))
        last = 0.0
        seen = []
        for symbol in range(200):
            times, ids = schedule.emissions_after(symbol * 17, 17)
            assert np.all(times >= last) and np.all(np.diff(times) >= 0)
            seen.extend(zip(ids.tolist(), times.tolist()))
            last = float(times[-1])
        assert len(seen) == len(set(seen))
        for telegraph in range(5):
            mine = np.array(sorted(t for i, t in seen if i == telegraph))
            indices = np.rint((mine - schedule.offsets[telegraph]) / 0.1).astype(int)
            assert np.array_equal(indices, np.arange(mine.size))

    @pytest.mark.parametrize("period", [0.1, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
    def test_pooled_stream_matches_brute_force_merge(self, n, period):
        schedule = ensemble_schedule(n, period, stream(31, "oracle", n, str(period)))
        count = 3000
        times, ids = schedule.emissions_after(0, count)
        want_times, want_ids = merged_emissions(schedule, count)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(times, want_times)
        # Any later stretch is the same slice of the stream.
        tail_times, tail_ids = schedule.emissions_after(1234, 500)
        assert np.array_equal(tail_ids, want_ids[1234:1734])
        assert np.array_equal(tail_times, want_times[1234:1734])

    @pytest.mark.parametrize("n", [1, 2, 9, 1000])
    def test_sorted_prefix_is_the_full_stable_argsort_cut_short(self, n):
        # Four distinct offsets, so most telegraphs tie with others.
        offsets = stream(33, "prefix", n).integers(0, 4, size=n) / 4.0
        full = np.argsort(offsets, kind="stable")
        for k in {1, max(1, n - 1), n}:
            assert np.array_equal(_sorted_prefix(offsets, k), full[:k])

    def test_message_orders_only_the_slots_it_reads(self, monkeypatch):
        schedule = ensemble_schedule(1000, 1.0, stream(34, "prefix"))
        ordered = []
        original = protocol_module._sorted_prefix
        monkeypatch.setattr(protocol_module, "_sorted_prefix", lambda offsets, k: ordered.append(k) or original(offsets, k))
        result = message_on(monkeypatch, schedule, 3, 5)
        assert ordered == [15]
        want_times, want_ids = merged_emissions(schedule, 2000)
        assert np.array_equal(result.hit_telegraph_ids.ravel(), want_ids[:15])
        # A later, longer read orders the whole cycle.
        times, ids = schedule.emissions_after(0, 2000)
        assert ordered == [15, 1000]
        assert np.array_equal(ids, want_ids) and np.array_equal(times, want_times)

    def test_tied_offsets_emit_every_telegraph(self, monkeypatch):
        """Two telegraphs firing together both count: at M=1 the symbols
        alternate between them and the mean symbol time is T/N."""
        schedule = EnsembleSchedule(offsets=[0.5, 0.5], period=1.0)
        result = message_on(monkeypatch, schedule, 1, 100)
        assert result.hit_telegraph_ids.ravel().tolist() == [0, 1] * 50
        assert np.array_equal(result.hit_times.ravel(), 0.5 + np.arange(100) // 2)
        # The mean telescopes to the last emission time over the symbol count.
        assert np.mean(result.symbol_times) == pytest.approx(0.5, abs=1.0 / 100)

    @pytest.mark.parametrize("m, symbols", [(1, 70_000), (28, 5000), (70_000, 3)])
    def test_symbol_blocks_are_bounded_slices_of_one_timeline(self, monkeypatch, m, symbols):
        schedule = ensemble_schedule(7, 0.3, stream(32, "blocks"))
        want_times, want_ids = schedule.emissions_after(0, symbols * m)
        events = []
        read = EnsembleSchedule.emissions_after

        def recorded_read(self, first, count, stride=1):
            events.append(("read", count))
            return read(self, first, count, stride)

        monkeypatch.setattr(EnsembleSchedule, "emissions_after", recorded_read)
        results = {}
        for keep_hits in (True, False):
            events.clear()
            rng = RecordedDraws(stream(36, "tx"), events)
            results[keep_hits] = message_on(monkeypatch, schedule, m, symbols, keep_hits, rng)
            # One read of the timeline, before the first draw; then only draws.
            assert events[0] == ("read", symbols * m if keep_hits else symbols)
            shapes = [size for kind, size in events[1:] if kind == "draw"]
            blocks = [rows for rows, _ in shapes]
            assert len(blocks) == len(events) - 1 > 1 and sum(blocks) == symbols
            assert all(columns == m for _, columns in shapes)
            assert all(rows * m <= max(m, _BLOCK_HITS) for rows in blocks)
        kept, unkept = results[True], results[False]
        assert np.array_equal(kept.hit_times.ravel(), want_times)
        assert np.array_equal(kept.hit_telegraph_ids.ravel(), want_ids)
        assert np.array_equal(kept.symbol_times, np.diff(kept.hit_times[:, -1], prepend=0.0))
        # Not kept, a message reads no hits and gives the same symbol times.
        assert unkept.hit_times is None and unkept.hit_telegraph_ids is None
        assert np.array_equal(unkept.symbol_times, kept.symbol_times)

    def test_emission_overflow_is_refused_without_a_warning(self):
        schedule = EnsembleSchedule(offsets=[0.5], period=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"T \(1e\+308\) is too large"):
                schedule.emissions_after(2, 1)
            times, _ = schedule.emissions_after(0, 2)
        assert times.tolist() == [0.5, 1e308]

    @pytest.mark.parametrize("period", [0.1, 1.0, 2.5])
    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1000])
    @pytest.mark.parametrize("m, symbols", [(1, 5), (3, 5), (7, 300), (28, 40), (1000, 3)])
    def test_strided_and_contiguous_reads_match_the_divmod_layout(self, n, period, m, symbols):
        """Bit for bit, on fresh schedules (each read orders its own slots):
        with more telegraphs than emissions read and with symbols that cross
        a cycle, from the start and from a later symbol."""
        seed = stream(35, "strided", n, str(period)).integers(2**32)

        def fresh():
            return ensemble_schedule(n, period, np.random.default_rng(seed))

        want_times, want_ids = divmod_emissions(fresh(), 0, m * symbols)
        for first in {0, symbols // 2}:
            times, ids = fresh().emissions_after(first * m, (symbols - first) * m)
            assert np.array_equal(times, want_times[first * m :])
            assert np.array_equal(ids, want_ids[first * m :])
            times, ids = fresh().emissions_after((first + 1) * m - 1, symbols - first, stride=m)
            assert np.array_equal(times, want_times[(first + 1) * m - 1 :: m])
            assert np.array_equal(ids, want_ids[(first + 1) * m - 1 :: m])

    @pytest.mark.parametrize(
        "first, count, stride, named",
        [(0, 3, 0, "stride"), (0, 3, -2, "stride"), (0, -1, 1, "count"), (-1, 3, 1, "first")],
    )
    def test_emissions_after_rejects_bad_reads(self, first, count, stride, named):
        schedule = ensemble_schedule(3, 1.0, stream(36, "sched"))
        with pytest.raises(ValueError, match=rf"^{named} must"):
            schedule.emissions_after(first, count, stride=stride)
        times, ids = schedule.emissions_after(5, 0, stride=4)
        assert times.size == 0 and ids.size == 0

    @pytest.mark.parametrize(
        "build, named",
        [
            pytest.param(lambda: EnsembleSchedule(offsets=[np.nan, 0.2], period=1.0), "offsets", id="nan-offset"),
            pytest.param(lambda: EnsembleSchedule(offsets=[0.2], period=math.inf), "period", id="inf-period"),
            pytest.param(lambda: EnsembleSchedule(offsets=[0.2], period=math.nan), "period", id="nan-period"),
            pytest.param(lambda: ensemble_schedule(3, math.inf, stream(0, "t")), "period", id="drawn-inf-period"),
        ],
    )
    def test_non_finite_schedule_inputs_rejected(self, build, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=rf"^{named} must"):
                build()

    def test_mean_emission_count_in_window(self):
        """A window of length M*T/N holds M emissions on average: empirical
        mean over 10^3 seeded schedules within 3 sigma (Poisson-binomial:
        per-telegraph variance <= 1/4)."""
        n, period, m = 10, 1.0, 75
        window = m * period / n
        t0 = 13.37
        counts = []
        rng = stream(123, "window")
        for _ in range(1000):
            offsets = rng.random(n) * period
            per = np.floor((t0 + window - offsets) / period) - np.floor((t0 - offsets) / period)
            counts.append(per.sum())
        sigma = np.sqrt(n * 0.25)
        assert abs(np.mean(counts) - m) <= 3.0 * sigma / np.sqrt(len(counts))


class TestTransmitMessage:
    def test_empty_message(self):
        result = transmit_message([], TransmissionPlan(), ModelMode.UNITARY_QM, DeviceConfig(), stream(0, "tx"))
        assert result.hit_bins is None and result.symbol_error_rate() == 0.0
        for column in (result.sent, result.received, result.symbol_times, result.log_lr, result.fringe_statistic):
            assert column.shape == (0,)

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ValueError, match="bits"):
            transmit_message([2], TransmissionPlan(), ModelMode.UNITARY_QM, DeviceConfig(), stream(0, "tx"))

    @pytest.mark.parametrize(
        "bits",
        [[0, 1, -1], [0.5], [np.nan], ["1"], np.array([[0, 1]]), np.array([[0], [1]]), np.array(1)],
        ids=["-1", "0.5", "nan", "str", "row", "column", "0-d"],
    )
    def test_rejects_bits_outside_0_1_and_non_1d_input(self, bits):
        with pytest.raises(ValueError, match="bits must be a 1-d array of 0s and 1s"):
            transmit_message(bits, TransmissionPlan(), ModelMode.UNITARY_QM, DeviceConfig(), stream(0, "tx"))

    def test_sent_is_a_read_only_copy_of_the_bits(self):
        bits = np.array([True, False, True])
        result = transmit_message(bits, TransmissionPlan(M=3), ModelMode.UNITARY_QM, DeviceConfig(), stream(0, "tx"))
        assert result.sent.tolist() == [1, 0, 1] and result.sent.dtype.kind == "i"
        assert not result.sent.flags.writeable and bits.flags.writeable

    def test_deterministic_for_fixed_seed(self):
        plan = TransmissionPlan(M=50, T=1.0, N=3)
        bits = [0, 1, 1, 0, 1]
        first = transmit_message(bits, plan, ModelMode.NAIVE_COLLAPSE, DeviceConfig(), stream(42, "tx"))
        second = transmit_message(bits, plan, ModelMode.NAIVE_COLLAPSE, DeviceConfig(), stream(42, "tx"))
        assert np.array_equal(first.received, second.received)
        assert np.array_equal(first.symbol_times, second.symbol_times)

    def test_naive_collapse_transmits_reliably(self):
        cfg = DeviceConfig()
        plan = TransmissionPlan(M=PINNED_M_STAR, T=1.0, N=4)
        bits = list(stream(51, "bits").integers(0, 2, size=400))
        result = transmit_message(bits, plan, ModelMode.NAIVE_COLLAPSE, cfg, stream(51, "tx"))
        assert result.symbol_error_rate() <= 0.03

    def test_unitary_receiver_learns_nothing(self):
        cfg = DeviceConfig()
        plan = TransmissionPlan(M=PINNED_M_STAR, T=1.0, N=4)
        bits = list(stream(52, "bits").integers(0, 2, size=600))
        result = transmit_message(bits, plan, ModelMode.UNITARY_QM, cfg, stream(52, "tx"))
        accuracy = 1.0 - result.symbol_error_rate()
        assert abs(accuracy - 0.5) <= 0.07

    def test_kept_hits_are_read_only_symbol_by_pair_arrays(self):
        plan = TransmissionPlan(M=20, T=1.0, N=2)
        result = transmit_message(
            [1, 0], plan, ModelMode.NAIVE_COLLAPSE, DeviceConfig(), stream(4, "tx"), keep_hits=True
        )
        for column in (result.hit_telegraph_ids, result.hit_times, result.hit_bins):
            assert column.shape == (2, plan.M) and not column.flags.writeable
        assert set(result.hit_telegraph_ids.ravel().tolist()) <= {0, 1}
        assert (result.hit_times >= 0).all()
        assert ((result.hit_bins >= 0) & (result.hit_bins < DeviceConfig().bins)).all()

    def test_pooled_order_sorted_once_per_message(self, monkeypatch):
        calls = []
        for name in ("argsort", "lexsort"):
            original = getattr(np, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np, name, counted)
        plan = TransmissionPlan(M=20, T=0.3, N=7)
        counts = []
        for symbols in (2, 40):
            calls.clear()
            transmit_message([0, 1] * (symbols // 2), plan, ModelMode.NAIVE_COLLAPSE, DeviceConfig(), stream(5, "tx"))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("mode", list(ModelMode))
    def test_a_message_draws_its_offsets_then_its_uniforms_from_its_one_generator(self, monkeypatch, mode):
        """The seeding contract: the message's generator ends as a fresh one
        of the same stream that has drawn N offsets and symbols * M uniforms,
        and no other generator is built."""
        calls = []
        for name in ("default_rng", "SeedSequence", "PCG64"):
            original = getattr(np.random, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        plan = TransmissionPlan(M=28, T=1.0, N=3)
        for symbols in (2, 2000):
            rng, fresh = stream(5, "tx"), stream(5, "tx")
            calls.clear()
            bits = [0, 1] * (symbols // 2)
            result = transmit_message(bits, plan, mode, DeviceConfig(), rng, keep_hits=True)
            assert result.hit_bins.shape == (symbols, plan.M)
            assert calls == []
            fresh.random(plan.N + symbols * plan.M)
            assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("mode", list(ModelMode))
    def test_block_size_changes_no_result(self, monkeypatch, mode):
        """Blocks of one symbol, of 7 and one block of the whole message give
        the same arrays, kept hits included: NaiveCollapse draws a block
        through two samplers by mask, UnitaryQM through one."""
        plan = TransmissionPlan(M=27, T=0.3, N=5)
        bits = stream(61, "bits").integers(0, 2, size=300)
        results = {True: [], False: []}
        for block_hits in (1, 200, 1 << 16):
            monkeypatch.setattr(protocol_module, "_BLOCK_HITS", block_hits)
            for keep_hits, kept in results.items():
                kept.append(transmit_message(bits, plan, mode, DeviceConfig(), stream(61, "tx"), keep_hits))
        for keep_hits, (first, *others) in results.items():
            assert (first.hit_bins is not None) == keep_hits
            for other in others:
                for field in dataclasses.fields(TransmissionResult):
                    want, got = getattr(first, field.name), getattr(other, field.name)
                    assert (want is None and got is None) or np.array_equal(want, got), field.name

    @pytest.mark.parametrize("mode", list(ModelMode))
    @pytest.mark.parametrize("k", [1, 150, 299])
    def test_the_first_k_bits_send_the_first_k_symbols_of_the_message(self, mode, k):
        """Symbol s reads row s of the message's uniforms whatever the
        message's length, so a message cut to its first k bits is the first
        k symbols of the whole, kept hits included."""
        plan = TransmissionPlan(M=27, T=0.3, N=5)
        bits = stream(62, "bits").integers(0, 2, size=300)
        whole = transmit_message(bits, plan, mode, DeviceConfig(), stream(62, "tx"), keep_hits=True)
        cut = transmit_message(bits[:k], plan, mode, DeviceConfig(), stream(62, "tx"), keep_hits=True)
        for field in dataclasses.fields(TransmissionResult):
            assert np.array_equal(getattr(cut, field.name), getattr(whole, field.name)[:k]), field.name

    @pytest.mark.parametrize("mode", list(ModelMode))
    @pytest.mark.parametrize("s", [0, 150, 299])
    def test_flipping_one_bit_moves_only_its_own_symbol(self, mode, s):
        """Both messages read the same uniforms. Under NaiveCollapse symbol
        s is drawn from the other pattern and no other symbol moves; under
        UnitaryQM both settings show one pattern, so only ``sent`` moves."""
        plan = TransmissionPlan(M=27, T=0.3, N=5)
        bits = stream(63, "bits").integers(0, 2, size=300)
        flipped = bits.copy()
        flipped[s] ^= 1
        results = [
            transmit_message(b, plan, mode, DeviceConfig(), stream(63, "tx"), keep_hits=True) for b in (bits, flipped)
        ]
        moved = {"sent"} | ({"hit_bins", "log_lr", "fringe_statistic"} if mode is ModelMode.NAIVE_COLLAPSE else set())
        others = np.arange(len(bits)) != s
        for field in dataclasses.fields(TransmissionResult):
            want, got = (getattr(r, field.name) for r in results)
            assert np.array_equal(want[others], got[others]), field.name
            assert np.array_equal(want[s], got[s]) == (field.name not in moved), field.name

    @pytest.mark.parametrize("mode", list(ModelMode))
    @pytest.mark.parametrize("m, symbols", [(28, 5000), (1, 70_000), (70_000, 3)])
    def test_reads_one_emission_per_symbol_unless_hits_are_kept(self, monkeypatch, mode, m, symbols):
        read = []
        original = EnsembleSchedule.emissions_after

        def counted(self, first, count, stride=1):
            times, ids = original(self, first, count, stride)
            read.append(times.size)
            return times, ids

        monkeypatch.setattr(EnsembleSchedule, "emissions_after", counted)
        plan = TransmissionPlan(M=m, T=0.3, N=7)
        bits = stream(37, "bits", m).integers(0, 2, size=symbols)
        for keep_hits, want in ((False, symbols), (True, symbols * m)):
            read.clear()
            transmit_message(bits, plan, mode, DeviceConfig(), stream(37, "tx"), keep_hits=keep_hits)
            assert sum(read) == want

    @pytest.mark.parametrize("mode", list(ModelMode))
    # 200 symbols of 28 pairs and 2000 of 27 are one block each; 2500 of 27
    # are a full block of 2427 and a 73-symbol tail, and 150 of 1000 are
    # three blocks of 65, 65 and 20.
    @pytest.mark.parametrize("symbols, m", [(200, 28), (2000, 27), (2500, 27), (150, 1000)])
    def test_block_decoder_matches_symbol_by_symbol_reference(self, mode, symbols, m):
        """In one block and across several, every symbol equals the
        one-symbol-at-a-time decode: its row of the message's (symbols, M)
        uniforms, drawn after the ensemble's offsets, through a binary search
        of its marginal's CDF, and decide_bit on its hits, bit for bit."""
        cfg = DeviceConfig()
        plan = TransmissionPlan(M=m, T=0.3, N=3)
        bits = [int(b) for b in stream(60, "bits", m).integers(0, 2, size=symbols)]
        result = transmit_message(bits, plan, mode, cfg, stream(60, "tx"), keep_hits=True)
        rng = stream(60, "tx")
        ensemble_schedule(plan.N, plan.T, rng)
        rows = rng.random((symbols, m))
        centers = cfg.bin_centers()
        clock = 0.0
        hypotheses = Hypotheses(cfg, mode)
        for bit, uniforms, bins, times, log_lr, fringe, symbol_time in zip(
            bits,
            rows,
            result.hit_bins,
            result.hit_times,
            result.log_lr,
            result.fringe_statistic,
            result.symbol_times,
            strict=True,
        ):
            detectors = Detector.ON if bit == 1 else Detector.OFF
            probabilities = hypotheses.pattern(detectors)
            assert np.array_equal(centers[bins], centers[clipped_search(probabilities, uniforms)])
            assert (log_lr, fringe) == decide_bit(centers[bins], cfg)
            assert symbol_time == float(times[-1]) - clock
            clock = float(times[-1])
        # Keeping the hits moves nothing else.
        bare = transmit_message(bits, plan, mode, cfg, stream(60, "tx"))
        for name in ("log_lr", "fringe_statistic", "symbol_times"):
            assert np.array_equal(getattr(bare, name), getattr(result, name))
            assert not getattr(result, name).flags.writeable

    def test_symbol_times_accumulate_along_one_timeline(self):
        plan = TransmissionPlan(M=30, T=1.0, N=2)
        result = transmit_message(
            [0, 0, 0], plan, ModelMode.UNITARY_QM, DeviceConfig(), stream(10, "tx"), keep_hits=True
        )
        last_times = result.hit_times[:, -1].tolist()
        assert last_times == sorted(last_times)
        assert result.symbol_times[1] == pytest.approx(last_times[1] - last_times[0], abs=1e-9)


def mean_symbol_time(plan, rng, symbols=32):
    """Mean time to pool M hits across the staggered ensemble."""
    result = transmit_message([0] * symbols, plan, ModelMode.UNITARY_QM, DeviceConfig(), rng)
    return float(np.mean(result.symbol_times))


class TestThroughput:
    def test_single_telegraph_near_mt(self):
        plan = TransmissionPlan(M=100, T=1.0, N=1)
        mean_time = mean_symbol_time(plan, stream(1, "tp"))
        assert abs(mean_time - 100.0) / 100.0 <= 0.15

    def test_hundred_telegraphs_near_mt_over_n(self):
        plan = TransmissionPlan(M=100, T=1.0, N=100)
        mean_time = mean_symbol_time(plan, stream(2, "tp"))
        assert abs(mean_time - 1.0) <= 0.15

    def test_thousand_telegraphs_faster_still(self):
        hundred = mean_symbol_time(TransmissionPlan(M=100, T=1.0, N=100), stream(3, "tp"))
        thousand = mean_symbol_time(TransmissionPlan(M=100, T=1.0, N=1000), stream(3, "tp"))
        assert abs(thousand - 0.1) <= 0.015
        assert thousand < hundred

    def test_mean_symbol_time_non_increasing_in_n(self):
        times = [
            mean_symbol_time(TransmissionPlan(M=1000, T=1.0, N=n), stream(4, "tp", n))
            for n in (1, 10, 100, 1000)
        ]
        assert all(later <= earlier for earlier, later in zip(times, times[1:]))
