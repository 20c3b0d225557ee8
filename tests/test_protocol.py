"""Tests for the telegraph protocol: receiver, planner, ensemble, throughput."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    screen_marginal,
    transmit_message,
    _BLOCK_HITS,
    _BinSampler,
    _sorted_prefix,
    _symbol_windows,
)
from qtelegraph.rng import child_seeds, stream

# The planner's M* at the defaults (alpha = 0.01), certified by its error
# brackets: at M = 26 the incoherent-data error is at least 0.0108, at 27
# both are at most 0.0097.
PINNED_M_STAR = 27

NULL_ALIGNED = DeviceConfig(x_max=5.125, bins=41)


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
            sent=(0, 1, 1),
            symbol_times=np.ones(3),
            log_lr=np.array([1.0, 0.0, -1.0]),
            fringe_statistic=np.zeros(3),
            hit_counts=(1, 1, 1),
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
        off = screen_marginal(cfg, Detector.OFF, ModelMode.NAIVE_COLLAPSE)
        on = screen_marginal(cfg, Detector.ON, ModelMode.NAIVE_COLLAPSE)
        assert np.array_equal(off, coherent_distribution(cfg))
        assert np.array_equal(on, incoherent_distribution(cfg))

    def test_unitary_marginal_is_detector_independent_bitwise(self):
        cfg = DeviceConfig()
        off = screen_marginal(cfg, Detector.OFF, ModelMode.UNITARY_QM)
        on = screen_marginal(cfg, Detector.ON, ModelMode.UNITARY_QM)
        assert np.array_equal(off, on)
        assert np.array_equal(off, incoherent_distribution(cfg))
        assert not off.flags.writeable


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
        bins=st.integers(1, 4096),
        zero_fraction=st.sampled_from([0.0, 0.3, 0.9]),
        skew=st.floats(0.0, 60.0),
        total_error=st.sampled_from([-1e-13, 0.0, 1e-13]),
        seed=st.integers(0, 2**32 - 1),
        extra=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20),
    )
    def test_matches_clipped_binary_search(self, bins, zero_fraction, skew, total_error, seed, extra):
        """Exact for any probability vector (empty bins, tiny bins, a total
        off 1 by 1e-13) and any uniform, including 0, every CDF value, every
        bucket edge and the floats either side of each."""
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
        probabilities = coherent_distribution(DeviceConfig())
        sampler = _BinSampler(probabilities)
        u = stream(3, "draw").random(50_000)
        assert np.array_equal(sampler.draw(50_000, stream(3, "draw")), clipped_search(probabilities, u))
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
        for symbols in (2, 40):
            bits = [0, 1] * (symbols // 2)
            assert searches(lambda: transmit_message(bits, plan, ModelMode.NAIVE_COLLAPSE, cfg, stream(5, "tx"))) == 2

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
        with pytest.raises(ValueError, match="grid"):
            decide_bit([1000.0], DeviceConfig())


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
    """Every bracket the planner computes, as (m, step, brackets)."""
    probes = []
    original = protocol_module._error_brackets

    def recording(laws, table, m, step):
        brackets = original(laws, table, m, step)
        probes.append((m, step, brackets))
        return brackets

    monkeypatch.setattr(protocol_module, "_error_brackets", recording)
    return probes


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
        below = [brackets for m, _, brackets in probes if m == m_star - 1]
        assert any(lo > alpha for lo, _ in below[-1])
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
        assert len({m for m, _, _ in probes}) >= 8
        estimates = {}
        for m, _, brackets in probes:
            if m not in estimates:
                estimates[m] = mc_error_rates(cfg, m, trials, stream(78, "probe", m))
            for estimate, (lo, hi) in zip(estimates[m], brackets):
                assert lo - 3.0 * math.sqrt(lo * (1 - lo) / trials) <= estimate, (m, lo, estimate)
                assert estimate <= hi + 3.0 * math.sqrt(hi * (1 - hi) / trials), (m, hi, estimate)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    @pytest.mark.parametrize("step", [0.5, 0.1, 1e-2])
    def test_brackets_hold_the_exhaustive_error_rates(self, m, step):
        """On a 24-bin grid every one of the 24^m hit tuples is enumerated:
        the exact error rates of the receiver's sum lie inside the brackets,
        at every lattice step."""
        cfg = DeviceConfig(bins=24)
        p_c = coherent_distribution(cfg)
        p_i = incoherent_distribution(cfg)
        table = floored_log_ratio(p_c, p_i)
        grids = np.ix_(*[np.arange(table.size)] * m)
        llr = sum(table[grid] for grid in grids)
        weight_c = math.prod(p_c[grid] for grid in grids)
        weight_i = math.prod(p_i[grid] for grid in grids)
        err_c = weight_c[llr <= 0].sum()
        err_i = weight_i[llr > 0].sum()
        (lo_c, hi_c), (lo_i, hi_i) = protocol_module._error_brackets((p_c, p_i), table, m, step)
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
        p_c = coherent_distribution(cfg)
        p_i = incoherent_distribution(cfg)
        offsets, _ = protocol_module._on_lattice(floored_log_ratio(p_c, p_i), m, step)
        for probabilities in (p_c, p_i):
            law, allowance = protocol_module._lattice_law(probabilities, offsets, m)
            reference = direct_power(np.bincount(offsets, weights=probabilities), m)
            assert law.shape == reference.shape
            assert np.abs(np.cumsum(law) - np.cumsum(reference)).max() <= allowance
            assert np.abs(np.cumsum(law[::-1]) - np.cumsum(reference[::-1])).max() <= allowance
            assert allowance < 1e-10


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

    def test_message_orders_only_the_slots_it_reads(self):
        schedule = ensemble_schedule(1000, 1.0, stream(34, "prefix"))
        blocks = list(_symbol_windows(schedule, 3, 5))
        assert schedule.order.size == 15
        want_times, want_ids = merged_emissions(schedule, 2000)
        assert np.array_equal(np.concatenate([ids.ravel() for _, ids, _ in blocks]), want_ids[:15])
        # A later, longer read orders the rest of the cycle.
        times, ids = schedule.emissions_after(0, 2000)
        assert schedule.order.size == 1000
        assert np.array_equal(ids, want_ids) and np.array_equal(times, want_times)

    def test_tied_offsets_emit_every_telegraph(self):
        """Two telegraphs firing together both count: at M=1 the symbols
        alternate between them and the mean symbol time is T/N."""
        schedule = EnsembleSchedule(offsets=[0.5, 0.5], period=1.0)
        windows = list(_symbol_windows(schedule, 1, 100))
        ids = np.concatenate([w[1].ravel() for w in windows])
        times = np.concatenate([w[0].ravel() for w in windows])
        assert ids.tolist() == [0, 1] * 50
        assert np.array_equal(times, 0.5 + np.arange(100) // 2)
        # The mean telescopes to the last emission time over the symbol count.
        mean_time = np.mean(np.concatenate([w[2] for w in windows]))
        assert mean_time == pytest.approx(0.5, abs=1.0 / 100)

    @pytest.mark.parametrize("m, symbols", [(1, 70_000), (28, 5000), (70_000, 3)])
    def test_symbol_blocks_are_bounded_slices_of_one_timeline(self, m, symbols):
        schedule = ensemble_schedule(7, 0.3, stream(32, "blocks"))
        blocks = list(_symbol_windows(schedule, m, symbols))
        assert len(blocks) > 1
        assert all(times.size <= max(m, _BLOCK_HITS) for times, _, _ in blocks)
        times = np.concatenate([block[0] for block in blocks])
        ids = np.concatenate([block[1] for block in blocks])
        want_times, want_ids = schedule.emissions_after(0, symbols * m)
        assert np.array_equal(times.ravel(), want_times)
        assert np.array_equal(ids.ravel(), want_ids)
        symbol_times = np.concatenate([block[2] for block in blocks])
        assert np.array_equal(symbol_times, np.diff(times[:, -1], prepend=0.0))

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
        assert result.sent == () and result.hit_counts == () and result.hit_bins is None
        for column in (result.received, result.symbol_times, result.log_lr, result.fringe_statistic):
            assert column.shape == (0,)

    def test_rejects_non_binary_bits(self):
        with pytest.raises(ValueError, match="bits"):
            transmit_message([2], TransmissionPlan(), ModelMode.UNITARY_QM, DeviceConfig(), stream(0, "tx"))

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

    def test_generators_seeded_once_per_message(self, monkeypatch):
        calls = []
        for name in ("default_rng", "SeedSequence", "PCG64"):
            original = getattr(np.random, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.random, name, counted)
        plan = TransmissionPlan(M=28, T=1.0, N=3)
        counts = []
        for symbols in (2, 2000):
            rng = stream(5, "tx")
            calls.clear()
            bits = [0, 1] * (symbols // 2)
            result = transmit_message(bits, plan, ModelMode.NAIVE_COLLAPSE, DeviceConfig(), rng, keep_hits=True)
            assert result.hit_bins.shape == (symbols, plan.M)
            counts.append(sorted(calls))
        assert counts[0] == counts[1] == ["PCG64"]

    @pytest.mark.parametrize("mode", list(ModelMode))
    # 200 symbols of 28 pairs reset a generator per symbol and 2000 of 27 step
    # PCG64 lanes (a block of at least 16*M symbols); 2500 of 27 step a full
    # block of 2427 and reset for the 73-symbol tail.
    @pytest.mark.parametrize("symbols, m", [(200, 28), (2000, 27), (2500, 27), (150, 1000)])
    def test_block_decoder_matches_symbol_by_symbol_reference(self, mode, symbols, m):
        """In one block and across several, every symbol equals the
        one-symbol-at-a-time decode: its own generator's uniforms through a
        binary search of its marginal's CDF, and decide_bit on its hits, bit
        for bit."""
        cfg = DeviceConfig()
        plan = TransmissionPlan(M=m, T=0.3, N=3)
        bits = [int(b) for b in stream(60, "bits", m).integers(0, 2, size=symbols)]
        result = transmit_message(bits, plan, mode, cfg, stream(60, "tx"), keep_hits=True)
        rng = stream(60, "tx")
        ensemble_schedule(plan.N, plan.T, rng)
        seeds = child_seeds(rng, symbols)
        centers = cfg.bin_centers()
        clock = 0.0
        for bit, seed, bins, times, log_lr, fringe, symbol_time in zip(
            bits,
            seeds,
            result.hit_bins,
            result.hit_times,
            result.log_lr,
            result.fringe_statistic,
            result.symbol_times,
            strict=True,
        ):
            detectors = Detector.ON if bit == 1 else Detector.OFF
            probabilities = screen_marginal(cfg, detectors, mode)
            uniforms = np.random.default_rng(int(seed)).random(m)
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
