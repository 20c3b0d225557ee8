"""Tests for Minkowski kinematics and the two-telegraph causal loop."""

import itertools

import numpy as np
import pytest

from qtelegraph.relativity import (
    Event,
    M1,
    M2,
    NEGATION_RULE,
    PrivilegedFrame,
    StateDependentFrames,
    automaton_fixed_points,
    boost,
    build_paradox,
    interval,
    signal_reception,
)


class TestEventAndFrame:
    def test_non_finite_event_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            Event(t=float("nan"), x=0.0)

    def test_luminal_frame_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            boost(Event(0.0, 0.0), 1.0)

    def test_nan_velocity_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            signal_reception(Event(0.0, 0.0), 1.0, float("nan"))

    @pytest.mark.parametrize("strategy", [PrivilegedFrame, StateDependentFrames])
    def test_frame_strategies_reject_luminal_velocity(self, strategy):
        with pytest.raises(ValueError, match="beta"):
            strategy(-1.0)


class TestBoost:
    def test_zero_velocity_is_identity(self):
        e = Event(1.25, -3.5)
        assert boost(e, 0.0) == e

    def test_reference_value(self):
        # gamma = 1.25 at beta = 0.6: (0, 1) -> (-0.75, 1.25).
        out = boost(Event(0.0, 1.0), 0.6)
        assert out.t == pytest.approx(-0.75, abs=1e-12)
        assert out.x == pytest.approx(1.25, abs=1e-12)

    def test_inverse_composition(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            e = Event(*rng.normal(scale=5.0, size=2))
            beta = float(rng.uniform(-0.95, 0.95))
            back = boost(boost(e, beta), -beta)
            assert back.t == pytest.approx(e.t, abs=1e-12)
            assert back.x == pytest.approx(e.x, abs=1e-12)

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError, match="beta"):
            boost(Event(0.0, 0.0), 1.5)


class TestInterval:
    def test_coincident_events(self):
        e = Event(2.0, 3.0)
        assert interval(e, e) == 0.0

    def test_pure_spacelike(self):
        assert interval(Event(0.0, 0.0), Event(0.0, 1.0)) == -1.0

    def test_boost_invariance(self):
        rng = np.random.default_rng(13)
        for beta in (0.9, -0.9):
            for _ in range(25):
                e1 = Event(*rng.normal(scale=3.0, size=2))
                e2 = Event(*rng.normal(scale=3.0, size=2))
                before = interval(e1, e2)
                after = interval(boost(e1, beta), boost(e2, beta))
                assert abs(before - after) < 1e-10


class TestSignalReception:
    def test_lab_frame_is_lab_simultaneous(self):
        out = signal_reception(Event(4.0, 2.0), -1.0, 0.0)
        assert out == Event(4.0, -1.0)

    def test_reference_value_and_cross_check(self):
        # Simultaneity slope: emission (0, 1) received at x=0 in the
        # beta=0.5 frame -> (-0.5, 0); both events share t' in that frame.
        emission = Event(0.0, 1.0)
        reception = signal_reception(emission, 0.0, 0.5)
        assert reception.t == pytest.approx(-0.5, abs=1e-12)
        assert reception.x == 0.0
        assert boost(emission, 0.5).t == pytest.approx(boost(reception, 0.5).t, abs=1e-12)

    def test_zero_distance_is_identity(self):
        emission = Event(1.0, 3.0)
        assert signal_reception(emission, 3.0, 0.7) == emission


class TestBuildParadox:
    def test_state_dependent_reference_geometry(self):
        trace = build_paradox(StateDependentFrames(0.5), 1.0)
        assert trace.a_reception == Event(-0.5, 0.0)
        assert trace.b_emission == trace.a_reception
        assert trace.b_reception.t == pytest.approx(-1.0, abs=1e-12)
        assert trace.b_reception.x == pytest.approx(1.0, abs=1e-12)
        assert trace.loop_advance == pytest.approx(1.0, abs=1e-12)
        assert trace.closed_loop

    def test_zero_velocity_never_advances(self):
        trace = build_paradox(StateDependentFrames(0.0), 1.0)
        assert trace.loop_advance == 0.0
        assert not trace.closed_loop
        for event in (trace.a_emission, trace.a_reception, trace.b_reception):
            assert event.t == 0.0

    @pytest.mark.parametrize("v", [1e-300, -1e-300, 5e-324])
    def test_advance_underflowing_to_zero_rejected(self, v):
        with pytest.raises(ValueError, match=f"separation=1e-30 at frame speed v={v}: the loop advance"):
            build_paradox(StateDependentFrames(v), 1e-30)

    def test_zero_advances_that_are_exact_kept(self):
        assert build_paradox(StateDependentFrames(0.0), 1e-30).loop_advance == 0.0
        assert build_paradox(PrivilegedFrame(1e-300), 1e-30).loop_advance == 0.0
        # A subnormal advance still closes the loop.
        assert build_paradox(StateDependentFrames(1e-300), 2.5e-24).closed_loop

    def test_privileged_frame_round_trip_cancels(self):
        trace = build_paradox(PrivilegedFrame(0.3), 1.0)
        assert trace.b_reception == Event(0.0, 1.0)
        assert trace.b_reception == trace.a_emission
        assert trace.loop_advance == 0.0
        assert not trace.closed_loop

    def test_invalid_separation_rejected(self):
        with pytest.raises(ValueError, match="separation"):
            build_paradox(StateDependentFrames(0.5), 0.0)

    @pytest.mark.parametrize(
        "v,x", list(itertools.product((0.1, 0.5, 0.9), (1.0, 10.0)))
    )
    def test_loop_advance_formula(self, v, x):
        trace = build_paradox(StateDependentFrames(v), x)
        assert abs(trace.loop_advance - 2.0 * v * x) < 1e-12
        assert trace.closed_loop

    @pytest.mark.parametrize("beta0", [-0.9, -0.3, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("x", [1.0, 10.0])
    def test_privileged_strategy_never_closes(self, beta0, x):
        trace = build_paradox(PrivilegedFrame(beta0), x)
        assert abs(trace.loop_advance) < 1e-12
        assert not trace.closed_loop

    @pytest.mark.parametrize(
        "strategy",
        [StateDependentFrames(0.5), StateDependentFrames(0.9), PrivilegedFrame(0.4)],
    )
    def test_legs_simultaneous_in_their_own_frames(self, strategy):
        trace = build_paradox(strategy, 3.0)
        for emission, reception, beta in trace.legs():
            dt = boost(emission, beta).t - boost(reception, beta).t
            assert abs(dt) < 1e-12

    def test_legs_are_spacelike(self):
        trace = build_paradox(StateDependentFrames(0.7), 2.0)
        for emission, reception, _ in trace.legs():
            assert interval(emission, reception) < 0.0

    def test_event_rows_and_dict(self):
        trace = build_paradox(StateDependentFrames(0.5), 1.0)
        rows = trace.event_rows()
        assert [row[0] for row in rows] == [
            "a_emission",
            "a_reception",
            "b_emission",
            "b_reception",
        ]
        payload = trace.to_dict()
        assert payload["loop_advance"] == pytest.approx(1.0, abs=1e-12)
        assert payload["closed_loop"] is True


class TestAutomaton:
    def test_negation_rule_has_no_fixed_point(self):
        assert automaton_fixed_points(NEGATION_RULE) == set()

    def test_negation_rule_is_read_only(self):
        assert dict(NEGATION_RULE) == {M1: M2, M2: M1}
        with pytest.raises(TypeError):
            NEGATION_RULE[M1] = M1

    def test_identity_rule_fixes_everything(self):
        assert automaton_fixed_points({M1: M1, M2: M2}) == {M1, M2}

    def test_constant_rule(self):
        assert automaton_fixed_points({M1: M1, M2: M1}) == {M1}

    def test_closed_loop_plus_negation_flags_contradiction(self):
        trace = build_paradox(StateDependentFrames(0.5), 1.0)
        fixed = automaton_fixed_points(NEGATION_RULE)
        assert trace.closed_loop and not fixed
