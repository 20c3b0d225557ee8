"""1+1 Minkowski kinematics for the two-telegraph causal loop (c = 1).

An "instantaneous" signal is one whose emission and reception are
simultaneous in some inertial frame; in the lab chart the simultaneity lines
of a frame moving at beta have slope beta, so the reception of a signal
emitted at (t, x) and received at x_rec happens at t + beta*(x_rec - x).
Chaining two such legs through oppositely-moving frames sends the message
into the emitter's own past; giving both legs one shared (privileged) frame
closes the loop back to zero advance. An automaton that retransmits the
negation of what it receives then has no consistent message assignment,
which is the loop's contradiction.

A ``ParadoxTrace`` stores the three events the two legs determine (A's
emission and reception, B's reception) and the two frame velocities. B
retransmits at A's reception, so B's emission is that event, and the loop
advance is the time between A's emission and B's reception: both are derived
on read. An automaton is a plain received -> transmitted mapping;
``NEGATION_RULE`` is the read-only negation of m1 and m2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Hashable, Mapping

M1 = "m1"
M2 = "m2"


@dataclass(frozen=True)
class Event:
    """A point of 1+1 spacetime in lab coordinates, c = 1."""

    t: float
    x: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and math.isfinite(self.x)):
            raise ValueError(f"event coordinates must be finite (got t={self.t}, x={self.x})")


def _as_beta(frame: float) -> float:
    """An inertial frame velocity beta, which must satisfy |beta| < 1 strictly."""
    beta = float(frame)
    if not abs(beta) < 1.0:
        raise ValueError(f"|beta| must be < 1 (got {beta})")
    return beta


@dataclass(frozen=True)
class PrivilegedFrame:
    """Collapse is instantaneous in one universal frame of velocity beta0."""

    beta0: float

    def __post_init__(self) -> None:
        _as_beta(self.beta0)


@dataclass(frozen=True)
class StateDependentFrames:
    """Each telegraph carries its own rest frame: +v for A, -v for B."""

    v: float

    def __post_init__(self) -> None:
        _as_beta(self.v)


FrameStrategy = PrivilegedFrame | StateDependentFrames


def boost(event: Event, frame: float) -> Event:
    """Lorentz boost: t' = gamma (t - beta x), x' = gamma (x - beta t)."""
    beta = _as_beta(frame)
    gamma = 1.0 / math.sqrt(1.0 - beta * beta)
    return Event(
        t=gamma * (event.t - beta * event.x),
        x=gamma * (event.x - beta * event.t),
    )


def interval(e1: Event, e2: Event) -> float:
    """Invariant interval (dt)^2 - (dx)^2; negative means spacelike."""
    dt = e2.t - e1.t
    dx = e2.x - e1.x
    return dt * dt - dx * dx


def signal_reception(emission: Event, x_rec: float, frame: float) -> Event:
    """Reception event of an instantaneous signal, simultaneous in ``frame``.

    Simultaneity in a frame of velocity beta means dt = beta * dx in the lab.
    """
    beta = _as_beta(frame)
    return Event(t=emission.t + beta * (x_rec - emission.x), x=float(x_rec))


@dataclass(frozen=True)
class ParadoxTrace:
    """The A/B loop: A's emission and reception, then B's reception."""

    a_emission: Event
    a_reception: Event
    b_reception: Event
    frame_a: float
    frame_b: float

    @property
    def b_emission(self) -> Event:
        """B retransmits at once where and when A's signal arrives."""
        return self.a_reception

    @property
    def loop_advance(self) -> float:
        """t(A emission) - t(B reception); positive means the round trip
        delivered the message strictly before it was sent."""
        return self.a_emission.t - self.b_reception.t

    @property
    def closed_loop(self) -> bool:
        """True when the round trip arrives strictly before the emission."""
        return self.loop_advance > 0

    def legs(self) -> tuple[tuple[Event, Event, float], tuple[Event, Event, float]]:
        """(emission, reception, frame velocity) for the A leg and the B leg."""
        return (
            (self.a_emission, self.a_reception, self.frame_a),
            (self.b_emission, self.b_reception, self.frame_b),
        )

    def event_rows(self) -> list[tuple[str, float, float]]:
        """(label, t, x) rows for spacetime-diagram plotting."""
        return [
            ("a_emission", self.a_emission.t, self.a_emission.x),
            ("a_reception", self.a_reception.t, self.a_reception.x),
            ("b_emission", self.b_emission.t, self.b_emission.x),
            ("b_reception", self.b_reception.t, self.b_reception.x),
        ]

    def to_dict(self) -> dict:
        return {
            **{label: {"t": t, "x": x} for label, t, x in self.event_rows()},
            "frame_a": self.frame_a,
            "frame_b": self.frame_b,
            "loop_advance": self.loop_advance,
            "closed_loop": self.closed_loop,
        }


def build_paradox(strategy: FrameStrategy, separation: float) -> ParadoxTrace:
    """Chain the two instantaneous legs of the A/B loop.

    A emits at (0, separation) toward x = 0; the reception is immediately
    retransmitted through B back to the emission position. State-dependent
    frames (+v then -v) advance the message by 2*v*separation into the past,
    and an advance that overflows, or underflows to 0 at v != 0, is refused;
    a privileged frame cancels over the round trip.
    """
    if not separation > 0:
        raise ValueError(f"separation must be > 0 (got {separation})")
    if isinstance(strategy, StateDependentFrames):
        frame_a, frame_b = strategy.v, -strategy.v
    elif isinstance(strategy, PrivilegedFrame):
        frame_a = frame_b = strategy.beta0
    else:
        raise TypeError(f"unknown frame strategy {strategy!r}")

    a_emission = Event(t=0.0, x=float(separation))
    a_reception = signal_reception(a_emission, 0.0, frame_a)
    try:  # -2*v*separation overflows for state-dependent frames; 0 for a privileged one.
        b_reception = signal_reception(a_reception, float(separation), frame_b)
    except ValueError as exc:
        raise ValueError(f"separation={separation} at frame speed v={frame_a}: {exc}") from None
    trace = ParadoxTrace(
        a_emission=a_emission,
        a_reception=a_reception,
        b_reception=b_reception,
        frame_a=frame_a,
        frame_b=frame_b,
    )
    # At v != 0 the advance 2*v*separation is nonzero; rounded to 0 it would
    # report an open loop where there is a closed (or reversed) one.
    if isinstance(strategy, StateDependentFrames) and frame_a != 0 and trace.loop_advance == 0:
        raise ValueError(
            f"separation={separation} at frame speed v={frame_a}: the loop advance "
            f"2*v*separation underflows to 0"
        )
    return trace


NEGATION_RULE: Mapping[str, str] = MappingProxyType({M1: M2, M2: M1})


def automaton_fixed_points(rule: Mapping[Hashable, Hashable]) -> set:
    """Messages the closed loop can consistently feed the automaton whose
    received -> transmitted map is ``rule``.

    Empty means no self-consistent assignment exists: the contradiction.
    """
    return {message for message, sent in rule.items() if sent == message}
