"""Entanglement telegraph at desk scale.

Models the two-pipe entangled-pair device whose sender toggles which-path
detectors and whose receiver watches an interference screen, reproduces the
claimed faster-than-light telegraph under a naive collapse model, refutes it
under unitary quantum mechanics with exact no-signaling checks, and computes
the two-telegraph signal-to-the-past loop geometry with its inconsistent
automaton.
"""

from .device import (
    DeviceConfig,
    EraserConditionals,
    ScreenDistribution,
    build_joint_state,
    coherent_distribution,
    eraser_conditionals,
    incoherent_distribution,
    write_distributions_csv,
)
from .nosignal import (
    NoSignalReport,
    eraser_decomposition_check,
    jensen_shannon_bits,
    plugin_mutual_information,
    total_variation,
    verify_no_signaling,
)
from .protocol import (
    DecisionResult,
    Detector,
    EnsembleSchedule,
    INTERFERENCE,
    ModelMode,
    NO_INTERFERENCE,
    SampleSizeResult,
    SymbolHits,
    TransmissionPlan,
    TransmissionResult,
    decide_bit,
    ensemble_schedule,
    required_sample_size,
    sample_hits,
    screen_marginal,
    transmit_message,
)
from .quantum import (
    DensityMatrix,
    MeasurementBasis,
    QuantumStateError,
    StateVector,
    born_probabilities,
    density_from_state,
    normalize,
    partial_trace,
    trace_distance,
)
from .relativity import (
    AutomatonRule,
    Event,
    NEGATION_RULE,
    ParadoxTrace,
    PrivilegedFrame,
    StateDependentFrames,
    automaton_fixed_points,
    boost,
    build_paradox,
    interval,
    signal_reception,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [
    "AutomatonRule",
    "DecisionResult",
    "DensityMatrix",
    "Detector",
    "DeviceConfig",
    "EnsembleSchedule",
    "EraserConditionals",
    "Event",
    "INTERFERENCE",
    "MeasurementBasis",
    "ModelMode",
    "NEGATION_RULE",
    "NO_INTERFERENCE",
    "NoSignalReport",
    "ParadoxTrace",
    "PrivilegedFrame",
    "QuantumStateError",
    "SampleSizeResult",
    "ScreenDistribution",
    "StateDependentFrames",
    "StateVector",
    "SymbolHits",
    "TransmissionPlan",
    "TransmissionResult",
    "automaton_fixed_points",
    "boost",
    "born_probabilities",
    "build_joint_state",
    "build_paradox",
    "coherent_distribution",
    "decide_bit",
    "density_from_state",
    "ensemble_schedule",
    "eraser_conditionals",
    "eraser_decomposition_check",
    "incoherent_distribution",
    "interval",
    "jensen_shannon_bits",
    "normalize",
    "partial_trace",
    "plugin_mutual_information",
    "required_sample_size",
    "sample_hits",
    "screen_marginal",
    "signal_reception",
    "stream",
    "total_variation",
    "trace_distance",
    "transmit_message",
    "verify_no_signaling",
    "write_distributions_csv",
]
