"""Entanglement telegraph at desk scale.

Models the two-pipe entangled-pair device whose sender toggles which-path
detectors and whose receiver watches an interference screen, reproduces the
claimed faster-than-light telegraph under a naive collapse model, refutes it
under unitary quantum mechanics with exact no-signaling checks, and computes
the two-telegraph signal-to-the-past loop geometry with its inconsistent
automaton.

The package exports nothing itself: each public name is imported from its
own module, e.g. ``from qtelegraph.device import DeviceConfig``.
"""
