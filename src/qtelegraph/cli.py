"""Operator surface: one table of config keys, six subcommands, report files.

Every config key is declared once, in ``CONFIG_KEYS``, with its converter,
default and help text; the defaults, one ``--flag`` per key and the report
header derive from that table. Config documents are lines of
``key: value``; '#' lines and blank lines are ignored and unknown keys are
rejected by name. A flag takes the same plain string as a config-file line
and goes through the same converter, so a bad value from either exits 2 with
``error: <key> ...``; flags override the file. All artifacts embed the fully
resolved config (seed included) so a report is reproducible from its own
header, and nothing time- or host-dependent is written, so identical
(config, seed) runs are byte-identical. A string value must be a single line,
since each CSV and text report repeats it on a ``# key: value`` line. The
reports are written by :mod:`qtelegraph.report`.

Subcommands: simulate, plan, transmit, nosignal-check, paradox,
distributions. ``nosignal-check`` exits nonzero on a fail verdict so CI can
assert the no-signaling property with a single command.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .device import DeviceConfig, write_distributions_csv
from .nosignal import verify_no_signaling
from .protocol import (
    Detector,
    ModelMode,
    TransmissionPlan,
    TransmissionResult,
    check_alpha,
    required_sample_size,
    transmit_message,
)
from .relativity import (
    NEGATION_RULE,
    PrivilegedFrame,
    StateDependentFrames,
    automaton_fixed_points,
    build_paradox,
)
from .report import Coded, Records, write_csv, write_json, write_text
from .rng import stream

# transmit peaks at about 160 B per symbol, its arrays (by tracemalloc at 10^5
# symbols; 193 MiB max RSS at 10^6), so a message of this many symbols, random
# or given as bits, takes about 0.2 GB.
MAX_SYMBOLS = 10**6

STRATEGY_STATE_DEPENDENT = "state-dependent"
STRATEGY_PRIVILEGED = "privileged"


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run configuration.

    ``values`` is the flat converted key -> value mapping, and each key also
    reads as an attribute (``cfg.seed``); ``device``, ``plan``, ``mode`` and
    ``detectors`` are the objects built from it.
    """

    values: Mapping[str, object]
    device: DeviceConfig
    plan: TransmissionPlan
    mode: ModelMode
    detectors: Detector

    def __getattr__(self, key: str):
        if key in CONFIG_KEYS:
            return self.values[key]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {key!r}")

    def resolved(self) -> dict:
        """The flat key -> value mapping every artifact embeds."""
        return dict(self.values)


def _to_int(key: str, value) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer")
    if isinstance(value, int):
        return value
    try:
        return int(str(value).strip())
    except ValueError:
        raise ConfigError(f"{key} must be an integer (got {value!r})") from None


def _to_float(key: str, value) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = float(value)
    else:
        try:
            number = float(str(value).strip())
        except ValueError:
            raise ConfigError(f"{key} must be a number (got {value!r})") from None
    if not math.isfinite(number):
        raise ConfigError(f"{key} must be finite (got {value!r})")
    return number


def _to_str(key: str, value) -> str:
    text = str(value).strip()
    # Every report repeats the value on one '# key: value' header line.
    if len(text.splitlines()) > 1:
        raise ConfigError(f"{key} must be a single line (got {text!r})")
    return text


def _to_enum(cls: type[Enum], key: str, value: str) -> Enum:
    try:
        return cls(value)
    except ValueError:
        choices = " or ".join(repr(member.value) for member in cls)
        raise ConfigError(f"{key} must be {choices} (got {value!r})") from None


class ConfigKey(NamedTuple):
    """How one config key's value is converted, its default and its help."""

    convert: Callable[[str, object], object]
    default: object
    help: str


# Every config key, once. Config files, defaults, the ``--flag`` for each key
# (the name with '_' as '-') and the report header all derive from this table.
CONFIG_KEYS: dict[str, ConfigKey] = {
    "seed": ConfigKey(
        _to_int, 0, "master seed in [0, 2**64); all randomness derives from named substreams"
    ),
    "kappa": ConfigKey(_to_float, math.pi, "fringe wavenumber (radians per screen unit)"),
    "envelope_width": ConfigKey(_to_float, 2.0, "Gaussian envelope width of both pipe amplitudes"),
    "x_max": ConfigKey(_to_float, 5.0, "screen half-width in envelope widths"),
    "bins": ConfigKey(_to_int, 256, "screen bins"),
    "relative_phase": ConfigKey(_to_float, 0.0, "extra phase on pipe 2"),
    "M": ConfigKey(_to_int, 1000, "photon pairs pooled per symbol"),
    "T": ConfigKey(_to_float, 1.0, "pair production period per telegraph"),
    "N": ConfigKey(_to_int, 1, "telegraphs in the staggered ensemble"),
    "alpha": ConfigKey(_to_float, 0.01, "target per-hypothesis error probability for plan"),
    "mode": ConfigKey(
        _to_str, ModelMode.UNITARY_QM.value, "device model: UnitaryQM or NaiveCollapse"
    ),
    "detectors": ConfigKey(
        _to_str, Detector.OFF.value, "detector setting used by simulate: on or off"
    ),
    "bits": ConfigKey(_to_str, "", "explicit bit string for transmit"),
    "symbols": ConfigKey(_to_int, 16, "random bits for transmit when bits is empty"),
    "strategy": ConfigKey(
        _to_str, STRATEGY_STATE_DEPENDENT, "paradox frames: state-dependent or privileged"
    ),
    "v": ConfigKey(_to_float, 0.5, "state-dependent frame speed"),
    "beta0": ConfigKey(_to_float, 0.3, "privileged frame velocity"),
    "separation": ConfigKey(_to_float, 1.0, "telegraph separation X for paradox"),
    "output_dir": ConfigKey(_to_str, ".", "artifact directory"),
}


def parse_document(text: str) -> dict:
    """Parse a flat ``key: value`` document into a raw mapping."""
    raw: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if ":" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key: value', got {stripped!r}")
        key, _, value = stripped.partition(":")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(overrides: dict) -> RunConfig:
    """Fill defaults, convert and validate a raw key mapping."""
    values = {key: spec.default for key, spec in CONFIG_KEYS.items()}
    for key, value in overrides.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = CONFIG_KEYS[key].convert(key, value)

    try:
        device = DeviceConfig(**{f.name: values[f.name] for f in fields(DeviceConfig)})
        plan = TransmissionPlan(**{f.name: values[f.name] for f in fields(TransmissionPlan)})
        check_alpha(values["alpha"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    mode = _to_enum(ModelMode, "mode", values["mode"])
    detectors = _to_enum(Detector, "detectors", values["detectors"])

    if not 0 <= values["seed"] < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64) (got {values['seed']})")
    if values["bits"] and set(values["bits"]) - {"0", "1"}:
        raise ConfigError(f"bits must contain only '0' and '1' (got {values['bits']!r})")
    if len(values["bits"]) > MAX_SYMBOLS:
        raise ConfigError(
            f"bits must hold at most {MAX_SYMBOLS} symbols (got {len(values['bits'])})"
        )
    if not 0 <= values["symbols"] <= MAX_SYMBOLS:
        raise ConfigError(f"symbols must be in [0, {MAX_SYMBOLS}] (got {values['symbols']})")
    if values["strategy"] not in (STRATEGY_STATE_DEPENDENT, STRATEGY_PRIVILEGED):
        raise ConfigError(
            f"strategy must be '{STRATEGY_STATE_DEPENDENT}' or "
            f"'{STRATEGY_PRIVILEGED}' (got {values['strategy']!r})"
        )
    if not abs(values["v"]) < 1.0:
        raise ConfigError(f"v must satisfy |v| < 1 (got {values['v']})")
    if not abs(values["beta0"]) < 1.0:
        raise ConfigError(f"beta0 must satisfy |beta0| < 1 (got {values['beta0']})")
    if not values["separation"] > 0:
        raise ConfigError(f"separation must be > 0 (got {values['separation']})")

    return RunConfig(MappingProxyType(values), device, plan, mode, detectors)


def _config_comment_lines(cfg: RunConfig) -> list[str]:
    return [f"{key}: {value}" for key, value in sorted(cfg.resolved().items())]


# The report's verdict for each received bit.
VERDICTS = ("interference", "no-interference")


def _write_hits_csv(path: Path, cfg: RunConfig, result: TransmissionResult) -> None:
    """hits.csv: one row per kept hit, in pooled order, columns telegraph_id,
    time and x.

    Every x is the center of the hit's bin, so x is written from the bin's
    code through one repr per bin. Writing the centers as a float column gives
    the same bytes, but at 10^5 hits took 33-45 ms against 16-19 ms this way
    (best of 5, three rounds, 2-core x86-64).
    """
    centers = cfg.device.bin_centers()
    columns = (
        result.hit_telegraph_ids.ravel(),
        result.hit_times.ravel(),
        Coded(result.hit_bins.ravel(), lambda b: float.__repr__(float(centers[b]))),
    )
    write_csv(path, _config_comment_lines(cfg), ("telegraph_id", "time", "x"), columns)


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    bit = 1 if cfg.detectors is Detector.ON else 0
    result = transmit_message(
        [bit], cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "simulate"), keep_hits=True
    )
    _write_hits_csv(out / "hits.csv", cfg, result)
    write_json(
        out / "decision.json",
        {
            "config": cfg.resolved(),
            "decision": {
                "log_lr": float(result.log_lr[0]),
                "decided": VERDICTS[result.received[0]],
                "fringe_statistic": float(result.fringe_statistic[0]),
            },
            "detectors": cfg.detectors.value,
            "symbol_time": float(result.symbol_times[0]),
            "hit_count": cfg.M,
        },
    )
    return 0


def _cmd_plan(cfg: RunConfig, out: Path) -> int:
    result = required_sample_size(cfg.device, cfg.alpha)
    write_json(
        out / "plan.json",
        {
            "config": cfg.resolved(),
            "m_star": result.m_star,
            "feasible": result.feasible,
            "alpha": result.alpha,
            "error_interference": result.error_interference,
            "error_no_interference": result.error_no_interference,
            "failure_reason": result.failure_reason,
        },
    )
    return 0


def _cmd_transmit(cfg: RunConfig, out: Path) -> int:
    if cfg.bits:
        bits = np.frombuffer(cfg.bits.encode("ascii"), np.uint8) - ord("0")
    else:
        bits = stream(cfg.seed, "transmit", "bits").integers(0, 2, size=cfg.symbols)
    result = transmit_message(bits, cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "transmit"))
    symbols, received = result.sent.size, result.received
    decisions = {
        "log_lr": result.log_lr,
        "decided": Coded(received, lambda bit: json.dumps(VERDICTS[bit])),
        "fringe_statistic": result.fringe_statistic,
    }
    write_json(
        out / "transcript.json",
        {
            "config": cfg.resolved(),
            "sent": result.sent,
            "received": received,
            "symbol_times": result.symbol_times,
            "hit_counts": np.full(symbols, cfg.M),
            "decisions": Records(decisions),
        },
    )
    # Summed left to right (numpy's cumsum adds in order), as the pinned summaries were.
    mean_time = float(np.cumsum(result.symbol_times)[-1]) / symbols if symbols else 0.0
    write_json(
        out / "summary.json",
        {
            "config": cfg.resolved(),
            "symbols": symbols,
            "symbol_error_rate": result.symbol_error_rate(),
            "mean_symbol_time": mean_time,
        },
    )
    return 0


def _cmd_nosignal_check(cfg: RunConfig, out: Path) -> int:
    report = verify_no_signaling(cfg.device, cfg.mode)
    write_text(out / "nosignal.txt", _config_comment_lines(cfg), report.to_text())
    write_json(out / "nosignal.json", {"config": cfg.resolved(), "report": report.to_dict()})
    return 0 if report.passed() else 1


def _cmd_paradox(cfg: RunConfig, out: Path) -> int:
    if cfg.strategy == STRATEGY_PRIVILEGED:
        strategy = PrivilegedFrame(cfg.beta0)
    else:
        strategy = StateDependentFrames(cfg.v)
    trace = build_paradox(strategy, cfg.separation)
    # The contradiction needs both a closed loop and the negation automaton's
    # empty fixed-point set; the report states both.
    fixed_points = sorted(automaton_fixed_points(NEGATION_RULE))
    write_json(
        out / "paradox.json",
        {
            "config": cfg.resolved(),
            "trace": trace.to_dict(),
            "automaton": {
                "rule": dict(NEGATION_RULE),
                "fixed_points": fixed_points,
                "inconsistent": trace.closed_loop and not fixed_points,
            },
        },
    )
    labels, times, places = zip(*trace.event_rows())
    write_csv(
        out / "events.csv",
        _config_comment_lines(cfg),
        ("label", "t", "x"),
        (Coded(np.arange(len(labels)), labels.__getitem__), np.array(times), np.array(places)),
    )
    return 0


def _cmd_distributions(cfg: RunConfig, out: Path) -> int:
    write_distributions_csv(
        cfg.device, out / "distributions.csv", header_comments=_config_comment_lines(cfg)
    )
    return 0


_COMMANDS: dict[str, Callable[[RunConfig, Path], int]] = {
    "simulate": _cmd_simulate,
    "plan": _cmd_plan,
    "transmit": _cmd_transmit,
    "nosignal-check": _cmd_nosignal_check,
    "paradox": _cmd_paradox,
    "distributions": _cmd_distributions,
}


SUBCOMMANDS = tuple(_COMMANDS)


def run_command(name: str, cfg: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    if name not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}")
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from None
    # Asked of the kernel, so no file is made; a denial access(2) does not
    # foresee is raised by the first report write instead.
    if not os.access(out, os.W_OK | os.X_OK):
        raise ConfigError(f"output directory {out} is not writable")
    return _COMMANDS[name](cfg, out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared: never mutate it.

    Flags are plain strings, and a flag not given stays out of the
    namespace, so every value reaches its key's converter the way a
    config-file line does.
    """
    parser = argparse.ArgumentParser(
        prog="qtelegraph",
        description="Entanglement telegraph simulator and no-signaling verifier.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("command", choices=SUBCOMMANDS, help="experiment to run")
    parser.add_argument("--config", metavar="FILE", help="flat key: value config file")
    for key, spec in CONFIG_KEYS.items():
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, help=f"{spec.help} (default {spec.default!r})")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    flags = vars(args)
    overrides: dict = {}
    if "config" in flags:
        overrides.update(parse_document(Path(flags["config"]).read_text(encoding="utf-8")))
    overrides.update((key, flags[key]) for key in CONFIG_KEYS if key in flags)
    return resolve_config(overrides)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        return run_command(args.command, cfg)
    except (ValueError, OSError) as exc:
        # ConfigError is a ValueError; so is a subcommand's rejection of an
        # input outside the model's domain, which is a usage error too.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
