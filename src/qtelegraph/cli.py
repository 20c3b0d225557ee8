"""Operator surface: flat key/value configs, subcommands, report files.

Config documents are lines of ``key: value``; '#' lines and blank lines are
ignored, unknown keys are rejected by name, and every key has a documented
default. CLI flags mirror the config keys and override the file. All
artifacts embed the fully resolved config (seed included) so a report is
reproducible from its own header, and nothing time- or host-dependent is
written, so identical (config, seed) runs are byte-identical.

Subcommands: simulate, plan, transmit, nosignal-check, paradox,
distributions. ``nosignal-check`` exits nonzero on a fail verdict so CI can
assert the no-signaling property with a single command.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Sequence

from .device import DeviceConfig, write_distributions_csv
from .nosignal import verify_no_signaling
from .protocol import (
    Detector,
    ModelMode,
    SymbolHits,
    TransmissionPlan,
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
from .rng import stream

SUBCOMMANDS = ("simulate", "plan", "transmit", "nosignal-check", "paradox", "distributions")

STRATEGY_STATE_DEPENDENT = "state-dependent"
STRATEGY_PRIVILEGED = "privileged"


class ConfigError(ValueError):
    """Malformed run configuration; the message names the offending key."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run configuration."""

    seed: int
    device: DeviceConfig
    plan: TransmissionPlan
    mode: ModelMode
    alpha: float
    detectors: Detector
    bits: str
    symbols: int
    strategy: str
    v: float
    beta0: float
    separation: float
    output_dir: str

    def resolved(self) -> dict:
        """The flat key -> value mapping every artifact embeds."""
        return {
            "seed": self.seed,
            "kappa": self.device.kappa,
            "envelope_width": self.device.envelope_width,
            "x_max": self.device.x_max,
            "bins": self.device.bins,
            "relative_phase": self.device.relative_phase,
            "M": self.plan.M,
            "T": self.plan.T,
            "N": self.plan.N,
            "alpha": self.alpha,
            "mode": self.mode.value,
            "detectors": self.detectors.value,
            "bits": self.bits,
            "symbols": self.symbols,
            "strategy": self.strategy,
            "v": self.v,
            "beta0": self.beta0,
            "separation": self.separation,
            "output_dir": self.output_dir,
        }


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
    return str(value).strip()


def _to_enum(cls: type[Enum], key: str, value: str) -> Enum:
    try:
        return cls(value)
    except ValueError:
        choices = " or ".join(repr(member.value) for member in cls)
        raise ConfigError(f"{key} must be {choices} (got {value!r})") from None


_CONVERTERS: dict[str, Callable[[str, object], object]] = {
    "seed": _to_int,
    "kappa": _to_float,
    "envelope_width": _to_float,
    "x_max": _to_float,
    "bins": _to_int,
    "relative_phase": _to_float,
    "M": _to_int,
    "T": _to_float,
    "N": _to_int,
    "alpha": _to_float,
    "mode": _to_str,
    "detectors": _to_str,
    "bits": _to_str,
    "symbols": _to_int,
    "strategy": _to_str,
    "v": _to_float,
    "beta0": _to_float,
    "separation": _to_float,
    "output_dir": _to_str,
}

DEFAULTS: dict = {
    "seed": 0,
    "kappa": math.pi,
    "envelope_width": 2.0,
    "x_max": 5.0,
    "bins": 256,
    "relative_phase": 0.0,
    "M": 1000,
    "T": 1.0,
    "N": 1,
    "alpha": 0.01,
    "mode": ModelMode.UNITARY_QM.value,
    "detectors": Detector.OFF.value,
    "bits": "",
    "symbols": 16,
    "strategy": STRATEGY_STATE_DEPENDENT,
    "v": 0.5,
    "beta0": 0.3,
    "separation": 1.0,
    "output_dir": ".",
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
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"duplicate config key {key!r}")
        raw[key] = value.strip()
    return raw


def resolve_config(overrides: dict) -> RunConfig:
    """Fill defaults, convert and validate a raw key mapping."""
    values = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in _CONVERTERS:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = _CONVERTERS[key](key, value)

    try:
        device = DeviceConfig(
            kappa=values["kappa"],
            envelope_width=values["envelope_width"],
            x_max=values["x_max"],
            bins=values["bins"],
            relative_phase=values["relative_phase"],
        )
        plan = TransmissionPlan(M=values["M"], T=values["T"], N=values["N"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    mode = _to_enum(ModelMode, "mode", values["mode"])
    detectors = _to_enum(Detector, "detectors", values["detectors"])

    alpha = values["alpha"]
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1) (got {alpha})")
    bits = values["bits"]
    if bits and set(bits) - {"0", "1"}:
        raise ConfigError(f"bits must contain only '0' and '1' (got {bits!r})")
    symbols = values["symbols"]
    if symbols < 0:
        raise ConfigError(f"symbols must be >= 0 (got {symbols})")
    strategy = values["strategy"]
    if strategy not in (STRATEGY_STATE_DEPENDENT, STRATEGY_PRIVILEGED):
        raise ConfigError(
            f"strategy must be '{STRATEGY_STATE_DEPENDENT}' or "
            f"'{STRATEGY_PRIVILEGED}' (got {strategy!r})"
        )
    if not abs(values["v"]) < 1.0:
        raise ConfigError(f"v must satisfy |v| < 1 (got {values['v']})")
    if not abs(values["beta0"]) < 1.0:
        raise ConfigError(f"beta0 must satisfy |beta0| < 1 (got {values['beta0']})")
    if not values["separation"] > 0:
        raise ConfigError(f"separation must be > 0 (got {values['separation']})")

    return RunConfig(
        seed=values["seed"],
        device=device,
        plan=plan,
        mode=mode,
        alpha=alpha,
        detectors=detectors,
        bits=bits,
        symbols=symbols,
        strategy=strategy,
        v=values["v"],
        beta0=values["beta0"],
        separation=values["separation"],
        output_dir=values["output_dir"],
    )


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key/value config document."""
    return resolve_config(parse_document(text))


def _config_comment_lines(cfg: RunConfig) -> list[str]:
    return [f"{key}: {value}" for key, value in sorted(cfg.resolved().items())]


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    document = {"config": cfg.resolved(), **payload}
    text = json.dumps(document, sort_keys=True, indent=2, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def _write_hits_csv(path: Path, cfg: RunConfig, hits: SymbolHits) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        for line in _config_comment_lines(cfg):
            handle.write(f"# {line}\n")
        writer = csv.writer(handle)
        writer.writerow(["telegraph_id", "time", "x"])
        writer.writerows(
            zip(
                hits.telegraph_id.tolist(),
                map(repr, hits.time.tolist()),
                map(repr, hits.x.tolist()),
            )
        )


def _decision_dict(decision) -> dict:
    return {
        "log_lr": decision.log_lr,
        "decided": decision.decided,
        "fringe_statistic": decision.fringe_statistic,
    }


def _cmd_simulate(cfg: RunConfig, out: Path) -> int:
    bit = 1 if cfg.detectors is Detector.ON else 0
    result = transmit_message(
        [bit], cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "simulate"), keep_hits=True
    )
    assert result.hits is not None
    _write_hits_csv(out / "hits.csv", cfg, result.hits[0])
    _write_json(
        out / "decision.json",
        cfg,
        {
            "decision": _decision_dict(result.decisions[0]),
            "detectors": cfg.detectors.value,
            "symbol_time": result.symbol_times[0],
            "hit_count": result.hit_counts[0],
        },
    )
    return 0


def _cmd_plan(cfg: RunConfig, out: Path) -> int:
    result = required_sample_size(cfg.device, cfg.alpha, stream(cfg.seed, "plan"))
    _write_json(
        out / "plan.json",
        cfg,
        {
            "m_star": result.m_star,
            "feasible": result.feasible,
            "alpha": result.alpha,
            "trials": result.trials,
            "error_interference": result.error_interference,
            "error_no_interference": result.error_no_interference,
            "failure_reason": result.failure_reason,
        },
    )
    return 0


def _cmd_transmit(cfg: RunConfig, out: Path) -> int:
    if cfg.bits:
        bits = [int(b) for b in cfg.bits]
    else:
        bit_rng = stream(cfg.seed, "transmit", "bits")
        bits = [int(b) for b in bit_rng.integers(0, 2, size=cfg.symbols)]
    result = transmit_message(bits, cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "transmit"))
    _write_json(
        out / "transcript.json",
        cfg,
        {
            "sent": list(result.sent),
            "received": list(result.received),
            "symbol_times": list(result.symbol_times),
            "hit_counts": list(result.hit_counts),
            "decisions": [_decision_dict(d) for d in result.decisions],
        },
    )
    mean_time = (
        sum(result.symbol_times) / len(result.symbol_times) if result.symbol_times else 0.0
    )
    _write_json(
        out / "summary.json",
        cfg,
        {
            "symbols": len(result.sent),
            "symbol_error_rate": result.symbol_error_rate(),
            "mean_symbol_time": mean_time,
        },
    )
    return 0


def _cmd_nosignal_check(cfg: RunConfig, out: Path) -> int:
    report = verify_no_signaling(cfg.device, cfg.mode)
    provenance = "".join(f"# {line}\n" for line in _config_comment_lines(cfg))
    (out / "nosignal.txt").write_text(provenance + report.to_text(), encoding="utf-8")
    _write_json(out / "nosignal.json", cfg, {"report": report.to_dict()})
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
    _write_json(
        out / "paradox.json",
        cfg,
        {
            "trace": trace.to_dict(),
            "automaton": {
                "rule": {message: NEGATION_RULE(message) for message in sorted(NEGATION_RULE.mapping)},
                "fixed_points": fixed_points,
                "inconsistent": trace.closed_loop and not fixed_points,
            },
        },
    )
    with open(out / "events.csv", "w", newline="", encoding="utf-8") as handle:
        for line in _config_comment_lines(cfg):
            handle.write(f"# {line}\n")
        writer = csv.writer(handle)
        writer.writerow(["label", "t", "x"])
        for label, t, x in trace.event_rows():
            writer.writerow([label, repr(t), repr(x)])
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


def run_command(name: str, cfg: RunConfig) -> int:
    """Dispatch one subcommand; returns the process exit status."""
    if name not in _COMMANDS:
        raise ConfigError(f"unknown subcommand {name!r}; expected one of {SUBCOMMANDS}")
    out = Path(cfg.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write-probe"
        probe.write_text("", encoding="utf-8")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {out} is not writable: {exc}") from None
    return _COMMANDS[name](cfg, out)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="flat key: value config file")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--kappa", type=float, help="fringe wavenumber (default pi)")
    parser.add_argument("--envelope-width", type=float, dest="envelope_width", help="Gaussian envelope width (default 2)")
    parser.add_argument("--x-max", type=float, dest="x_max", help="screen half-width in envelope widths (default 5)")
    parser.add_argument("--bins", type=int, help="screen bins (default 256)")
    parser.add_argument("--relative-phase", type=float, dest="relative_phase", help="pipe-2 phase offset (default 0)")
    parser.add_argument("--M", type=int, help="pairs per symbol (default 1000)")
    parser.add_argument("--T", type=float, help="pair production period (default 1)")
    parser.add_argument("--N", type=int, help="telegraph count (default 1)")
    parser.add_argument("--alpha", type=float, help="target error probability (default 0.01)")
    parser.add_argument("--mode", choices=[m.value for m in ModelMode], help="device model (default UnitaryQM)")
    parser.add_argument("--detectors", choices=[d.value for d in Detector], help="detector setting for simulate (default off)")
    parser.add_argument("--bits", help="explicit bit string to transmit")
    parser.add_argument("--symbols", type=int, help="random bits to transmit when --bits is empty (default 16)")
    parser.add_argument("--strategy", choices=[STRATEGY_STATE_DEPENDENT, STRATEGY_PRIVILEGED], help="collapse-frame strategy (default state-dependent)")
    parser.add_argument("--v", type=float, help="state-dependent frame speed (default 0.5)")
    parser.add_argument("--beta0", type=float, help="privileged frame velocity (default 0.3)")
    parser.add_argument("--separation", type=float, help="telegraph separation X (default 1)")
    parser.add_argument("--output-dir", dest="output_dir", help="artifact directory (default .)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qtelegraph",
        description="Entanglement telegraph simulator and no-signaling verifier.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sub = subparsers.add_parser(name, help=f"run the {name} experiment")
        _add_config_flags(sub)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides: dict = {}
    if args.config:
        overrides.update(parse_document(Path(args.config).read_text(encoding="utf-8")))
    for key in _CONVERTERS:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return resolve_config(overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
