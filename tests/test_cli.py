"""Tests for config parsing and the CLI subcommands."""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import qtelegraph
from qtelegraph import cli as cli_module
from qtelegraph.cli import (
    CONFIG_KEYS,
    ConfigError,
    build_parser,
    config_from_args,
    main,
    resolve_config,
    run_command,
)
from qtelegraph.device import DeviceConfig
from qtelegraph.protocol import Detector, ModelMode, TransmissionPlan
from qtelegraph.report import write_json
from oracles import parse_config, reference_hits_csv


# The (event, path) of each file opened, removed or renamed while a
# file_events() block runs; None outside one. Audit hooks cannot be removed,
# so one hook is added on first use and records only inside a block.
_file_events: list | None = None


def _record_file_event(event, args):
    if _file_events is not None and event in ("open", "os.remove", "os.rename", "os.replace"):
        if isinstance(args[0], (str, bytes, os.PathLike)):
            _file_events.append((event, os.fsdecode(args[0])))


@contextlib.contextmanager
def file_events():
    global _file_events
    if not getattr(file_events, "hooked", False):
        sys.addaudithook(_record_file_event)
        file_events.hooked = True
    _file_events = events = []
    try:
        yield events
    finally:
        _file_events = None


def read_csv_body(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return list(csv.reader(lines))


def comment_header(path):
    return [line for line in path.read_text().splitlines() if line.startswith("#")]


class TestParseConfig:
    def test_empty_document_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.seed == 0
        assert cfg.device.kappa == pytest.approx(math.pi)
        assert cfg.device.envelope_width == 2.0
        assert cfg.device.x_max == 5.0
        assert cfg.device.bins == 256
        assert cfg.plan.M == 1000 and cfg.plan.T == 1.0 and cfg.plan.N == 1
        assert cfg.alpha == 0.01
        assert cfg.mode is ModelMode.UNITARY_QM
        assert cfg.detectors is Detector.OFF

    def test_zero_n_names_field_and_constraint(self):
        with pytest.raises(ConfigError, match=r"N must be an integer >= 1"):
            parse_config("N: 0")

    def test_mode_override(self):
        cfg = parse_config("mode: NaiveCollapse")
        assert cfg.mode is ModelMode.NAIVE_COLLAPSE

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="wavelength"):
            parse_config("wavelength: 5")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("seed: 1\nseed: 2")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# a comment\n\nseed: 7\n")
        assert cfg.seed == 7

    def test_non_integer_bins_rejected(self):
        with pytest.raises(ConfigError, match="bins"):
            parse_config("bins: 12.5")

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("alpha: 1.5")

    def test_bits_validation(self):
        with pytest.raises(ConfigError, match="bits"):
            parse_config("bits: 01x")

    @pytest.mark.parametrize(
        "document, named",
        [
            # 10^9 + 1 = 19019 * 52579: one pair past the cap.
            ("symbols: 19019\nM: 52579", "(got symbols=19019, M=52579)"),
            # The bits' length, not the symbols key, is the message's length.
            ("symbols: 1\nbits: " + "01" * 9509 + "0\nM: 52579", "(got symbols=19019, M=52579)"),
        ],
        ids=["symbols", "bits"],
    )
    def test_a_config_files_message_is_held_to_the_pair_cap(self, document, named):
        with pytest.raises(ConfigError, match=r"^symbols \* M must be <= 1000000000 pairs per message ") as raised:
            parse_config(document)
        assert str(raised.value).endswith(named)

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="key: value"):
            parse_config("just some words")

    def test_strategy_values(self):
        assert parse_config("strategy: privileged").strategy == "privileged"
        with pytest.raises(ConfigError, match="strategy"):
            parse_config("strategy: bogus")

    def test_resolved_mapping_is_complete(self):
        resolved = parse_config("seed: 3").resolved()
        assert resolved["seed"] == 3
        assert resolved["mode"] == "UnitaryQM"
        assert set(resolved) >= {"kappa", "M", "T", "N", "alpha", "output_dir"}

    def test_seed_spans_64_bits(self):
        # Outside [0, 2**64) is rejected in test_out_of_domain_values_exit_2.
        assert parse_config(f"seed: {2**64 - 1}").seed == 2**64 - 1


# Patterns a total variation of 0.016 apart at 64 bins.
NEARLY_EQUAL_PATTERNS = {"kappa": 0.5, "envelope_width": 0.5, "x_max": 0.5, "relative_phase": 0.5}


def flag(key):
    return "--" + key.replace("_", "-")


# simulate's keys: values inside each key's domain, and values outside it.
SIMULATE_VALID = {
    "M": st.integers(1, 2000),
    "N": st.integers(1, 100) | st.integers(1, 10**5),
    "T": st.floats(1e-9, 1e13),
    "seed": st.integers(0, 2**64 - 1),
    "detectors": st.sampled_from(["on", "off"]),
    "mode": st.sampled_from(["UnitaryQM", "NaiveCollapse"]),
}
SIMULATE_INVALID = {
    "M": st.integers(-3, 0),
    "N": st.sampled_from([-1, 0, 10**7 + 1]),
    "T": st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
    "seed": st.sampled_from([-1, 2**64]),
    "detectors": st.sampled_from(["", "auto", "ON"]),
    "mode": st.sampled_from(["Copenhagen", "unitaryqm"]),
}


# transmit's keys: an explicit bit string or a random message's length.
TRANSMIT_VALID = {
    "bits": st.text(alphabet="01", max_size=24),
    "symbols": st.integers(0, 24),
    "M": st.integers(1, 200),
    "N": st.integers(1, 1000),
    "T": st.floats(1e-9, 1e13),
    "mode": SIMULATE_VALID["mode"],
    "alpha": st.floats(1e-9, 1.0, exclude_max=True),
}
TRANSMIT_INVALID = {
    "bits": st.sampled_from(["2", "01x", "1 0"]),
    "symbols": st.integers(-3, -1),
    "M": SIMULATE_INVALID["M"],
    "N": SIMULATE_INVALID["N"],
    "T": SIMULATE_INVALID["T"],
    "mode": SIMULATE_INVALID["mode"],
    "alpha": st.sampled_from([-0.5, 0.0, 1e-10, 1.0, 2.0]),
}

# plan's keys: the target error probability on two grids.
PLAN_VALID = {
    "alpha": st.floats(1e-4, 1.0, exclude_max=True),
    "bins": st.sampled_from([64, 256]),
}
PLAN_INVALID = {
    "alpha": TRANSMIT_INVALID["alpha"],
    "bins": st.sampled_from([-64, 0, 1, 2**21 + 1]),
}

# paradox's keys; a separation near the float range's top overflows the loop.
FRAME_SPEED = st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
PARADOX_VALID = {
    "strategy": st.sampled_from(["state-dependent", "privileged"]),
    "v": FRAME_SPEED,
    "beta0": FRAME_SPEED,
    "separation": st.floats(0.0, exclude_min=True, allow_infinity=False),
}
NOT_A_FRAME_SPEED = st.floats(1.0, allow_infinity=False) | st.floats(max_value=-1.0, allow_infinity=False)
PARADOX_INVALID = {
    "strategy": st.sampled_from(["", "Privileged", "frames"]),
    "v": NOT_A_FRAME_SPEED,
    "beta0": NOT_A_FRAME_SPEED,
    "separation": st.floats(max_value=0.0, allow_nan=False, allow_infinity=False),
}


@st.composite
def domain_inputs(draw, valid_values, invalid_values):
    """(the key drawn outside its domain or None, one value per key)."""
    broken = draw(st.sampled_from([None, None, None, *valid_values]))
    inputs = {
        key: draw(invalid_values[key] if key == broken else valid)
        for key, valid in valid_values.items()
    }
    return broken, inputs


def run_with_flags(command, inputs):
    """Run ``command`` with each input as a '--key=value' flag, RuntimeWarnings
    as errors: (exit code, stderr, {report name: bytes}, the output directory
    it used, removed on return)."""
    argv = [command] + [
        f"{flag(key)}={value if isinstance(value, str) else repr(value)}"
        for key, value in inputs.items()
    ]
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stderr(io.StringIO()) as err, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(argv + ["--output-dir", out])
        reports = {path.name: path.read_bytes() for path in Path(out).iterdir()}
    return code, err.getvalue(), reports, out


def assert_verdict_or_named_error(broken, inputs, code, err, reports):
    """Exit 0 with finite reports for inputs in the domain, else exit 2 with
    no report and an error naming a key (the broken one, if any); never a
    traceback. True for exit 0."""
    assert "Traceback" not in err
    if code == 0 and broken is None:
        for name, content in reports.items():
            assert not re.search(rb"\b(nan|inf|infinity)\b", content, re.IGNORECASE), name
        return True
    assert code == 2 and not reports
    named = broken or "|".join(inputs)
    assert re.match(rf"error: .*\b({named})\b", err)
    return False


class TestConfigKeys:
    # One valid, non-default value per key, as text; a key missing here
    # fails test_flag_and_config_line_resolve_alike.
    SAMPLES = {
        "seed": "7",
        "kappa": "2.5",
        "envelope_width": "1.5",
        "x_max": "6",
        "bins": "64",
        "relative_phase": "0.7",
        "M": "40",
        "T": "0.5",
        "N": "3",
        "alpha": "0.05",
        "mode": "NaiveCollapse",
        "detectors": "on",
        "bits": "0110",
        "symbols": "5",
        "strategy": "privileged",
        "v": "0.25",
        "beta0": "-0.2",
        "separation": "2.5",
        "output_dir": "some/dir",
    }

    @pytest.mark.parametrize("key", list(CONFIG_KEYS))
    def test_flag_and_config_line_resolve_alike(self, tmp_path, key):
        value = self.SAMPLES[key]
        config = tmp_path / "run.conf"
        config.write_text(f"{key}: {value}\n")
        parser = build_parser()
        from_flag = config_from_args(parser.parse_args(["plan", flag(key), value]))
        from_file = config_from_args(parser.parse_args(["plan", "--config", str(config)]))
        assert from_flag.resolved() == from_file.resolved()
        assert from_flag.resolved()[key] != CONFIG_KEYS[key].default

    @pytest.mark.parametrize("key, value", [("seed", "1.5"), ("bins", "12.5")])
    def test_bad_flag_value_exits_2_naming_key(self, tmp_path, capsys, key, value):
        assert main(["transmit", flag(key), value, "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be an integer")
        assert not list(tmp_path.iterdir())

    def test_help_names_every_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        words = set(capsys.readouterr().out.split())
        assert {flag(key) for key in CONFIG_KEYS} | {"--config"} <= words

    def test_device_and_plan_keys_default_to_their_dataclass_fields(self):
        """A CLI run and a library run at the defaults build the same objects."""
        defaults = {f.name: f.default for cls in (DeviceConfig, TransmissionPlan) for f in dataclasses.fields(cls)}
        assert sorted(defaults) == sorted(["kappa", "envelope_width", "x_max", "bins", "relative_phase", "M", "T", "N"])
        for key, default in defaults.items():
            assert (type(CONFIG_KEYS[key].default), CONFIG_KEYS[key].default) == (type(default), default), key

    def test_readme_table_lists_exactly_the_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Config keys and defaults", 1)[1].split("\n\n", 2)[1]
        assert re.findall(r"^\| `([^`]+)` \|", section, re.M) == list(CONFIG_KEYS)


class TestSharedParser:
    """``main`` parses with one parser per process, and no run leaves a trace
    in it that a later run could see."""

    RUN = ["nosignal-check", "--mode", "NaiveCollapse", "--bins", "64", "--relative-phase", "0.7"]

    def test_main_builds_one_parser_per_process(self, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        build_parser.cache_clear()
        for out in ("a", "b"):
            assert main(["distributions", "--bins", "16", "--output-dir", str(tmp_path / out)]) == 0
        assert built == ["qtelegraph"]
        assert build_parser() is build_parser()

    @pytest.mark.parametrize(
        "before, code",
        [
            (["nosignal-check", "--no-such-flag", "1"], 2),
            (["--help"], 0),
            (["transmit", "--seed", "1.5"], 2),
        ],
        ids=["usage-error", "help", "config-error"],
    )
    def test_run_after_an_exit_writes_the_first_runs_bytes(self, tmp_path, monkeypatch, capsys, before, code):
        """The same run, made first with a fresh parser and again after an
        argparse usage error, --help or a ConfigError, writes the same bytes."""

        def run(where):
            where.mkdir()
            monkeypatch.chdir(where)
            assert main(self.RUN + ["--output-dir", "out"]) == 1
            return {path.name: path.read_bytes() for path in (where / "out").iterdir()}

        build_parser.cache_clear()
        first = run(tmp_path / "first")
        monkeypatch.chdir(tmp_path)
        try:
            exited = main(before + ["--output-dir", "unused"])
        except SystemExit as exc:
            exited = exc.code
        assert exited == code
        assert not (tmp_path / "unused").exists()
        capsys.readouterr()
        assert run(tmp_path / "again") == first
        assert set(first) == {"nosignal.json", "nosignal.txt"}


class TestRunCommand:
    def test_unknown_subcommand(self):
        with pytest.raises(ConfigError, match="subcommand"):
            run_command("teleport", parse_config(""))

    def test_unwritable_output_dir(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = resolve_config({"output_dir": str(blocker / "sub")})
        with pytest.raises(ConfigError, match="not writable|output"):
            run_command("distributions", cfg)

    def test_a_directory_access_refuses_is_not_writable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        with pytest.raises(ConfigError, match=r"output directory .* is not writable"):
            run_command("distributions", resolve_config({"output_dir": str(tmp_path / "out")}))
        assert list((tmp_path / "out").iterdir()) == []

    def test_creates_and_removes_no_file_besides_its_reports(self, tmp_path):
        out = tmp_path / "out"
        with file_events() as events:
            assert main(["nosignal-check", "--bins", "32", "--output-dir", str(out)]) == 0
        touched = {(event, Path(path).name) for event, path in events if Path(path).parent == out}
        assert touched == {("open", "nosignal.json"), ("open", "nosignal.txt")}
        assert sorted(path.name for path in out.iterdir()) == ["nosignal.json", "nosignal.txt"]


class TestSubcommands:
    def test_distributions(self, tmp_path):
        code = main(["distributions", "--bins", "32", "--output-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "distributions.csv"
        header = comment_header(path)
        assert any("seed: 0" in line for line in header)
        rows = read_csv_body(path)
        assert rows[0] == ["x", "p_coherent", "p_incoherent", "p_plus", "p_minus"]
        assert len(rows) == 33

    def test_simulate(self, tmp_path):
        code = main(
            [
                "simulate",
                "--M", "50",
                "--N", "3",
                "--detectors", "on",
                "--mode", "NaiveCollapse",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        rows = read_csv_body(tmp_path / "hits.csv")
        assert rows[0] == ["telegraph_id", "time", "x"]
        assert len(rows) == 51
        times = [float(r[1]) for r in rows[1:]]
        assert times == sorted(times)
        payload = json.loads((tmp_path / "decision.json").read_text())
        assert payload["config"]["M"] == 50
        assert payload["decision"]["decided"] in ("interference", "no-interference")
        assert payload["detectors"] == "on"

    def test_plan(self, tmp_path):
        code = main(
            ["plan", "--alpha", "0.2", "--seed", "5", "--output-dir", str(tmp_path)]
        )
        assert code == 0
        payload = json.loads((tmp_path / "plan.json").read_text())
        assert payload["feasible"] is True
        assert payload["m_star"] >= 1
        for lo, hi in (payload["error_interference"], payload["error_no_interference"]):
            assert 0.0 <= lo <= hi <= 0.2
        assert "trials" not in payload
        assert payload["config"]["alpha"] == 0.2

    def test_transmit_explicit_bits(self, tmp_path):
        code = main(
            [
                "transmit",
                "--bits", "0101",
                "--M", "60",
                "--mode", "NaiveCollapse",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        transcript = json.loads((tmp_path / "transcript.json").read_text())
        assert transcript["sent"] == [0, 1, 0, 1]
        assert transcript["received"] == [0, 1, 0, 1]
        assert len(transcript["decisions"]) == 4
        assert transcript["hit_counts"] == [60, 60, 60, 60]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["symbol_error_rate"] == 0.0
        assert summary["symbols"] == 4

    def test_transmit_holds_a_message_as_arrays(self, tmp_path):
        # Per-symbol arrays, with no Python list or dict per symbol and the
        # transcript written a chunk at a time, peak at about 160 B per
        # symbol; the whole transcript text held in memory took it to 560,
        # and a record dict per symbol past 800.
        symbols = 100000
        tracemalloc.start()
        try:
            argv = ["transmit", "--symbols", str(symbols), "--M", "1", "--output-dir", str(tmp_path)]
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / symbols < 192

    def test_nosignal_check_exit_codes(self, tmp_path):
        assert main(["nosignal-check", "--output-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "nosignal.json").read_text())
        assert report["report"]["verdict"] == "pass"
        assert "verdict: pass" in (tmp_path / "nosignal.txt").read_text()

        assert (
            main(
                [
                    "nosignal-check",
                    "--mode", "NaiveCollapse",
                    "--output-dir", str(tmp_path),
                ]
            )
            != 0
        )
        report = json.loads((tmp_path / "nosignal.json").read_text())
        assert report["report"]["verdict"] == "fail"

    @pytest.mark.parametrize("mode, code", [("UnitaryQM", 0), ("NaiveCollapse", 1)])
    def test_nosignal_check_at_the_stress_size(self, tmp_path, mode, code):
        # 4096 bins: a dense joint matrix would be 8192^2 complex values.
        assert main(["nosignal-check", "--mode", mode, "--bins", "4096", "--output-dir", str(tmp_path)]) == code
        distance = json.loads((tmp_path / "nosignal.json").read_text())["report"]["trace_distance_reduced"]
        assert distance < 1e-12 if code == 0 else distance > 0.3

    def test_paradox(self, tmp_path):
        code = main(
            [
                "paradox",
                "--v", "0.5",
                "--separation", "1",
                "--output-dir", str(tmp_path),
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "paradox.json").read_text())
        assert payload["trace"]["loop_advance"] == pytest.approx(1.0, abs=1e-12)
        assert payload["trace"]["closed_loop"] is True
        assert payload["automaton"]["fixed_points"] == []
        assert payload["automaton"]["inconsistent"] is True
        rows = read_csv_body(tmp_path / "events.csv")
        assert rows[0] == ["label", "t", "x"]
        assert [r[0] for r in rows[1:]] == [
            "a_emission",
            "a_reception",
            "b_emission",
            "b_reception",
        ]

    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("bins: 64\nseed: 9\n")
        out = tmp_path / "out"
        code = main(
            ["distributions", "--config", str(config), "--bins", "16", "--output-dir", str(out)]
        )
        assert code == 0
        rows = read_csv_body(out / "distributions.csv")
        assert len(rows) == 17  # flag overrides the file's 64
        assert any("seed: 9" in line for line in comment_header(out / "distributions.csv"))

    def test_config_error_exit_code(self, tmp_path):
        assert main(["distributions", "--bins", "1", "--output-dir", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["transmit", "--T", "inf"], "T must be finite"),
            (["transmit", "--kappa", "inf"], "kappa must be finite"),
            (["paradox", "--separation", "inf"], "separation must be finite"),
            (["paradox", "--separation", "1e308", "--v", "0.9"], "separation=1e+308 at frame speed v=0.9: event coordinates must be finite"),
            # The envelope width squares to 0, so the amplitudes would be 0/0.
            (["distributions", "--envelope-width", "1e-320", "--bins", "8"], "envelope_width=1e-320"),
            (["plan", "--envelope-width", "1e-320", "--bins", "8"], "envelope_width=1e-320"),
            (["nosignal-check", "--envelope-width", "1e-320", "--bins", "8"], "envelope_width=1e-320"),
            (["distributions", "--envelope-width", "1e-170", "--x-max", "1e10"], "envelope_width=1e-170"),
            (["transmit", "--x-max", "1e308", "--symbols", "2", "--M", "5"], "x_max * envelope_width = inf"),
            (["simulate", "--M", "10", "--T", "1e308", "--N", "3"], "T (1e+308) is too large"),
            # Every command builds the plan, so the telegraph bound holds for all.
            (["paradox", "--N", "10000001"], "N must be <= 10000000"),
            # Seeds were masked to 64 bits, so -1 ran the stream of 2**64 - 1.
            (["simulate", "--M", "10", "--seed", "-1"], "seed must be in [0, 2**64)"),
            (["transmit", "--seed", str(2**64)], "seed must be in [0, 2**64)"),
            (["paradox", "--seed", "-1"], "seed must be in [0, 2**64)"),
            # A line break would end the report's '# output_dir: ...' line.
            (["simulate", "--M", "3", "--output-dir", "nl\ndir"], "output_dir must be a single line"),
            (["simulate", "--M", "3", "--output-dir", "cr\rdir"], "output_dir must be a single line"),
            # 2 * kappa * bin_width = 2 pi at phase 0 makes psi_1 + psi_2 cancel,
            # so the coherent pattern would be normalized rounding noise.
            (
                ["nosignal-check", "--mode", "NaiveCollapse", "--kappa", "40.21238596594935"],
                "kappa=40.21238596594935, relative_phase=0.0, bins=256",
            ),
            (["distributions", "--kappa", "40.21238596594935"], "kappa=40.21238596594935"),
            (["plan", "--kappa", "40.21238596594935"], "kappa=40.21238596594935"),
            # The envelope width's square overflows: inf, not an OverflowError.
            (["distributions", "--envelope-width", "1e160"], "envelope_width=1e+160"),
            # Below the planner's rounding allowance no bracket could settle M*.
            (["plan", "--alpha", "1e-10"], "alpha must be in [1e-09, 1)"),
            # psi_2 = psi_1 on every bin, so the eraser's minus outcome has
            # probability about 1e-30 and its pattern would be rounding noise.
            (["distributions", "--bins", "2"], "kappa=3.141592653589793, relative_phase=0.0, bins=2"),
            (
                ["distributions", "--bins", "64", "--kappa=10.053096491487338", "--relative-phase=3.141592653589793"],
                "kappa=10.053096491487338, relative_phase=3.141592653589793, bins=64",
            ),
            # A decoded block holds a whole symbol: M is refused before any
            # allocation, not by numpy's reshape or size checks.
            (["transmit", "--symbols", "2", "--M", "10000001"], "M must be <= 10000000 (got 10000001)"),
            (["transmit", "--symbols", "2", "--M", "9223372036854775807"], "M must be <= 10000000"),
            (["transmit", "--symbols", "2", "--M", "100000000000000000000"], "M must be <= 10000000"),
            # Every command shares the planner's alpha domain.
            (["transmit", "--alpha", "1e-12"], "alpha must be in [1e-09, 1)"),
            # At v != 0 a loop advance that underflows to 0 is refused, either sign.
            (
                ["paradox", "--v", "1e-300", "--separation", "1e-30"],
                "separation=1e-30 at frame speed v=1e-300: the loop advance 2*v*separation underflows to 0",
            ),
            (["paradox", "--v=-1e-300", "--separation", "1e-30"], "separation=1e-30 at frame speed v=-1e-300"),
            # Grids and messages are refused before numpy would fail to
            # allocate them (a traceback, exit 1) or call them too big
            # without naming the key.
            (["nosignal-check", "--mode", "UnitaryQM", "--bins", str(2**40)], "bins must be <= 2097152"),
            (["plan", "--bins", str(2**40)], "bins must be <= 2097152 (got 1099511627776)"),
            (["distributions", "--bins", str(2**62)], "bins must be <= 2097152"),
            (["transmit", "--symbols", str(2**40), "--M", "1"], "symbols must be in [0, 1000000]"),
            (["transmit", "--symbols", str(2**62)], "symbols must be in [0, 1000000] (got 4611686018427387904)"),
            (["transmit", "--bits", "1" * 1000001], "bits must hold at most 1000000 symbols (got 1000001)"),
        ],
    )
    def test_out_of_domain_values_exit_2(self, tmp_path, monkeypatch, capsys, argv, named):
        # The output directory goes first, so a case may name its own; a
        # relative one lands in tmp_path.
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--output-dir", str(tmp_path)] + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, named",
        [
            # 10^13 pairs, days of draws.
            (["transmit", "--symbols", "1000000", "--M", "10000000"], "(got symbols=1000000, M=10000000)"),
            (["transmit", "--symbols", "101", "--M", "10000000"], "(got symbols=101, M=10000000)"),
            (["transmit", "--bits", "1" * 1001, "--M", "1000000"], "(got symbols=1001, M=1000000)"),
            # Every command resolves the same keys, as the symbols bound does.
            (["simulate", "--symbols", "1000000", "--M", "1001"], "(got symbols=1000000, M=1001)"),
            # 10^9 + 1 = 19019 * 52579.
            (["transmit", "--symbols", "19019", "--M", "52579"], "(got symbols=19019, M=52579)"),
        ],
        ids=["largest-symbols-and-M", "symbols-past-the-cap", "bits-past-the-cap", "simulate", "one-pair-past-the-cap"],
    )
    def test_a_message_of_too_many_pairs_exits_2_before_it_runs(self, tmp_path, monkeypatch, capsys, argv, named):
        def refused(*_):
            raise AssertionError("the message ran")

        monkeypatch.setattr(cli_module, "transmit_message", refused)
        assert main(argv + ["--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: symbols * M must be <= 1000000000 pairs per message ") and named in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"symbols": "1000000", "M": "27"},
            {"symbols": "100", "M": "10000000"},
            {"bits": "1" * 1000, "M": "1000000", "symbols": "1000000"},
            {"M": "10000000"},
            {"symbols": "1000000", "M": "1000"},
        ],
        ids=["stress-size", "at-the-cap", "bits-at-the-cap", "default-symbols-at-the-largest-M", "largest-symbols-at-the-cap"],
    )
    def test_messages_up_to_the_pair_cap_are_accepted(self, overrides):
        assert resolve_config(overrides).M == int(overrides["M"])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["distributions", "nosignal-check", "plan", "transmit", "simulate"]),
        geometry=st.fixed_dictionaries(
            {
                key: st.floats(allow_nan=False, allow_infinity=False)
                for key in ("kappa", "envelope_width", "x_max", "relative_phase")
            }
        ),
    )
    @example(
        command="distributions",
        geometry={"kappa": math.pi, "envelope_width": 1e160, "x_max": 5.0, "relative_phase": 0.0},
    )
    @example(command="plan", geometry=NEARLY_EQUAL_PATTERNS)
    # psi_1 - psi_2 cancels on this grid.
    @example(
        command="distributions",
        geometry={"kappa": 10.053096491487338, "envelope_width": 2.0, "x_max": 5.0, "relative_phase": math.pi},
    )
    # 2i * kappa overflows to an infinite imaginary part, but 2 * (kappa * x)
    # is finite on this grid: the fringe phase is formed in that order.
    @example(
        command="simulate",
        geometry={
            "kappa": 1e308,
            "envelope_width": 7.779506386437948,
            "x_max": 2.2173507034131803e-276,
            "relative_phase": 0.0,
        },
    )
    # Here kappa * x is finite and 2 * (kappa * x) is not: refused naming kappa.
    @example(
        command="transmit",
        geometry={"kappa": 1e308, "envelope_width": 1.0, "x_max": 1.0, "relative_phase": 0.0},
    )
    def test_any_finite_geometry_exits_cleanly(self, command, geometry):
        """Every finite device geometry gives a verdict or a named error:
        exit 0 or 1 with no non-finite number in a report, or exit 2 with no
        report and an error naming a config key; no traceback."""
        # A negative number in exponent form needs the '--key=value' spelling.
        argv = [command, "--bins", "64"] + [f"{flag(k)}={v!r}" for k, v in geometry.items()]
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stderr(io.StringIO()) as err:
                code = main(argv + ["--output-dir", out])
            assert "Traceback" not in err.getvalue()
            if code == 2:
                assert not list(Path(out).iterdir())
                assert re.match(rf"error: .*\b({'|'.join(CONFIG_KEYS)})\b", err.getvalue())
            assert code in (0, 1, 2)
            for report in Path(out).iterdir():
                text = report.read_text()
                assert not re.search(r"\b(nan|inf|infinity)\b", text, re.IGNORECASE), report.name

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        command=st.sampled_from(["distributions", "nosignal-check", "transmit", "simulate"]),
        bins=st.integers(2, 4096),
        mode=SIMULATE_VALID["mode"],
    )
    @example(command="distributions", bins=2, mode="UnitaryQM")
    @example(command="nosignal-check", bins=2, mode="NaiveCollapse")
    # psi_1 + psi_2 cancels on this grid.
    @example(command="nosignal-check", bins=4, mode="NaiveCollapse")
    @example(command="nosignal-check", bins=4096, mode="UnitaryQM")
    # The receiver's table needs the coherent pattern under either model.
    @example(command="transmit", bins=4, mode="UnitaryQM")
    def test_any_grid_exits_cleanly(self, command, bins, mode):
        """Every grid size from 2 to 4096 bins under either model: exit 0
        or 1 with finite reports, or exit 2 with none and an error naming a
        config key; no traceback."""
        code, err, reports, _ = run_with_flags(command, {"bins": bins, "mode": mode})
        assert "Traceback" not in err
        if code in (0, 1):
            assert reports and not err
            for name, content in reports.items():
                assert not re.search(rb"\b(nan|inf|infinity)\b", content, re.IGNORECASE), name
        else:
            assert code == 2 and not reports
            assert re.match(rf"error: .*\b({'|'.join(CONFIG_KEYS)})\b", err)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(case=domain_inputs(SIMULATE_VALID, SIMULATE_INVALID))
    # Times that cross 2**53 and 1e16.
    @example(case=(None, {"M": 2000, "N": 1, "T": 6e12, "seed": 7, "detectors": "on", "mode": "UnitaryQM"}))
    # Subnormal times, written in exponent notation.
    @example(case=(None, {"M": 50, "N": 3, "T": 1e-320, "seed": 1, "detectors": "off", "mode": "UnitaryQM"}))
    # At this seed a uniform offset times T = 5e-324 rounds up to T.
    @example(case=(None, {"M": 3, "N": 1, "T": 5e-324, "seed": 1, "detectors": "off", "mode": "UnitaryQM"}))
    def test_any_simulate_input_writes_reference_hits_or_exits_2(self, case):
        """simulate over M, N, T, seed, detectors and mode: exit 0 with the
        csv.writer reference hits.csv, or exit 2 naming a key (the broken
        one, if a value was drawn outside its domain); no traceback."""
        broken, inputs = case
        code, err, reports, out = run_with_flags("simulate", inputs)
        if assert_verdict_or_named_error(broken, inputs, code, err, reports):
            cfg = resolve_config({**inputs, "output_dir": out})
            assert reports["hits.csv"] == reference_hits_csv(cfg)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(case=domain_inputs(TRANSMIT_VALID, TRANSMIT_INVALID))
    # The empty message.
    @example(case=(None, {"bits": "", "symbols": 0, "M": 1, "N": 1, "T": 1.0, "mode": "UnitaryQM", "alpha": 0.01}))
    # The last emission time overflows.
    @example(case=(None, {"bits": "", "symbols": 24, "M": 200, "N": 1, "T": 1e306, "mode": "UnitaryQM", "alpha": 0.5}))
    # At the default seed a uniform offset times T = 5e-324 rounds up to T.
    @example(case=(None, {"bits": "", "symbols": 3, "M": 2, "N": 1, "T": 5e-324, "mode": "UnitaryQM", "alpha": 0.01}))
    def test_any_transmit_input_writes_a_transcript_or_exits_2(self, case):
        """transmit over bits or symbols, M, N, T, mode and alpha: exit 0
        with one finite record per symbol, or exit 2 naming a key."""
        broken, inputs = case
        code, err, reports, _ = run_with_flags("transmit", inputs)
        if assert_verdict_or_named_error(broken, inputs, code, err, reports):
            transcript = json.loads(reports["transcript.json"])
            symbols = len(inputs["bits"]) or inputs["symbols"]
            assert transcript["sent"] == [int(b) for b in inputs["bits"]] or not inputs["bits"]
            assert transcript["hit_counts"] == [inputs["M"]] * symbols
            assert len(transcript["received"]) == len(transcript["decisions"]) == symbols
            assert json.loads(reports["summary.json"])["symbols"] == symbols

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(case=domain_inputs(PLAN_VALID, PLAN_INVALID))
    # alpha = 0.5 needs no data: M* is 0 and both brackets are null.
    @example(case=(None, {"alpha": 0.5, "bins": 64}))
    @example(case=(None, {"alpha": 1e-4, "bins": 256}))
    def test_any_plan_input_writes_a_sufficient_plan_or_exits_2(self, case):
        """plan over alpha and bins: exit 0 with a plan whose upper ends are
        both <= alpha when it has an M* above 0, or exit 2 naming a key."""
        broken, inputs = case
        code, err, reports, _ = run_with_flags("plan", inputs)
        assert (code == 0) == (broken is None), (code, err)
        if assert_verdict_or_named_error(broken, inputs, code, err, reports):
            plan = json.loads(reports["plan.json"])
            assert plan["alpha"] == inputs["alpha"]
            if plan["feasible"] and plan["m_star"] > 0:
                assert max(plan["error_interference"][1], plan["error_no_interference"][1]) <= inputs["alpha"]

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(case=domain_inputs(PARADOX_VALID, PARADOX_INVALID))
    @example(case=(None, {"strategy": "state-dependent", "v": 0.9, "beta0": 0.3, "separation": 1e308}))
    def test_any_paradox_input_writes_the_loop_or_exits_2(self, case):
        """paradox over strategy, v, beta0 and separation: exit 0 with a
        finite loop, or exit 2 naming a key (separation for a loop whose
        advance overflows)."""
        broken, inputs = case
        code, err, reports, _ = run_with_flags("paradox", inputs)
        if assert_verdict_or_named_error(broken, inputs, code, err, reports):
            payload = json.loads(reports["paradox.json"])
            assert payload["automaton"]["inconsistent"] is payload["trace"]["closed_loop"]
        elif broken is None:
            assert "separation=" in err and "must be finite" in err

    def test_plan_cost_is_bounded_for_nearly_equal_patterns(self, tmp_path):
        """Patterns a total variation of 0.016 apart need M in the tens of
        thousands, past what the lattice budget can certify: the planner ends
        in seconds with a sufficient M* or an explicit failure."""
        argv = ["plan", "--bins", "64"] + [f"{flag(k)}={v!r}" for k, v in NEARLY_EQUAL_PATTERNS.items()]
        start = time.perf_counter()
        assert main(argv + ["--output-dir", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 10.0
        plan = json.loads((tmp_path / "plan.json").read_text())
        if plan["feasible"]:
            assert max(plan["error_interference"][1], plan["error_no_interference"][1]) <= plan["alpha"]
        else:
            assert plan["m_star"] is None and plan["failure_reason"]

    def test_plan_is_seed_free(self, tmp_path, monkeypatch):
        """plan draws nothing: every seed writes the same plan.json apart from
        the config's seed line."""
        monkeypatch.chdir(tmp_path)
        texts = set()
        for seed in (0, 1, 2, 3, 7):
            assert main(["plan", "--alpha", "0.01", "--seed", str(seed), "--output-dir", "out"]) == 0
            lines = (tmp_path / "out" / "plan.json").read_text().splitlines()
            assert lines.count(f'    "seed": {seed},') == 1
            texts.add("\n".join(line for line in lines if line != f'    "seed": {seed},'))
        assert len(texts) == 1
        assert '  "m_star": 27' in texts.pop().splitlines()

    def test_json_reports_refuse_non_finite_numbers(self, tmp_path):
        path = tmp_path / "report.json"
        with pytest.raises(ValueError, match="JSON compliant"):
            write_json(path, {"config": parse_config("").resolved(), "symbol_time": math.inf})
        assert not path.exists()

    # SHA-256 of report files (Python 3.11, numpy 2.4, x86-64). The transmit
    # and simulate digests were recorded before hits became columnar and the
    # receiver was derived once per message; the others before derived
    # density matrices stopped being re-validated (the nosignal bytes were
    # the same at 1 and 2 BLAS threads); the last three before bins were
    # drawn through a guide table and symbols decoded in blocks. The two
    # nosignal digests were re-pinned when screen states moved to the 2 x 2
    # span of the pipe amplitudes, which changes the last digits of
    # trace_distance_reduced and nothing else. The two plan digests were
    # re-pinned when the planner became an exact, seed-free bracket: the
    # error fields became [lo, hi], trials went, and M* at alpha 0.01 went
    # from 28 to 27. Every transmit and simulate digest that draws a hit
    # was re-pinned when a message's uniforms became one row-major
    # (symbols, M) read of its generator, in place of one generator per
    # symbol. A change that alters any report byte for a fixed (config,
    # seed) fails here.
    # Each case is (test id, argv, digests); the ids of the earlier cases
    # keep the form they had when derived from the first three argv words.
    PINNED_DIGESTS = (
        (
            "transmit---symbols-12",
            ("transmit", "--symbols", "12", "--M", "40", "--N", "3", "--seed", "11", "--mode", "NaiveCollapse"),
            {
                "transcript.json": "85b39c5f7202abd3018047fc343e31386e4c3c160768aeaa44af12092c604ce7",
                "summary.json": "620608e92a573a730816024fb2d0c06d3e76abaaea8291354243ced537d11ac6",
            },
        ),
        (
            "simulate---detectors-on",
            ("simulate", "--detectors", "on", "--M", "50", "--N", "3", "--seed", "5", "--mode", "NaiveCollapse"),
            {
                "hits.csv": "b77a884507e32caf15715672bde679fe281078ee77bdb64d2bcc1010e6efcd81",
                "decision.json": "e74cd2dc31924a15912ab94cd704ff306e7e362c54b9caf7680b622c2d22aa16",
            },
        ),
        (
            "simulate---detectors-off",
            ("simulate", "--detectors", "off", "--M", "50", "--N", "3", "--seed", "5", "--mode", "NaiveCollapse"),
            {
                "hits.csv": "4e364f827a5f240d35bb838c0e9021f014097e43d084536e07e6beb9b2b1e1e2",
                "decision.json": "db5a384da20a863ec43538e12ff62f54ddfcd900319cf481bf560419afbb17a1",
            },
        ),
        # N >> M: each symbol pools pairs from a small slice of the ensemble.
        (
            "transmit---symbols-200",
            ("transmit", "--symbols", "200", "--M", "28", "--N", "1000", "--seed", "5"),
            {
                "transcript.json": "019f740c641dee69db5f94dca2f3c632329de63e2f71bb4b057f791c0bc90241",
                "summary.json": "6c5050ff4a10b555c6b6d540325a0206a8e0ae00dcaa7fa29a823a4681de43c4",
            },
        ),
        # T = 0.1 is not a binary fraction, so offset + T*cycle rounds.
        (
            "transmit---symbols-300",
            ("transmit", "--symbols", "300", "--M", "17", "--N", "5", "--T", "0.1", "--seed", "21"),
            {
                "transcript.json": "fd2776a22870792981a9aa53d0b5b09f0c1d597a3495d9f327c709b3905dd1e7",
                "summary.json": "618a61aa946eb7f6a7ab9535d51ca145b5d2d0a24d4288f49babea839008396c",
            },
        ),
        # hits.csv carries every pooled telegraph id and emission time.
        (
            "simulate---M-2000",
            ("simulate", "--M", "2000", "--N", "37", "--T", "0.3", "--detectors", "on", "--seed", "8"),
            {
                "hits.csv": "c24bbc5fe7d38a11fc1e7338f0a5f7b300b64680e5ad360033840047ae8d3406",
                "decision.json": "72941a9bcbbd3db0a948b8085615e36436d39324d0ae65b5d30e02b513b86da2",
            },
        ),
        (
            "nosignal-check---mode-UnitaryQM",
            ("nosignal-check", "--mode", "UnitaryQM", "--bins", "64", "--relative-phase", "0.7", "--seed", "3"),
            {
                "nosignal.json": "aba81b6450551e5a18b604212ea4ad305434e9d47f85353367e59dd37b74a147",
                "nosignal.txt": "93f6eaafe8ed0725b2c35826823b76a9851e9e85ffd7e2541e3dea3b949b5bbd",
            },
        ),
        (
            "nosignal-check---mode-NaiveCollapse",
            ("nosignal-check", "--mode", "NaiveCollapse", "--bins", "64", "--relative-phase", "0.7", "--seed", "3"),
            {
                "nosignal.json": "947c533d2503558a048cff509d165bab65fdb591677178a2c6ae94157f6f729f",
                "nosignal.txt": "896a82b7be3a7a48de9ecaa504895b1c400cd9ab15c98347502c7cb5250f77ba",
            },
        ),
        (
            "distributions---bins-64",
            ("distributions", "--bins", "64"),
            {
                "distributions.csv": "842870b7f5305302fed01051d3a650b13c7d78f18db6c3ca7564410e32fdd374",
            },
        ),
        (
            "plan---alpha-0.05",
            ("plan", "--alpha", "0.05"),
            {
                "plan.json": "84f4e2cddbb7645ca47e456a6b62d54605af19403bd4119fa5f4aafe0997feee",
            },
        ),
        (
            "paradox---v-0.6",
            ("paradox", "--v", "0.6", "--separation", "1.5"),
            {
                "paradox.json": "3b2446245132e13d963af7dc0300740caece843095277362940f531ebc0c8bbe",
                "events.csv": "1cb8a7a895a8ff96cc8455e8188be63ab308f42ae09138aeba9262c9c14d740f",
            },
        ),
        # The telegraph workload's own planner.
        (
            "plan---alpha-0.01",
            ("plan", "--alpha", "0.01", "--seed", "7"),
            {
                "plan.json": "462dbfe54d7fbaf9820fd11215446b4e046e0e8a2d7b7a7620c4a8d2a7078d85",
            },
        ),
        # Plans at other probe schedules: at alpha 1e-6 some probes halve the
        # lattice step twice, to 0.0025; at 64 bins and kappa 2 every probe
        # settles on the first step.
        (
            "plan---alpha-1e-6",
            ("plan", "--alpha", "1e-6"),
            {
                "plan.json": "1b4385bd9075bae220e3cf6425de5a5bb7f2b27bcd3eeab225436cc3a67cc1ca",
            },
        ),
        (
            "plan---bins-64-kappa-2-alpha-0.001",
            ("plan", "--bins", "64", "--kappa", "2", "--alpha", "0.001"),
            {
                "plan.json": "32a26fab0615c75068b3c6d550df8c94b97d69623d26537023a7f5b3f90a6120",
            },
        ),
        # The plans no probe decides: indistinguishable patterns leave M*
        # and both brackets null with a reason; at alpha 0.5 guessing meets
        # the target, so M* is 0 and the brackets are null.
        (
            "plan---kappa-1e-9",
            ("plan", "--kappa", "1e-9"),
            {
                "plan.json": "e41113e1e6561c6bd42030176863c3fd0e80ba9b51d8c655f5c2b9b741c437ae",
            },
        ),
        (
            "plan---alpha-0.5",
            ("plan", "--alpha", "0.5"),
            {
                "plan.json": "e3d3bbb779a52b57fd9ba8abc978daaef97b57920ee758a42f82e6296eea14c0",
            },
        ),
        # Several receiver blocks of symbols, both detector settings mixed.
        (
            "transmit---symbols-3000",
            ("transmit", "--symbols", "3000", "--M", "7", "--N", "3", "--T", "0.3", "--bins", "64", "--seed", "11"),
            {
                "transcript.json": "55ccdd68295e822e523cbb48302f9cb186839a3d1aae7ee5a2d8b060b3151248",
                "summary.json": "426cfe1f6ca87e50aa74ef9703373fb14c6c52b6edfaefd2f1fc9b6a88bbbd88",
            },
        ),
        # The coherent pattern's near-empty tail bins crowd the sampler's
        # guide buckets, so some draws take its search fallback.
        (
            "simulate---mode-NaiveCollapse",
            ("simulate", "--mode", "NaiveCollapse", "--detectors", "off", "--M", "70000", "--x-max", "8", "--seed", "2"),
            {
                "hits.csv": "385ab2074cae98bb3f485f4e61ba01dc02c7ea2d13196d1ea3243d037f023d53",
                "decision.json": "001a6df4599f66e587037f43ebbdac3591c936d03dec5737c229fc359813efa5",
            },
        ),
        # The bulk and nosignal workloads' own commands at full size.
        (
            "distributions---bins-4096",
            ("distributions", "--bins", "4096", "--relative-phase", "2.5"),
            {
                "distributions.csv": "1d01c172ba4d21cc4529527d27a5a8df02e549801a851fdfe50c4d9c34494569",
            },
        ),
        (
            "nosignal-check---mode-UnitaryQM-512",
            ("nosignal-check", "--mode", "UnitaryQM", "--bins", "512", "--relative-phase", "2.5"),
            {
                "nosignal.json": "d884e8c05aa0227158807a17dc28bde0fe3fc32aa74a02c427edaf3f66025cbf",
                "nosignal.txt": "c1f2d152b127951e8de30a0f0c55ea049ce0d5e11b1dad23f4e756e4ad7bfbc9",
            },
        ),
        (
            "nosignal-check---mode-NaiveCollapse-512",
            ("nosignal-check", "--mode", "NaiveCollapse", "--bins", "512", "--relative-phase", "2.5"),
            {
                "nosignal.json": "cabcbd902cb247a607bd797abfebef4ba0f03ae7a0512886c0575d3c572e39af",
                "nosignal.txt": "ce5f85c3cff9305a4847718c43b7cb555e1f7a5e367fb2290b2f3ba2e79f49c7",
            },
        ),
        # A privileged frame: the two legs cancel, so the loop stays open.
        (
            "paradox---strategy-privileged",
            ("paradox", "--strategy", "privileged", "--beta0", "-0.6", "--separation", "3.3"),
            {
                "paradox.json": "63b88b9d0312258a527c4b9102b31525e1c003934356ea91a7a0144d64980bbf",
                "events.csv": "ba268ac721f57050f00203c604fce30289845d2d4fd941507ae5238d7ffe15a5",
            },
        ),
        # An advance of 7.4e299: still finite, near the top of the float range.
        (
            "paradox---v-0.37",
            ("paradox", "--v", "0.37", "--separation", "1e300"),
            {
                "paradox.json": "4807d47cc4bcb45bdd3a1d68339cd2095f7289bd9043388f56245ce6f83c28a3",
                "events.csv": "9d911882643dfdcfd75f587254a58a870d5a3fba202d1ebaf4a4903be0d09aae",
            },
        ),
        # The bulk workload's simulate geometry (N=1, T=1): its hit times
        # repeat a few (fraction, binade) pairs.
        (
            "simulate---detectors-on-M-100000",
            ("simulate", "--detectors", "on", "--M", "100000", "--seed", "7"),
            {
                "hits.csv": "5dc8bce5df6343327aa82acc609ceb7f31a771bbcb32e4709952b1df63e00be0",
                "decision.json": "4b5c439894e19b6e51152cd9d36a31c4e035f6785f2f2afa6437999fc176bbe7",
            },
        ),
        (
            "simulate---detectors-off-M-100000",
            ("simulate", "--detectors", "off", "--M", "100000", "--seed", "7"),
            {
                "hits.csv": "c09d84ce012a5d7d5e42a58e41eeb22b1e1f85241a6690fa1c66cb093900300f",
                "decision.json": "5f0b31334575c2745a6362797a1d7d7f101c605fc2d3efad122232de8e53950d",
            },
        ),
        # Hit times cross 2**53 and end past 1e16, in exponent notation.
        (
            "simulate---detectors-on-T-1.5e11",
            ("simulate", "--detectors", "on", "--M", "100000", "--T", "1.5e11", "--seed", "7"),
            {
                "hits.csv": "13b8a5455570c3ad657f600ad22c969b8b6c058555d8a4c77c85c307afe09cfc",
                "decision.json": "02944788f863971b70a87d6bde518d29c555951f94a3024c93c213206f116ba1",
            },
        ),
        # 5000 symbols of 27 pairs decode in three receiver blocks.
        (
            "transmit---symbols-5000",
            ("transmit", "--mode", "NaiveCollapse", "--symbols", "5000", "--M", "27", "--seed", "4"),
            {
                "transcript.json": "1f557a182a0f07b062328d13506dbdfe482cb7f9f36565b25d25a3a813811049",
                "summary.json": "49a40e3641a20b58a43b753427fb8f6d189553b9640fbe3d054319320cf5575c",
            },
        ),
        # The empty message.
        (
            "transmit---symbols-0",
            ("transmit", "--symbols", "0", "--seed", "1"),
            {
                "transcript.json": "e0de4734980871034803112645a8d9771a54508f8ff7b470f58a6429f0c8c5a3",
                "summary.json": "b39850a17cff0a70acd73156de314e95dde08138845b933bc4f48ef13cf8213b",
            },
        ),
        # One symbol of one pair.
        (
            "transmit---bits-1-M-1",
            ("transmit", "--mode", "NaiveCollapse", "--bits", "1", "--M", "1", "--seed", "2"),
            {
                "transcript.json": "e67862f868285b6e8daaebc771fa17024a485fbf167640a7f8ee777168dc6f02",
                "summary.json": "35a5771fa3487254e7937c745a13fe064ca119c016b5e9bc047cb4f9dd76db99",
            },
        ),
        # N >> M: the message reads 4 of 10^6 pooled slots.
        (
            "simulate---M-4-N-1000000",
            ("simulate", "--M", "4", "--N", "1000000", "--seed", "3"),
            {
                "hits.csv": "da76e23f58eeed0d2e033a8abf6d73befcf80c93484b1ed037b32a1bc17e9f4c",
                "decision.json": "36a47c040e346fe19a84f1431b2ca97587968b68e2e0e4bd9a5228c08d47b1a4",
            },
        ),
        # The telegraph workload's message size at M* under both models.
        (
            "transmit---mode-NaiveCollapse-symbols-2000-M-27",
            ("transmit", "--mode", "NaiveCollapse", "--symbols", "2000", "--M", "27", "--seed", "9"),
            {
                "transcript.json": "47e3e509e88069663eb12815ab97851027cd17e13d3adac8331cd3d0fac86f99",
                "summary.json": "21fbdcb2d193a0f9336ee3ed241ca69824ebaee01281a733ffc1a448fb5c475c",
            },
        ),
        (
            "transmit---mode-UnitaryQM-symbols-2000-M-27",
            ("transmit", "--mode", "UnitaryQM", "--symbols", "2000", "--M", "27", "--seed", "9"),
            {
                "transcript.json": "5d4ad9596e3ed6d10ae84aea91803be52b853c7ed040f3d6830a4f83e8328c4e",
                "summary.json": "1834c8c04dd2027df83176b001aafd29f399625d3acbbbbe7190993afcc88f91",
            },
        ),
        # A full receiver block of 2427 symbols and a 73-symbol tail.
        (
            "transmit---symbols-2500-M-27",
            ("transmit", "--symbols", "2500", "--M", "27", "--seed", "4"),
            {
                "transcript.json": "459df84ed82280a5ccfed7682da19d7b8d7e218db9c98c83014aa6e9f772fe4e",
                "summary.json": "de066127b36ec138888572bad26742b3f7b5d23e24c77090558c7718f152ab5f",
            },
        ),
        # 9000 symbols: each transcript column spans three 4096-row writer
        # chunks. First pinned while the transcript was formatted in one string.
        (
            "transmit---symbols-9000-M-1",
            ("transmit", "--symbols", "9000", "--M", "1", "--seed", "5"),
            {
                "transcript.json": "eb87177ec7d689dabfbb45199dc6583d83f1ab02128a8eaaa69f1e480bb1342a",
                "summary.json": "bcdcf51763d58227e3065d54cd6c50fc1b093f98d6c7f45ae045cb2e3c46728d",
            },
        ),
        # Draws above 256 bins, first pinned while the guide had 64 buckets per bin.
        # At 2048 bins that guide was capped at 2^16 buckets, and 16 per bin
        # leaves it uncapped at 2^15.
        (
            "transmit---bins-2048-symbols-600-M-27",
            ("transmit", "--mode", "NaiveCollapse", "--symbols", "600", "--M", "27", "--bins", "2048", "--seed", "6"),
            {
                "transcript.json": "78cd6634576177b1a8e27de4d476933976ad55db55f52a8102bafc8496023fca",
                "summary.json": "3b76a2740e88d7632e72dd3a37794d4d1b68fef23d16eeedc446fa785ee13581",
            },
        ),
        # At 16384 bins the guide is capped at 2^16 buckets either way, with
        # 1.3% of them crowded.
        (
            "simulate---bins-16384-M-20000",
            ("simulate", "--mode", "NaiveCollapse", "--detectors", "off", "--M", "20000", "--bins", "16384", "--seed", "6"),
            {
                "hits.csv": "cd08cb2148df422cec867976745d44ace3b47aa5ed943986253e6a1142499e18",
                "decision.json": "f0860dea0004031e89af1c8f7e928049b99c4365fb161a41920dbc1494c5587f",
            },
        ),
    )

    @pytest.mark.parametrize(
        "argv, pinned", [pytest.param(argv, pinned, id=case) for case, argv, pinned in PINNED_DIGESTS]
    )
    def test_report_bytes_pinned(self, tmp_path, monkeypatch, argv, pinned):
        # Reports embed output_dir, so a fixed relative directory keeps them
        # independent of where the test runs.
        monkeypatch.chdir(tmp_path)
        # nosignal-check exits 1 on its fail verdict, which NaiveCollapse gets.
        expected_exit = 1 if argv[:3] == ("nosignal-check", "--mode", "NaiveCollapse") else 0
        assert main(list(argv) + ["--output-dir", "out"]) == expected_exit
        digests = {
            name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in pinned
        }
        assert digests == pinned
        # Each JSON report is json's own text of what it holds.
        for name in pinned:
            if name.endswith(".json"):
                text = (tmp_path / "out" / name).read_text(encoding="utf-8")
                content = json.loads(text)
                assert text == json.dumps(content, sort_keys=True, indent=2, allow_nan=False) + "\n"

    def test_pinned_cases_have_unique_ids(self):
        # pytest would quietly suffix a repeated id, renaming a pinned case.
        cases = [case for case, _, _ in self.PINNED_DIGESTS]
        assert len(set(cases)) == len(cases)

    def test_unknown_subcommand_exits_via_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["teleport"])
        assert exc.value.code == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = [
            "transmit",
            "--symbols", "6",
            "--M", "40",
            "--seed", "11",
            "--output-dir", str(tmp_path),
        ]
        assert main(args) == 0
        first = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert main(args) == 0
        second = {
            p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()
        }
        assert first == second
        assert set(first) == {"transcript.json", "summary.json"}

    def test_console_entry_point(self, tmp_path):
        # The child imports the package from where this process found it,
        # installed or not.
        package_root = str(Path(qtelegraph.__file__).resolve().parents[1])
        pythonpath = [package_root, os.environ.get("PYTHONPATH", "")]
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "qtelegraph.cli",
                "paradox",
                "--v", "0.5",
                "--separation", "2",
                "--output-dir", str(tmp_path),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, pythonpath))},
        )
        assert result.returncode == 0
        payload = json.loads((tmp_path / "paradox.json").read_text())
        assert payload["trace"]["loop_advance"] == pytest.approx(2.0, abs=1e-12)
