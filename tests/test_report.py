"""Tests for the report writers: byte for byte against csv.writer and json.dumps."""

import csv
import io
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtelegraph import report as report_module
from qtelegraph.cli import main, resolve_config
from qtelegraph.device import (
    coherent_distribution,
    eraser_conditionals,
    incoherent_distribution,
    write_distributions_csv,
)
from qtelegraph.protocol import EnsembleSchedule, transmit_message
from qtelegraph.report import Coded, json_text, write_csv
from qtelegraph.rng import stream

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# The float column properties write a file per example; fewer keep them fast.
FLOAT_PROPERTY = settings(PROPERTY, max_examples=50)


def reference_json(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False)


def reference_csv(comment_lines, rows) -> bytes:
    """What the writers wrote before: '# ' lines, then csv.writer rows."""
    buffer = io.StringIO(newline="")
    buffer.writelines(f"# {line}\n" for line in comment_lines)
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode("utf-8")


# -- json_text ---------------------------------------------------------------

FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 1e16, 1e-5, 5e-324, 0.1, 1e300, -2.5]
)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
TEXT = st.text(max_size=8) | st.sampled_from(["", "é", "\x00\x1f\x7f", '"\\/', " ", "{}"])
KEYS = st.text(max_size=6) | st.sampled_from(["{", "}", "{0}", "a", "b", "é", "\n"])


def scalars(floats):
    return st.none() | st.booleans() | st.integers(-(2**70), 2**70) | floats | TEXT


@st.composite
def same_keyed(draw, values):
    """A list of dicts that all have one key set (empty included)."""
    keys = draw(st.lists(KEYS, max_size=4, unique=True))
    count = draw(st.integers(1, 5))
    return [{key: draw(values) for key in keys} for _ in range(count)]


def documents(floats=FLOATS, keys=KEYS):
    leaves = scalars(floats)
    base = (
        leaves
        | st.lists(st.integers(-(2**70), 2**70) | floats, max_size=8)
        | st.lists(st.booleans() | st.integers(-3, 3), max_size=8)
        | same_keyed(leaves)
        | st.lists(st.dictionaries(keys, leaves, max_size=3), max_size=4)
        | st.just([])
        | st.just({})
    )
    return st.recursive(
        base,
        lambda children: st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | same_keyed(children),
        max_leaves=24,
    )


def has_non_str_key(document) -> bool:
    if isinstance(document, dict):
        return any(not isinstance(key, str) for key in document) or any(
            map(has_non_str_key, document.values())
        )
    if isinstance(document, (list, tuple)):
        return any(map(has_non_str_key, document))
    return False


class TestJsonText:
    @PROPERTY
    @given(documents())
    def test_equals_indented_sorted_json_dumps(self, document):
        assert json_text(document) == reference_json(document)

    @PROPERTY
    @given(documents(floats=FLOATS | NON_FINITE))
    def test_non_finite_floats_raise_like_allow_nan_false(self, document):
        try:
            expected = reference_json(document)
        except ValueError:
            with pytest.raises(ValueError, match="JSON compliant"):
                json_text(document)
        else:
            assert json_text(document) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: {"a": [1, 2.5, v]},
            lambda v: [{"k": 1.0, "s": "x"}, {"k": v, "s": "y"}],
            lambda v: {"a": {"b": [[v]]}},
            lambda v: ["text", None, v],
        ],
    )
    def test_every_non_finite_placement_raises(self, place, bad):
        with pytest.raises(ValueError, match="JSON compliant"):
            json_text(place(bad))

    @PROPERTY
    @given(documents(keys=KEYS | st.integers(-5, 5) | st.booleans() | st.none()))
    def test_non_str_keys_raise_type_error(self, document):
        if has_non_str_key(document):
            with pytest.raises(TypeError):
                json_text(document)
        else:
            assert json_text(document) == reference_json(document)

    @pytest.mark.parametrize(
        "value", [{1, 2}, b"bytes", object(), np.int64(3), [1, {2}], [{"a": {3}}, {"a": 1}]]
    )
    def test_values_outside_json_raise_type_error(self, value):
        with pytest.raises(TypeError):
            json_text({"value": value})

    def test_numpy_floats_are_written_as_floats(self):
        # json writes a float subclass through float.__repr__; so must this.
        document = {"x": np.float64(0.1), "xs": [np.float64(2.5), 1.0]}
        assert json_text(document) == reference_json(document)


# -- write_csv -----------------------------------------------------------------

SAFE_FIELDS = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)))


class TestWriteCsv:
    @PROPERTY
    @given(
        width=st.integers(2, 4),
        rows=st.lists(st.lists(SAFE_FIELDS, min_size=4, max_size=4), max_size=12),
        comments=st.lists(st.text(st.characters(blacklist_characters="\r\n"), max_size=5), max_size=2),
    )
    def test_equals_csv_writer(self, tmp_path_factory, width, rows, comments):
        header = [f"c{j}" for j in range(width)]
        rows = [row[:width] for row in rows]
        path = tmp_path_factory.mktemp("csv") / "report.csv"
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks, so rows cross chunk boundaries.
            patch.setattr(report_module, "_ROWS_PER_CHUNK", 3)
            write_csv(path, comments, header, [[row[j] for row in rows] for j in range(width)])
        assert path.read_bytes() == reference_csv(comments, [header] + rows)

    @pytest.mark.parametrize("field", ["1,5", 'say "x"', '"', "a\nb", "a\rb", "a\r\nb"])
    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_field_csv_would_quote_raises(self, tmp_path, monkeypatch, field, row):
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 2)
        column = ["1", "2", "3", "4"]
        column[row] = field
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), (column, ["x"] * 4))

    @pytest.mark.parametrize("header", [("a,b", "c"), ("a", 'b"')])
    def test_header_csv_would_quote_raises(self, tmp_path, header):
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(tmp_path / "r.csv", [], header, (["1"], ["2"]))

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (16384, 16385), (0, 1)])
    def test_columns_of_unequal_length_raise(self, tmp_path, lengths):
        columns = [map(str, range(n)) for n in lengths]
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), columns)

    @pytest.mark.parametrize("header, count", [(("a",), 1), (("a", "b"), 1), (("a", "b"), 3)])
    def test_one_column_per_header_name_at_least_two(self, tmp_path, header, count):
        # csv.writer quotes a lone empty field, so one column is refused.
        with pytest.raises(ValueError, match="at least two"):
            write_csv(tmp_path / "r.csv", [], header, [["1"]] * count)
        assert not (tmp_path / "r.csv").exists()


# -- float and coded columns --------------------------------------------------


def neighbours(x: float) -> list[float]:
    return [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]


# Where repr switches notation, where binades and their spacing change, and
# the ends of the float range.
EDGE_FLOATS = sorted(
    {0.0, 5e-324, 1.0 - 2**-53, 2.0**52, 2.0**53 - 2, 2.0**53 + 2, sys.float_info.max}
    | set(neighbours(1e-4) + neighbours(1e16))
    | {y for k in range(-16, 60) for y in neighbours(2.0**k)}
)
OTHER_FLOATS = [-0.0, -1.5, -5e-324, -1e300, math.inf, -math.inf, math.nan]


def float_column_csv(path, values) -> bytes:
    """A float column written beside a text column."""
    column = np.array(values, dtype=np.float64)
    write_csv(path, ["floats"], ("v", "w"), (column, ["w"] * len(column)))
    return path.read_bytes()


def expected_float_csv(values) -> bytes:
    return reference_csv(["floats"], [["v", "w"]] + [[repr(float(v)), "w"] for v in values])


class TestFloatColumn:
    def test_edge_values_equal_repr(self, tmp_path):
        values = EDGE_FLOATS + OTHER_FLOATS
        assert float_column_csv(tmp_path / "r.csv", values) == expected_float_csv(values)

    @FLOAT_PROPERTY
    @given(
        bases=st.lists(st.floats(min_value=0.0, allow_infinity=False), min_size=1, max_size=8),
        shifts=st.lists(st.integers(0, 2**60), min_size=1, max_size=6),
    )
    def test_non_negative_doubles_and_integer_shifts_equal_repr(self, tmp_path_factory, bases, shifts):
        # Each base plus integers: values that share a fraction, within a
        # binade and across binades.
        values = bases + [base + shift for base in bases for shift in shifts]
        path = tmp_path_factory.mktemp("floats") / "r.csv"
        assert float_column_csv(path, values) == expected_float_csv(values)

    @FLOAT_PROPERTY
    @given(
        n=st.integers(1, 40),
        period=st.floats(1e-3, 1e12),
        fractions=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=40, max_size=40),
        first=st.integers(0, 2**40),
        count=st.integers(1, 300),
    )
    def test_emission_times_equal_repr(self, tmp_path_factory, n, period, fractions, first, count):
        schedule = EnsembleSchedule(np.array(fractions[:n]) * period, period)
        times, _ = schedule.emissions_after(first, count)
        path = tmp_path_factory.mktemp("times") / "r.csv"
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks, so keys repeat within and across chunks.
            patch.setattr(report_module, "_ROWS_PER_CHUNK", 64)
            assert float_column_csv(path, times) == expected_float_csv(times.tolist())


class TestCodedColumn:
    def test_each_code_present_is_formatted_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 4)
        codes = np.array([10**7 - 1, 5, 5, 3, 10**7 - 1, 5, 0, 3, 3, 10**7 - 1, 2**40])
        formatted = []

        def text(code: int) -> str:
            formatted.append(code)
            return f"c{code}"

        path = tmp_path / "r.csv"
        write_csv(path, [], ("a", "b"), (Coded(codes, text), ["x"] * len(codes)))
        assert sorted(formatted) == sorted(set(codes.tolist()))
        rows = [["a", "b"]] + [[f"c{code}", "x"] for code in codes.tolist()]
        assert path.read_bytes() == reference_csv([], rows)

    @pytest.mark.parametrize("field", ["1,5", 'say "x"', "a\nb", "a\rb"])
    def test_text_csv_would_quote_raises(self, tmp_path, field):
        column = Coded(np.array([0, 1, 0]), lambda code: field if code else "ok")
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), (column, np.zeros(3)))

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (4096, 4097), (0, 1)])
    def test_columns_of_unequal_length_raise(self, tmp_path, lengths):
        columns = (Coded(np.zeros(lengths[0], dtype=int), str), np.zeros(lengths[1]))
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), columns)


def reference_hits_csv(cfg) -> bytes:
    bit = 1 if cfg.detectors.value == "on" else 0
    result = transmit_message(
        [bit], cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "simulate"), keep_hits=True
    )
    rows = [["telegraph_id", "time", "x"]] + [
        [int(i), repr(float(t)), repr(float(x))]
        for i, t, x in zip(
            result.hit_telegraph_ids[0], result.hit_times[0], cfg.device.bin_centers()[result.hit_bins[0]]
        )
    ]
    comments = [f"{key}: {value}" for key, value in sorted(cfg.resolved().items())]
    return reference_csv(comments, rows)


class TestReportsMatchCsvWriter:
    # 2**14 rows fill whole writer chunks; one more row starts another.
    @pytest.mark.parametrize(
        "m, n, t",
        [
            pytest.param(1, 37, 1.0, id="1"),
            pytest.param(2**14, 37, 1.0, id="16384"),
            pytest.param(2**14 + 1, 37, 1.0, id="16385"),
            # One telegraph: every time shares the offset's fraction.
            pytest.param(2**12 + 1, 1, 1.0, id="4097-N1-T1.0"),
            pytest.param(2**12 + 1, 37, 0.37, id="4097-T0.37"),
            # Every time below 1: no two share a (fraction, binade).
            pytest.param(2**12 + 1, 37, 1e-6, id="4097-T1e-06"),
            # Times up to 6e14, in binades whose spacing is 1/32 to 1/16.
            pytest.param(2**12 + 1, 1, 1.5e11, id="4097-N1-T1.5e11"),
        ],
    )
    @pytest.mark.parametrize("bins", [256, 5000])
    def test_hits_csv(self, tmp_path, monkeypatch, m, n, t, bins):
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--M", str(m), "--N", str(n), "--T", repr(t), "--bins", str(bins)]
        assert main(argv + ["--detectors", "on", "--seed", "3", "--output-dir", "out"]) == 0
        cfg = resolve_config(
            {"M": m, "N": n, "T": t, "bins": bins, "detectors": "on", "seed": 3, "output_dir": "out"}
        )
        assert (tmp_path / "out" / "hits.csv").read_bytes() == reference_hits_csv(cfg)

    @pytest.mark.parametrize("bins", [2, 7, 4096])
    def test_distributions_csv(self, tmp_path, bins):
        cfg = resolve_config({"bins": bins, "relative_phase": 1.3}).device
        path = tmp_path / "distributions.csv"
        write_distributions_csv(cfg, path, header_comments=["seed: 0", "bins: x"])
        eraser = eraser_conditionals(cfg)
        columns = (
            cfg.bin_centers(),
            coherent_distribution(cfg),
            incoherent_distribution(cfg),
            eraser.p_plus,
            eraser.p_minus,
        )
        rows = [["x", "p_coherent", "p_incoherent", "p_plus", "p_minus"]] + [
            [repr(float(column[j])) for column in columns] for j in range(bins)
        ]
        assert path.read_bytes() == reference_csv(["seed: 0", "bins: x"], rows)
