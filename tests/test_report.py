"""Tests for the report writers: byte for byte against csv.writer and json.dumps."""

import errno
import json
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qtelegraph import cli as cli_module, report as report_module
from qtelegraph.cli import VERDICTS, main, resolve_config
from qtelegraph.device import (
    coherent_distribution,
    eraser_conditionals,
    incoherent_distribution,
    write_distributions_csv,
)
from qtelegraph.protocol import EnsembleSchedule, transmit_message
from qtelegraph.report import Coded, Records, write_csv, write_json, write_text
from qtelegraph.rng import stream

from oracles import reference_csv, reference_hits_csv

# Every character at which str.splitlines breaks a line.
LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# The float column properties write a file per example; fewer keep them fast.
FLOAT_PROPERTY = settings(PROPERTY, max_examples=50)


def reference_json(document) -> str:
    return json.dumps(document, sort_keys=True, indent=2, allow_nan=False)


def listed(value):
    """``value`` with each array or Coded column as its list and each Records
    as its list of dicts."""
    if isinstance(value, dict):
        return {key: listed(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Coded):
        return [json.loads(value.text(code)) for code in value.codes.tolist()]
    if isinstance(value, Records):
        keys = list(value.columns)
        return [dict(zip(keys, row)) for row in zip(*map(listed, value.columns.values()))]
    return value


# -- write_json ---------------------------------------------------------------

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


ARRAY_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])
ARRAY_ITEMS = {
    np.int64: st.integers(-(2**63), 2**63 - 1),
    np.uint64: st.integers(0, 2**64 - 1),
    np.float64: ARRAY_FLOATS,
}


def arrays(dtype, size=st.integers(0, 8)):
    return size.flatmap(lambda n: st.lists(ARRAY_ITEMS[dtype], min_size=n, max_size=n)).map(
        lambda items: np.array(items, dtype=dtype)
    )


def coded_texts(size):
    """A Coded column of JSON-quoted texts, as the transcript's verdicts are."""
    texts = st.lists(TEXT, min_size=1, max_size=3)
    return texts.flatmap(
        lambda texts: st.lists(st.integers(0, len(texts) - 1), min_size=size, max_size=size).map(
            lambda codes: Coded(np.array(codes, dtype=np.intp), lambda code: json.dumps(texts[code]))
        )
    )


@st.composite
def records(draw):
    """Records of int, float64 and Coded columns, zero rows included."""
    rows = draw(st.integers(0, 7))
    keys = draw(st.lists(KEYS, max_size=4, unique=True))
    kinds = [*ARRAY_ITEMS, Coded]
    columns = {}
    for key in keys:
        kind = draw(st.sampled_from(kinds))
        columns[key] = draw(coded_texts(rows) if kind is Coded else arrays(kind, st.just(rows)))
    return Records(columns)


def array_documents():
    """Dicts whose top-level values include 1-d arrays and Records."""
    values = st.sampled_from(list(ARRAY_ITEMS)).flatmap(arrays) | records() | documents()
    return st.dictionaries(KEYS, values, max_size=5)


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


def written_json(path, document) -> str:
    write_json(path, document)
    return path.read_text(encoding="utf-8")


def assert_raises_and_writes_nothing(path, document, error, match=None):
    with pytest.raises(error, match=match):
        write_json(path, document)
    assert not path.exists()


class TestWriteJson:
    @PROPERTY
    @given(documents())
    def test_equals_indented_sorted_json_dumps(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("json") / "r.json"
        assert written_json(path, document) == reference_json(document) + "\n"

    @PROPERTY
    @given(array_documents())
    def test_arrays_and_records_equal_json_dumps_of_their_lists(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("json") / "r.json"
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks, so arrays and records cross chunk boundaries.
            patch.setattr(report_module, "_ROWS_PER_CHUNK", 3)
            assert written_json(path, document) == reference_json(listed(document)) + "\n"

    @PROPERTY
    @given(documents(floats=FLOATS | NON_FINITE))
    def test_non_finite_floats_raise_like_allow_nan_false(self, tmp_path_factory, document):
        path = tmp_path_factory.mktemp("json") / "r.json"
        try:
            expected = reference_json(document)
        except ValueError:
            assert_raises_and_writes_nothing(path, document, ValueError, "JSON compliant")
        else:
            assert written_json(path, document) == expected + "\n"

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "place",
        [
            lambda v: v,
            lambda v: {"a": v},
            lambda v: {"a": [1, 2.5, v]},
            lambda v: [{"k": 1.0, "s": "x"}, {"k": v, "s": "y"}],
            lambda v: {"a": {"b": [[v]]}},
            lambda v: {"c": 1, "a": ["text", None, v]},
            lambda v: {"a": np.array([1.0, v])},
            lambda v: {"z": np.arange(3), "a": Records({"k": np.array([1.0, v]), "s": np.arange(2)})},
        ],
    )
    def test_every_non_finite_placement_raises(self, tmp_path, place, bad):
        assert_raises_and_writes_nothing(tmp_path / "r.json", place(bad), ValueError, "JSON compliant")

    @pytest.mark.parametrize(
        "document",
        [
            {"a": {"b": np.array([1.0, 2.5])}},
            {"a": [np.arange(2)]},
            {"a": {"r": Records({"k": np.arange(2)})}},
            np.array([1.0]),
        ],
    )
    def test_an_array_below_the_top_level_is_json_type_error(self, tmp_path, document):
        assert_raises_and_writes_nothing(tmp_path / "r.json", document, TypeError, "not JSON serializable")

    @PROPERTY
    @given(documents(keys=KEYS | st.integers(-5, 5) | st.booleans() | st.none()))
    def test_non_str_keys_convert_or_raise_like_json_dumps(self, tmp_path_factory, document):
        # json writes an int, bool or None key as a string, and refuses to
        # sort keys of mixed types; write_json does exactly the same.
        path = tmp_path_factory.mktemp("json") / "r.json"
        try:
            expected = reference_json(document)
        except Exception as error:
            assert_raises_and_writes_nothing(path, document, type(error))
        else:
            assert written_json(path, document) == expected + "\n"

    @pytest.mark.parametrize(
        "value",
        [
            {1, 2},
            b"bytes",
            object(),
            np.int64(3),
            [1, {2}],
            [{"a": {3}}, {"a": 1}],
            # Only 1-d int and float64 arrays are written as lists.
            np.array([[1, 2]]),
            np.array(["a"]),
            np.array([True]),
            np.array([1.0], dtype=np.float32),
            [np.array([1])],
            Records({"a": np.array([True])}),
        ],
    )
    def test_values_outside_json_raise_type_error(self, tmp_path, value):
        assert_raises_and_writes_nothing(tmp_path / "r.json", {"value": value}, TypeError)

    def test_record_columns_of_unequal_length_raise(self, tmp_path):
        document = {"r": Records({"a": np.arange(3), "b": np.arange(2)})}
        assert_raises_and_writes_nothing(tmp_path / "r.json", document, ValueError, "differ in length")

    @pytest.mark.parametrize("shape", ["direct", "nested"])
    def test_dict_cycles_raise_like_json_dumps(self, tmp_path, shape):
        document = {"b": {"c": 1}}
        if shape == "direct":
            document["a"] = document
        else:
            document["b"]["d"] = document
        with pytest.raises(ValueError, match="^Circular reference detected$"):
            reference_json(document)
        path = tmp_path / "r.json"
        assert_raises_and_writes_nothing(path, document, ValueError, "^Circular reference detected$")

    def test_a_dict_held_twice_off_its_own_path_is_not_a_cycle(self, tmp_path):
        shared = {"x": 1}
        document = {"a": shared, "b": {"c": shared}}
        assert written_json(tmp_path / "r.json", document) == reference_json(document) + "\n"

    def test_no_array_or_records_reaches_json_dumps(self, tmp_path, monkeypatch):
        # A transcript's shapes, a config and a None: json formats only the
        # config and the None.
        k = np.arange(50)
        document = {
            "decisions": Records(
                {"decided": Coded(k % 2, lambda code: f'"v{code}"'), "log_lr": k / 3, "fringe_statistic": k}
            ),
            "sent": np.array([0, 1] * 20),
            "symbol_times": np.arange(40) * 0.1,
            "config": {"M": 27, "alpha": 0.01, "bits": ""},
            "failure_reason": None,
        }
        expected = reference_json(listed(document)) + "\n"
        handed = []
        dumps = json.dumps

        def recorded(value, **options):
            handed.append(value)
            return dumps(value, **options)

        monkeypatch.setattr(json, "dumps", recorded)
        assert written_json(tmp_path / "r.json", document) == expected
        assert handed == [document["config"], None]

    def test_a_failed_chunk_write_leaves_no_file(self, tmp_path, monkeypatch):
        """A full disk at the second chunk of an array removes the report:
        the brace, the key and the first chunk are not left behind."""
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 2)
        monkeypatch.setattr(report_module, "open", lambda path, mode: DiskFullAfter(path, mode, 3), raising=False)
        path = tmp_path / "r.json"
        with pytest.raises(OSError, match="No space left"):
            write_json(path, {"xs": np.arange(6.0)})
        assert not path.exists()

    def test_numpy_floats_are_written_as_floats(self, tmp_path):
        # json writes a float subclass through float.__repr__; so must this.
        document = {"x": np.float64(0.1), "xs": [np.float64(2.5), 1.0]}
        assert written_json(tmp_path / "r.json", document) == reference_json(document) + "\n"


# -- write_csv -----------------------------------------------------------------

SAFE_FIELDS = st.text(st.characters(blacklist_characters=',"\r\n', blacklist_categories=("Cs",)))


class DiskFullAfter:
    """A report file whose writes after the first ``writes`` fail as a full
    disk does."""

    def __init__(self, path, mode, writes):
        self.file = open(path, mode)
        self.writes = writes

    def write(self, data):
        if not self.writes:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        self.writes -= 1
        return self.file.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.file.close()


def texts_column(texts) -> Coded:
    """A Coded column whose row i is ``texts[i]``."""
    return Coded(np.arange(len(texts)), list(texts).__getitem__)


def constant_column(text, length) -> Coded:
    return Coded(np.zeros(length, dtype=np.intp), lambda code: text)


class TestWriteCsv:
    @PROPERTY
    @given(
        width=st.integers(2, 4),
        rows=st.lists(st.lists(SAFE_FIELDS, min_size=4, max_size=4), max_size=12),
        comments=st.lists(st.text(st.characters(blacklist_characters=LINE_BREAKS), max_size=5), max_size=2),
    )
    def test_equals_csv_writer(self, tmp_path_factory, width, rows, comments):
        header = [f"c{j}" for j in range(width)]
        rows = [row[:width] for row in rows]
        path = tmp_path_factory.mktemp("csv") / "report.csv"
        with pytest.MonkeyPatch.context() as patch:
            # Small chunks, so rows cross chunk boundaries.
            patch.setattr(report_module, "_ROWS_PER_CHUNK", 3)
            write_csv(path, comments, header, [texts_column([row[j] for row in rows]) for j in range(width)])
        assert path.read_bytes() == reference_csv(comments, [header] + rows)

    @pytest.mark.parametrize("field", ["1,5", 'say "x"', '"', "a\nb", "a\rb", "a\r\nb"])
    @pytest.mark.parametrize("row", [0, 2, 3])
    def test_field_csv_would_quote_raises(self, tmp_path, monkeypatch, field, row):
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 2)
        column = ["1", "2", "3", "4"]
        column[row] = field
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), (texts_column(column), constant_column("x", 4)))
        assert not (tmp_path / "r.csv").exists()

    def test_a_field_csv_would_quote_in_a_later_chunk_leaves_no_file(self, tmp_path, monkeypatch):
        """Sparse codes -5..-1 are formatted chunk by chunk, so code -1's
        'x,y' is found after the header and four rows are written."""
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 2)
        column = Coded(np.arange(-5, 0), lambda code: "x,y" if code == -1 else str(code))
        path = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(path, ["c"], ("a", "b"), (column, constant_column("z", 5)))
        assert not path.exists()

    def test_the_pad_byte_drops_no_text(self, tmp_path, monkeypatch):
        """Texts of every UTF-8 length, with the highest lead and continuation
        bytes, NUL and DEL, cross chunk boundaries in a dense and a sparse
        column, as CSV fields and as the JSON texts of a Records column."""
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 16)
        texts = ["", "\x00", "\x7f", "\x80", "\u07ff", "\u0800", "\ufffd", "\U00010000", "\U0010ffff"]
        codes = np.random.default_rng(5).permutation(np.arange(40) % len(texts))
        dense = Coded(codes, texts.__getitem__)
        sparse = Coded(codes - len(texts), lambda code: texts[code + len(texts)])
        write_csv(tmp_path / "r.csv", ["pad"], ("a", "b"), (dense, sparse))
        rows = [["a", "b"]] + [[texts[code]] * 2 for code in codes.tolist()]
        assert (tmp_path / "r.csv").read_bytes() == reference_csv(["pad"], rows)
        as_json = {"r": Records({"a": Coded(codes, lambda code: json.dumps(texts[code]))})}
        assert written_json(tmp_path / "r.json", as_json) == reference_json(listed(as_json)) + "\n"

    @pytest.mark.parametrize("header", [("a,b", "c"), ("a", 'b"')])
    def test_header_csv_would_quote_raises(self, tmp_path, header):
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(tmp_path / "r.csv", [], header, (texts_column(["1"]), texts_column(["2"])))

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (16384, 16385), (0, 1)])
    def test_columns_of_unequal_length_raise(self, tmp_path, lengths):
        columns = [Coded(np.arange(n), str) for n in lengths]
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), columns)
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("header, count", [(("a",), 1), (("a", "b"), 1), (("a", "b"), 3)])
    def test_one_column_per_header_name_at_least_two(self, tmp_path, header, count):
        # csv.writer quotes a lone empty field, so one column is refused.
        with pytest.raises(ValueError, match="at least two"):
            write_csv(tmp_path / "r.csv", [], header, [texts_column(["1"])] * count)
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.uint8])
    def test_int_columns_are_written_by_value(self, tmp_path, monkeypatch, dtype):
        """An int column is written as each int's repr, as write_json writes
        it, up to its dtype's extremes, in the dense and the sparse path."""
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 4)
        info = np.iinfo(dtype)
        values = [info.min, info.max, 0, 1, 2, info.max - 1, 2, info.min + 1, 3]
        if dtype is np.int64:
            values += [2**60, -(2**60)]
        column = np.array(values, dtype)
        write_csv(tmp_path / "r.csv", ["ints"], ("a", "b"), (column, column.astype(np.float64)))
        rows = [["a", "b"]] + [[value, float(value)] for value in values]
        assert (tmp_path / "r.csv").read_bytes() == reference_csv(["ints"], rows)

    @pytest.mark.parametrize(
        "column",
        [
            np.array([0.1, 0.5], np.float32),
            np.array([[1.0, 2.0]]),
            np.array([True, False]),
            [0.1, 0.5],
            np.array(["1", "2"]),
        ],
        ids=["float32", "2-d", "bool", "list", "str"],
    )
    def test_other_columns_raise_before_the_file_is_opened(self, tmp_path, column):
        path = tmp_path / "r.csv"
        with pytest.raises(ValueError, match="not Coded, 1-d float64 or 1-d int"):
            write_csv(path, [], ("a", "b"), (column, np.zeros(2)))
        assert not path.exists()


@pytest.mark.parametrize("line", ["two\nlines", "two\r\nlines", "trailing\n", "form\x0cfeed", "para\u2029graph"])
@pytest.mark.parametrize("writer", ["csv", "text", "distributions"])
def test_comment_line_with_a_break_is_refused_before_the_file_is_opened(tmp_path, writer, line):
    """Written, the text after the break would lose its '# ' and a
    '#'-skipping reader would take it for the header."""
    path = tmp_path / "report"
    path.write_bytes(b"kept")
    with pytest.raises(ValueError, match="comment line holds a line break"):
        if writer == "csv":
            write_csv(path, ["one", line], ("a", "b"), (np.zeros(2), np.zeros(2)))
        elif writer == "text":
            write_text(path, [line], "body\n")
        else:
            write_distributions_csv(resolve_config({}).device, path, header_comments=[line])
    assert path.read_bytes() == b"kept"


class TestWriteText:
    def test_equals_comment_lines_then_the_text(self, tmp_path):
        path = tmp_path / "r.txt"
        write_text(path, ["one", "é"], "body\nline é\n")
        assert path.read_bytes() == "# one\n# é\nbody\nline é\n".encode("utf-8")

    def test_a_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report_module, "open", lambda path, mode: DiskFullAfter(path, mode, 0), raising=False)
        path = tmp_path / "r.txt"
        with pytest.raises(OSError, match="No space left"):
            write_text(path, ["c"], "body\n")
        assert not path.exists()

    def test_nosignal_txt_is_written_through_it(self, tmp_path, monkeypatch):
        """A full disk at nosignal.txt leaves no nosignal.txt and exits 2."""
        monkeypatch.setattr(report_module, "open", lambda path, mode: DiskFullAfter(path, mode, 0), raising=False)
        assert main(["nosignal-check", "--output-dir", str(tmp_path)]) == 2
        assert not (tmp_path / "nosignal.txt").exists()


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
    write_csv(path, ["floats"], ("v", "w"), (column, constant_column("w", len(column))))
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


def sweep_floats() -> list[float]:
    """Every power of two and power of ten, 3 times each power of ten, and
    their neighbours; the subnormals below 5000 times the least; the notation
    switches; 2**53 +- 2 and the largest double; and the negatives of all."""
    values = {2.0**53 - 2, 2.0**53 + 2, sys.float_info.max}
    values.update(5e-324 * significand for significand in range(1, 5000))
    values.update(y for k in range(-1074, 1024) for y in neighbours(2.0**k))
    powers = [float(f"{m}e{k}") for m in (1, 3) for k in range(-324, 309)]
    values.update(y for x in powers if 0 < x < math.inf for y in neighbours(x))
    values.update(neighbours(1e-4) + neighbours(1e16))
    values.discard(math.inf)
    values.discard(0.0)
    return sorted(values | {-x for x in values})


SWEEP_FLOATS = sweep_floats()


@pytest.fixture(params=["repr", "shortest"])
def float_path(request, monkeypatch):
    """Each float chunk through one side of the selection: a repr per
    distinct key, or the shortest digits of every value."""
    monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 1000)
    keys = 2**62 if request.param == "repr" else -1
    monkeypatch.setattr(report_module, "_REPR_KEYS", keys)
    return request.param


def float_column_json(path, values) -> str:
    return written_json(path, {"v": np.array(values, dtype=np.float64), "r": Records({"w": np.array(values)})})


def expected_float_json(values) -> str:
    return reference_json({"v": list(values), "r": [{"w": value} for value in values]}) + "\n"


@pytest.fixture(scope="module")
def random_patterns():
    """2**18 random 64-bit patterns, the finite ones as floats, with their
    CSV and JSON texts. A signalling NaN would raise on comparison under the
    suite's RuntimeWarning filter, so the patterns stay finite."""
    bits = np.random.default_rng(20).integers(0, 2**64, 2**18, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)[np.isfinite(bits.view(np.float64))].tolist()
    return values, expected_float_csv(values), reference_json({"v": values}) + "\n"


class TestShortestDigits:
    """Floats written from their shortest digits equal ``repr``, as the
    table of one repr per distinct key does."""

    def test_the_sweep_equals_repr(self, tmp_path, float_path):
        values = SWEEP_FLOATS + [0.0, -0.0, math.inf, -math.inf, math.nan]
        assert float_column_csv(tmp_path / "r.csv", values) == expected_float_csv(values)
        finite = SWEEP_FLOATS + [0.0, -0.0]
        assert float_column_json(tmp_path / "r.json", finite) == expected_float_json(finite)

    def test_random_finite_bit_patterns_equal_repr(self, tmp_path, float_path, random_patterns):
        values, csv_text, json_text = random_patterns
        assert float_column_csv(tmp_path / "r.csv", values) == csv_text
        assert written_json(tmp_path / "r.json", {"v": np.array(values)}) == json_text

    @FLOAT_PROPERTY
    @given(values=st.lists(st.floats(), min_size=1, max_size=40))
    def test_any_floats_equal_repr(self, tmp_path_factory, values):
        path = tmp_path_factory.mktemp("floats")
        for keys in (2**62, -1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(report_module, "_ROWS_PER_CHUNK", 7)
                patch.setattr(report_module, "_REPR_KEYS", keys)
                assert float_column_csv(path / "r.csv", values) == expected_float_csv(values)
                finite = [value for value in values if math.isfinite(value)]
                assert float_column_json(path / "r.json", finite) == expected_float_json(finite)

    def test_distributions_pass_no_float_to_repr(self, tmp_path, monkeypatch):
        """Every column of distributions.csv at 4096 bins has more distinct
        keys than _REPR_KEYS, so no value of it is formatted by repr."""
        formatted = []

        def counting(value):
            formatted.extend(value if isinstance(value, list) else [value])
            return repr(value)

        monkeypatch.setattr(report_module, "repr", counting, raising=False)
        cfg = resolve_config({"bins": 4096, "relative_phase": 1.3}).device
        write_distributions_csv(cfg, tmp_path / "distributions.csv")
        assert formatted == []
        # A column of few keys still goes through repr, one per key: 3.5
        # and 2.5 share the key 2.5, the least double of [2, 4) with fraction 0.5.
        float_column_csv(tmp_path / "r.csv", [0.5, 3.5, 0.5, 2.5])
        assert formatted == [0.5, 2.5]

    @pytest.mark.parametrize("mode", ["NaiveCollapse", "UnitaryQM"])
    @pytest.mark.parametrize("symbols", [1, 64, 300, 4097, 9000])
    def test_transcript_equals_json_dumps_of_its_lists(self, tmp_path, monkeypatch, mode, symbols):
        """Short transcripts take the repr table and long ones the shortest
        digits; either way transcript.json is json.dumps of the message."""
        monkeypatch.chdir(tmp_path)
        argv = ["transmit", "--symbols", str(symbols), "--mode", mode, "--seed", "4", "--output-dir", "out"]
        assert main(argv) == 0
        cfg = resolve_config({"symbols": symbols, "mode": mode, "seed": 4, "output_dir": "out"})
        bits = stream(cfg.seed, "transmit", "bits").integers(0, 2, size=symbols)
        result = transmit_message(bits, cfg.plan, cfg.mode, cfg.device, stream(cfg.seed, "transmit"))
        decisions = zip(result.log_lr.tolist(), result.received.tolist(), result.fringe_statistic.tolist())
        document = {
            "config": cfg.resolved(),
            "sent": result.sent.tolist(),
            "received": result.received.tolist(),
            "symbol_times": result.symbol_times.tolist(),
            "hit_counts": [cfg.M] * symbols,
            "decisions": [
                {"log_lr": llr, "decided": VERDICTS[bit], "fringe_statistic": statistic}
                for llr, bit, statistic in decisions
            ],
        }
        written = (tmp_path / "out" / "transcript.json").read_text(encoding="utf-8")
        assert written == reference_json(document) + "\n"


# Codes outside [0, 4), the chunk size the dense-code tests patch in.
SPARSE_CODES = {
    np.int64: st.integers(-(2**63), -1) | st.integers(4, 2**63 - 1),
    np.uint64: st.integers(4, 2**64 - 1),
}


@st.composite
def dense_and_sparse(draw):
    """Two code columns of one dtype and length (zero included): a dense one,
    every code in [0, 4) and some never occurring, and a sparse one, every
    code outside it."""
    dtype = draw(st.sampled_from(list(SPARSE_CODES)))
    dense = draw(st.lists(st.integers(0, 3), max_size=14))
    sparse = draw(st.lists(SPARSE_CODES[dtype], min_size=len(dense), max_size=len(dense)))
    return np.array(dense, dtype), np.array(sparse, dtype)

class TestCodedColumn:
    def test_each_code_present_is_formatted_once(self, tmp_path, monkeypatch):
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 4)
        codes = np.array([10**7 - 1, 5, 5, 3, 10**7 - 1, 5, 0, 3, 3, 10**7 - 1, 2**40])
        formatted = []

        def text(code: int) -> str:
            formatted.append(code)
            return f"c{code}"

        path = tmp_path / "r.csv"
        write_csv(path, [], ("a", "b"), (Coded(codes, text), constant_column("x", len(codes))))
        assert sorted(formatted) == sorted(set(codes.tolist()))
        rows = [["a", "b"]] + [[f"c{code}", "x"] for code in codes.tolist()]
        assert path.read_bytes() == reference_csv([], rows)

    def test_distinct_codes_are_held_about_a_chunk_at_a_time(self, tmp_path):
        """A column of 10^5 distinct codes keeps the texts of about two
        chunks' codes, not of all of them (14.5 MiB when it kept them all)."""
        codes = np.arange(10**5)
        path = tmp_path / "r.csv"
        tracemalloc.start()
        try:
            write_csv(path, [], ("a", "b"), (Coded(codes, int.__repr__), constant_column("x", codes.size)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert path.read_bytes() == reference_csv([], [["a", "b"]] + [[str(code), "x"] for code in codes.tolist()])

    def test_each_code_present_is_formatted_once_per_column(self, tmp_path, monkeypatch):
        """Codes below the chunk size share one table: a code's text is made
        once however many chunks hold it, and a code that never occurs
        (2 here) is not formatted."""
        monkeypatch.setattr(report_module, "_ROWS_PER_CHUNK", 4)
        codes = np.array([3, 1, 1, 3, 3, 1, 0, 3, 3, 1, 3, 0, 0])
        formatted = []

        def text(code: int) -> str:
            formatted.append(code)
            return f"c{code}"

        path = tmp_path / "r.csv"
        write_csv(path, [], ("a", "b"), (Coded(codes, text), constant_column("x", len(codes))))
        assert sorted(formatted) == [0, 1, 3]
        rows = [["a", "b"]] + [[f"c{code}", "x"] for code in codes.tolist()]
        assert path.read_bytes() == reference_csv([], rows)

    @PROPERTY
    @given(columns=dense_and_sparse(), texts=st.lists(SAFE_FIELDS, min_size=4, max_size=4))
    def test_dense_codes_equal_csv_writer(self, tmp_path_factory, columns, texts):
        dense, sparse = columns
        coded = (
            Coded(dense, texts.__getitem__),
            Coded(sparse, lambda code: f"s{code}"),
            Coded(dense[::-1], str),
        )
        path = tmp_path_factory.mktemp("dense") / "r.csv"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "_ROWS_PER_CHUNK", 4)
            write_csv(path, ["dense"], ("a", "b", "c"), coded)
        expected = [["a", "b", "c"]] + [
            [texts[code], f"s{other}", str(back)]
            for code, other, back in zip(dense.tolist(), sparse.tolist(), dense[::-1].tolist())
        ]
        assert path.read_bytes() == reference_csv(["dense"], expected)

    @PROPERTY
    @given(columns=dense_and_sparse(), texts=st.lists(TEXT, min_size=4, max_size=4))
    def test_dense_codes_equal_json_dumps(self, tmp_path_factory, columns, texts):
        dense, sparse = columns
        document = {
            "records": Records(
                {
                    "text": Coded(dense, lambda code: json.dumps(texts[code])),
                    "int": dense,
                    "sparse": sparse,
                }
            ),
            "dense": dense[::-1],
            "sparse": sparse,
        }
        path = tmp_path_factory.mktemp("dense") / "r.json"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(report_module, "_ROWS_PER_CHUNK", 4)
            assert written_json(path, document) == reference_json(listed(document)) + "\n"

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_empty_columns(self, tmp_path, dtype):
        empty = Coded(np.zeros(0, dtype), str)
        write_csv(tmp_path / "r.csv", ["empty"], ("a", "b"), (empty, empty))
        assert (tmp_path / "r.csv").read_bytes() == reference_csv(["empty"], [["a", "b"]])
        write_json(tmp_path / "r.json", {"a": np.zeros(0, dtype), "r": Records({"b": empty})})
        assert (tmp_path / "r.json").read_text() == reference_json({"a": [], "r": []}) + "\n"

    def test_hits_csv_sorts_only_its_float_column(self, tmp_path, monkeypatch):
        """hits.csv at N = 1 has codes below the chunk size in both Coded
        columns (telegraph_id, x), so only its float column, time, is sorted
        (np.sort), once per chunk."""
        chunk = report_module._ROWS_PER_CHUNK
        callers = []
        sort = np.sort

        def counted(*args, **kwargs):
            caller = sys._getframe(1)
            if caller.f_globals["__name__"] == report_module.__name__:
                callers.append(caller.f_code.co_name)
            return sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counted)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--N", "1", "--M", str(3 * chunk), "--detectors", "on", "--output-dir", "out"]
        assert main(argv) == 0
        assert callers == ["_float_parts"] * 3

    def test_hits_csv_chunks_build_no_byte_mask(self, tmp_path, monkeypatch):
        """Writing a 10^5-row hits.csv (N = 1) peaks under 1.15 MiB of new
        allocations: a chunk's rows are its padded byte matrix without the
        pad, with no mask beside it (1.34 MiB with one)."""
        peaks = []

        def measured(path, *args):
            if path.name != "hits.csv":
                return write_csv(path, *args)
            tracemalloc.start()
            try:
                write_csv(path, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(cli_module, "write_csv", measured)
        monkeypatch.chdir(tmp_path)
        argv = ["simulate", "--N", "1", "--M", "100000", "--detectors", "on", "--output-dir", "out"]
        assert main(argv) == 0
        assert len(peaks) == 1 and peaks[0] < 1.15 * 2**20

    @pytest.mark.parametrize("field", ["1,5", 'say "x"', "a\nb", "a\rb"])
    def test_text_csv_would_quote_raises(self, tmp_path, field):
        column = Coded(np.array([0, 1, 0]), lambda code: field if code else "ok")
        with pytest.raises(ValueError, match="comma, a double quote or a line break"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), (column, np.zeros(3)))
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize(
        "codes", [np.array([0.0, 1.0]), np.array([[0], [1]]), [0, 1]], ids=["float", "2-d", "list"]
    )
    def test_codes_not_a_1d_int_array_raise_before_a_file_is_opened(self, tmp_path, monkeypatch, codes):
        """write_csv raises its ValueError and write_json json's own
        TypeError, for a Coded column at the top level and in Records."""

        def refused(*args):
            raise AssertionError("a report file was opened")

        monkeypatch.setattr(report_module, "open", refused, raising=False)
        column = Coded(codes, str)
        with pytest.raises(ValueError, match="not Coded, 1-d float64 or 1-d int"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), (column, np.zeros(2)))
        for document in ({"c": column}, {"r": Records({"c": column, "d": np.zeros(2)})}):
            with pytest.raises(TypeError, match="is not JSON serializable"):
                write_json(tmp_path / "r.json", document)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("lengths", [(3, 2), (2, 3), (4096, 4097), (0, 1)])
    def test_columns_of_unequal_length_raise(self, tmp_path, lengths):
        columns = (Coded(np.zeros(lengths[0], dtype=int), str), np.zeros(lengths[1]))
        with pytest.raises(ValueError, match="differ in length"):
            write_csv(tmp_path / "r.csv", [], ("a", "b"), columns)
        assert not (tmp_path / "r.csv").exists()


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
