"""Report writers: one column model, written as CSV or as indented JSON.

A report's rows are columns of two kinds: a :class:`Coded` column, an integer
code per row and the text of a code, and a float64 array, written as each
float's ``repr``. A chunk of ``_ROWS_PER_CHUNK`` rows of a column is a table of
texts with explicit byte lengths plus a code per row (a float adds a decimal
integer before its text). The chunk is laid out as a ``uint8`` matrix, one
matrix column per row, with literal text before each field and after the row,
beside a mask of the bytes written, and the masked bytes are written at once.

A Coded column formats the text of a code once per column when every code
lies in ``[0, _ROWS_PER_CHUNK)``: one table, indexed by the code itself, that
each chunk shares with a slice of the column's own codes. Any other Coded
column sorts each chunk's codes and formats each code present once per
stretch of chunks, keeping at most about a chunk's worth of texts.

* :func:`write_csv` writes the bytes of ``csv.writer`` (excel dialect). A
  field it would quote raises ValueError, so there is no quoting path.
* :func:`write_json` writes ``json.dumps(document, sort_keys=True, indent=2,
  allow_nan=False)``, with a top-level 1-d array or :class:`Records` written
  as its list: an int column is coded by value, a Coded column holds JSON
  texts, and a finite float is its ``repr``, as ``json`` writes it. Every
  other value is ``json``'s own text.

A writer that raises removes the file it opened: no partial report is left.

A float column is written as ``float.__repr__``, Gay's shortest round-trip
digits (D. M. Gay, "Correctly Rounded Binary-Decimal and Decimal-Binary
Conversions", AT&T Numerical Analysis Manuscript 90-10, 1990), through this
identity: for a double ``1e-4 <= x < 1e16``, ``repr(x) == repr(int(x)) + s``,
where the suffix ``s`` (from the ".") depends only on the fraction
``x - floor(x)`` and the binade ``[2**(e-1), 2**e)`` of x. Proof: repr picks
the shortest digits among the decimals that round to x, those in
``[x - u/2, x + u/2]`` with u the binade's spacing (the ends included when
x's significand is even), and among the shortest the one nearest x. If the
fraction is 0, as it is whenever u >= 1, repr writes the integer x and
".0": every other candidate is a non-integer, or for u = 2 an odd neighbour
x +- 1, none shorter than x and all farther from it. Otherwise u <= 1/2 and
the interval lies strictly between ``floor(x)`` and ``floor(x) + 1``, so
every candidate writes ``int(x)`` and then fractional digits, and the
shortest has the fewest of those. Adding an integer k that keeps x in its
binade moves the interval by k, keeps its width u and keeps the
significand's parity (``k / u`` is even), so the candidates' fractional
digits and their distances from x are unchanged. (At a power of two the
interval's lower half is u/4, but a power of two at least 1 has fraction 0,
and below 1 no shift stays in the binade.) Inside ``[1e-4, 1e16)``
repr uses no exponent. So each chunk formats one repr per distinct
(fraction, binade), that of the least double of the binade with that
fraction, and writes ``int(x)`` in numpy; any other value (0.0, a negative
value, exponent notation, inf, nan) takes its whole repr as its table entry.

The module does no physics; besides the standard library it uses numpy.
"""

from __future__ import annotations

import contextlib
import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

# Rows are formatted and written this many at a time. Every array a chunk
# needs is a few times this many rows, so a report of any length adds little
# to the resident memory.
_ROWS_PER_CHUNK = 1 << 12
_ZERO = np.uint8(ord("0"))
# 0, 10, ..., 10**15: an integer below 1e16 has as many digits as it reaches.
_DIGIT_THRESHOLDS = np.append(0, 10 ** np.arange(1, 16, dtype=np.int64))


def comment_lines_text(lines: Iterable[str]) -> str:
    """The provenance header of a text report: each line prefixed with '# '."""
    return "".join(f"# {line}\n" for line in lines)


class Coded(NamedTuple):
    """A column as an integer code per row and the text of a code as it is
    written, a CSV field or a JSON value. A code's text is formatted once per
    column when every code is below 4096 (``_ROWS_PER_CHUNK``), and otherwise
    once per code per stretch of chunks."""

    codes: np.ndarray
    text: Callable[[int], str]


class Records(NamedTuple):
    """Same-keyed flat records, held as one column (a 1-d array or a
    :class:`Coded` column) per ``str`` key; written as the list of records."""

    columns: Mapping[str, np.ndarray | Coded]


class _Part(NamedTuple):
    """One column of a chunk: row j is ``integers[j]`` in decimal (none if -1
    or absent), then ``table[starts[c] : starts[c] + lengths[c]]``, c = ``codes[j]``."""

    table: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    codes: np.ndarray
    integers: np.ndarray | None = None


def _table(entries: Sequence[bytes]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The texts end to end, with each text's start and length."""
    lengths = np.fromiter(map(len, entries), np.intp, len(entries))
    return np.frombuffer(b"".join(entries), np.uint8), np.cumsum(lengths) - lengths, lengths


def _coded_parts(column: Coded) -> Iterator[_Part]:
    codes = column.codes
    if codes.size and codes.min() >= 0 and codes.max() < _ROWS_PER_CHUNK:
        # One table for the column, indexed by the code itself: a code that
        # never occurs gets an empty entry and no text.
        present = np.flatnonzero(np.bincount(codes.astype(np.intp, copy=False)))
        texts = [column.text(code).encode("utf-8") for code in present.tolist()]
        table, starts, lengths = _table(texts)
        by_code = np.zeros((2, present[-1] + 1), np.intp)
        by_code[:, present] = starts, lengths
        for first in range(0, len(codes), _ROWS_PER_CHUNK):
            yield _Part(table, by_code[0], by_code[1], codes[first : first + _ROWS_PER_CHUNK])
        return
    formatted: dict[int, bytes] = {}
    for first in range(0, len(codes), _ROWS_PER_CHUNK):
        if len(formatted) > _ROWS_PER_CHUNK:
            formatted.clear()
        present, inverse = np.unique(codes[first : first + _ROWS_PER_CHUNK], return_inverse=True)
        present = present.tolist()
        formatted.update(
            (code, column.text(code).encode("utf-8")) for code in present if code not in formatted
        )
        yield _Part(*_table([formatted[code] for code in present]), inverse)


def _integer_prefix(values: np.ndarray) -> np.ndarray:
    """int(value) where repr writes no exponent and no sign, [1e-4, 1e16);
    -1 elsewhere (exponent notation, a sign, 0.0, inf and nan)."""
    fixed = (values >= 1e-4) & (values < 1e16)
    return np.where(fixed, np.floor(values), -1).astype(np.int64)


def _float_parts(column: np.ndarray) -> Iterator[_Part]:
    for first in range(0, len(column), _ROWS_PER_CHUNK):
        values = column[first : first + _ROWS_PER_CHUNK]
        integers = _integer_prefix(values)
        # A value of at least 1 is keyed by the least double of its binade
        # with its fraction, whose repr ends in the value's suffix; any
        # other value by itself.
        whole = integers >= 1
        plain = np.where(whole, values, 0.0)
        binade_floor = np.ldexp(1.0, np.frexp(plain)[1] - 1)
        keys = np.where(whole, binade_floor + (plain - integers), values)
        distinct, codes = np.unique(keys.view(np.int64), return_inverse=True)
        representatives = distinct.view(np.float64)
        # A list's repr is its floats' reprs joined by ", ", and no float's
        # repr holds a comma. Each entry starts after its integer's digits.
        table = np.frombuffer(repr(representatives.tolist())[1:-1].encode("ascii"), np.uint8)
        ends = np.flatnonzero(table == ord(","))
        starts = np.append(0, ends + 2)
        lengths = np.append(ends, len(table)) - starts
        skip = _digit_count(_integer_prefix(representatives))
        yield _Part(table, starts + skip, lengths - skip, codes, integers)


def _parts(column: Coded | np.ndarray) -> Iterator[_Part]:
    if isinstance(column, Coded):
        return _coded_parts(column)
    return _float_parts(np.ascontiguousarray(column, dtype=np.float64))


def _length(column: Coded | np.ndarray) -> int:
    return len(column.codes if isinstance(column, Coded) else column)


def _digit_count(integers: np.ndarray) -> np.ndarray:
    """Decimal digits of each integer below 1e16 (0 has one, -1 none)."""
    return np.searchsorted(_DIGIT_THRESHOLDS, integers, side="right")


def _rows_bytes(parts: Sequence[_Part], literals: Sequence[bytes]) -> bytes:
    """The rows of one chunk: per row, ``literals[i]`` before field i and
    ``literals[-1]`` after the last field.

    Each field and literal is laid out down a column of a uint8 matrix whose
    columns are the rows, beside a mask of the bytes written; the masked
    bytes of the transposed matrix are the rows end to end.
    """
    rows = len(parts[0].codes)
    blocks: list[np.ndarray] = []
    masks: list[np.ndarray] = []

    def literal(text: bytes) -> None:
        if text:
            blocks.append(np.frombuffer(text, np.uint8)[:, None].repeat(rows, axis=1))
            masks.append(np.ones((len(text), rows), dtype=bool))

    for before, part in zip(literals, parts):
        literal(before)
        if part.integers is not None:
            # Right-aligned digits, by division by a scalar, which numpy
            # does without a hardware divide.
            counts = _digit_count(part.integers)
            width = int(counts.max())
            digits = np.empty((width, rows), dtype=np.uint8)
            integers = part.integers
            for place in range(width - 1, -1, -1):
                quotient = integers // 10
                digits[place] = integers - quotient * 10
                integers = quotient
            blocks.append(digits + _ZERO)
            masks.append(np.arange(width)[:, None] >= width - counts)
        first, length = part.starts[part.codes], part.lengths[part.codes]
        places = np.arange(length.max())[:, None]
        blocks.append(np.take(part.table, first + places, mode="clip"))
        masks.append(places < length)
    literal(literals[-1])
    return np.concatenate(blocks).T[np.concatenate(masks).T].tobytes()


@contextlib.contextmanager
def _report_file(path: str | Path) -> Iterator[BinaryIO]:
    """``path`` opened for writing, and removed if writing or closing it
    raises, so no partial report is left."""
    handle = open(path, "wb")
    try:
        with handle:
            yield handle
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


def _csv_field(text: str) -> str:
    """``text``, checked to be a field that csv.writer does not quote."""
    if any(mark in text for mark in ',"\r\n'):
        raise ValueError("a CSV field holds a comma, a double quote or a line break")
    return text


def write_csv(
    path: str | Path,
    comment_lines: Iterable[str],
    header: Sequence[str],
    columns: Sequence[Coded | np.ndarray],
) -> None:
    """Write a CSV report: '# ' comment lines, the header, then the rows.

    ``columns`` holds one column per header name, all of the same length,
    each a :class:`Coded` column of field texts or a float64 numpy array,
    written as each float's ``repr``. The bytes equal those of ``csv.writer``
    writing the same rows. A field that ``csv.writer`` would quote raises
    ValueError instead, as do columns of unequal length.
    """
    if len(header) < 2 or len(columns) != len(header):
        # A lone empty field is the one unquoted case csv.writer quotes.
        raise ValueError(f"a CSV report needs one column per header name, at least two ({header})")
    if len(set(map(_length, columns))) != 1:
        raise ValueError(f"CSV columns of {header} differ in length")
    columns = [
        Coded(column.codes, lambda code, text=column.text: _csv_field(text(code)))
        if isinstance(column, Coded)
        else column
        for column in columns
    ]
    literals = [b""] + [b","] * (len(columns) - 1) + [b"\r\n"]
    with _report_file(path) as handle:
        handle.write(comment_lines_text(comment_lines).encode("utf-8"))
        handle.write((",".join(map(_csv_field, header)) + "\r\n").encode("utf-8"))
        for parts in zip(*map(_parts, columns)):
            handle.write(_rows_bytes(parts, literals))


def _json_column(column) -> Coded | np.ndarray | None:
    """A Coded column of JSON texts, or a 1-d int or float64 array, as a
    column to write; None for any other value."""
    if isinstance(column, Coded):
        return column
    if not isinstance(column, np.ndarray) or column.ndim != 1:
        return None
    if column.dtype == np.float64:
        if not np.isfinite(column).all():  # raise json's own error
            json.dumps(column[~np.isfinite(column)].tolist(), allow_nan=False)
        return column
    return Coded(column, int.__repr__) if column.dtype.kind in "iu" else None


def _json_rows(value) -> tuple[list, list[bytes]] | None:
    """A top-level array or Records as its columns and the literal text
    around each row's fields; None for any other value."""
    if not isinstance(value, Records):
        column = _json_column(value)
        return None if column is None else ([column], [b",\n    ", b""])
    keys = sorted(value.columns)
    columns = [_json_column(value.columns[key]) for key in keys]
    if any(column is None for column in columns):
        return None
    if len(set(map(_length, columns))) > 1:
        raise ValueError("record columns differ in length")
    texts = [("," if j else ",\n    {") + f"\n      {_quote(key)}: " for j, key in enumerate(keys)]
    return columns, [text.encode("ascii") for text in texts + ["\n    }"]]


def _dumps(value, newline: bytes) -> bytes:
    # A JSON text breaks lines only between tokens, never inside a string.
    text = json.dumps(value, sort_keys=True, indent=2, allow_nan=False)
    return text.encode("ascii").replace(b"\n", newline)


def write_json(path: str | Path, document) -> None:
    """Write ``json.dumps(document, sort_keys=True, indent=2,
    allow_nan=False)`` and a line break, with each 1-d array and each
    :class:`Records` at the top level of a dict with ``str`` keys written as
    its list, a chunk of rows at a time. Every other value is ``json``'s own
    text, re-indented; what ``json`` refuses raises before the file is opened.
    """
    if not (isinstance(document, dict) and document and all(type(key) is str for key in document)):
        pieces = [_dumps(document, b"\n") + b"\n"]
    else:
        pieces = [b"{"]
        for key, value in sorted(document.items()):
            key_text = b"\n  " + _quote(key).encode("ascii") + b": "
            pieces += [key_text, _json_rows(value) or _dumps(value, b"\n  "), b","]
        pieces[-1] = b"\n}\n"
    with _report_file(path) as handle:
        for piece in pieces:
            if isinstance(piece, bytes):
                handle.write(piece)
                continue
            opened = False
            for parts in zip(*map(_parts, piece[0])):
                rows = _rows_bytes(parts, piece[1])
                # The first row has no comma before it.
                handle.write(rows if opened else b"[" + rows[1:])
                opened = True
            handle.write(b"\n  ]" if opened else b"[]")
