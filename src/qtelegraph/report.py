"""Report writers: CSV and indented JSON text, formatted column by column.

Both writers reproduce the bytes of the standard library's own writers
exactly, at a fraction of their per-row cost:

* :func:`write_csv` writes what ``csv.writer`` (excel dialect) writes for
  the same rows. Each column of a chunk of ``_ROWS_PER_CHUNK`` rows is a
  table of field texts plus an integer code per row, and a float column
  adds a decimal integer before its table entry. The chunk is laid out as a
  ``uint8`` matrix, one column per CSV row, beside a mask built from the
  entries' explicit byte lengths; the masked bytes, row by row, are written
  with one call. No field may need csv quoting: each table entry is checked
  for a comma, a double quote and a line break, so there is no quoting path.
* :func:`json_text` returns ``json.dumps(document, sort_keys=True, indent=2,
  allow_nan=False)``, an array written as its list. With ``indent`` set,
  ``json`` formats every value in Python; here only dicts with ``str`` keys
  are walked, exact ints, finite floats and strings are written as ``json``
  writes them, and an int, float64 or str array, alone or as a column of
  :class:`Records`, is formatted a column at a time from its dtype. Every
  other value, and every error, is ``json``'s own.

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

import json
from itertools import islice, starmap, zip_longest
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

# CSV rows are formatted and written this many at a time. Every array a
# chunk needs is a few times this many rows, so a report of any length adds
# little to the resident memory.
_ROWS_PER_CHUNK = 1 << 12
_INDENT = "  "
_COMMA = np.frombuffer(b",", np.uint8)
_ROW_END = np.frombuffer(b"\r\n", np.uint8)
_ZERO = np.uint8(ord("0"))
# 0, 10, ..., 10**15: an integer below 1e16 has as many digits as it reaches.
_DIGIT_THRESHOLDS = np.append(0, 10 ** np.arange(1, 16, dtype=np.int64))


def comment_lines_text(lines: Iterable[str]) -> str:
    """The provenance header of a text report: each line prefixed with '# '."""
    return "".join(f"# {line}\n" for line in lines)


class Coded(NamedTuple):
    """A CSV column as an integer code per row and the text of a code.

    Each distinct code is formatted once, on the first chunk it occurs in.
    """

    codes: np.ndarray
    text: Callable[[int], str]


class _Part(NamedTuple):
    """One column of a chunk, with a table of ``count`` entries joined by
    ", " in ``table``. Row j is ``integers[j]`` in decimal, then entry
    ``codes[j]`` without its first ``skip[codes[j]]`` characters. Without
    ``integers`` or ``skip`` a row is its table entry alone; a row whose
    integer is -1 has no digits."""

    table: str
    count: int
    codes: np.ndarray
    integers: np.ndarray | None = None
    skip: np.ndarray | None = None


def _text_parts(column: Iterable[str]) -> Iterator[_Part]:
    texts = iter(column)
    while chunk := list(islice(texts, _ROWS_PER_CHUNK)):
        yield _Part(", ".join(chunk), len(chunk), np.arange(len(chunk)))


def _coded_parts(column: Coded) -> Iterator[_Part]:
    formatted: dict[int, str] = {}
    for first in range(0, len(column.codes), _ROWS_PER_CHUNK):
        present, codes = np.unique(
            column.codes[first : first + _ROWS_PER_CHUNK], return_inverse=True
        )
        present = present.tolist()
        formatted.update((code, column.text(code)) for code in present if code not in formatted)
        yield _Part(", ".join([formatted[code] for code in present]), len(present), codes)


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
        # A list's repr is its floats' reprs joined by ", ".
        table = repr(representatives.tolist())[1:-1]
        skip = _digit_count(_integer_prefix(representatives))
        yield _Part(table, len(representatives), codes, integers, skip)


def _parts(column) -> Iterator[_Part]:
    if isinstance(column, Coded):
        return _coded_parts(column)
    if isinstance(column, np.ndarray):
        return _float_parts(np.ascontiguousarray(column, dtype=np.float64))
    return _text_parts(column)


def _table_bytes(table: str, count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``count`` entries joined by ", ", and where each
    entry starts and how many bytes it has, after checking that csv.writer
    quotes no entry.

    The commas, one fewer than the entries unless an entry holds one, mark
    where each entry ends. The lengths are explicit, so an entry may end in
    NUL bytes.
    """
    data = np.frombuffer(table.encode("utf-8"), np.uint8)
    ends = np.flatnonzero(data == _COMMA)
    if len(ends) != count - 1 or '"' in table or "\r" in table or "\n" in table:
        raise ValueError("a CSV field holds a comma, a double quote or a line break")
    starts = np.append(0, ends + 2)
    return data, starts, np.append(ends, len(data)) - starts


def _digit_count(integers: np.ndarray) -> np.ndarray:
    """Decimal digits of each integer below 1e16 (0 has one, -1 none)."""
    return np.searchsorted(_DIGIT_THRESHOLDS, integers, side="right")


def _rows_bytes(parts: Sequence[_Part]) -> bytes:
    """The CSV rows of one chunk, as the bytes csv.writer writes for them.

    Each field is laid out down a column of a uint8 matrix whose columns are
    the rows, beside a mask of the bytes written; the masked bytes of the
    transposed matrix are the rows end to end.
    """
    rows = len(parts[0].codes)
    blocks: list[np.ndarray] = []
    masks: list[np.ndarray] = []
    for j, part in enumerate(parts):
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
        data, starts, lengths = _table_bytes(part.table, part.count)
        first, length = starts[part.codes], lengths[part.codes]
        if part.skip is not None:
            skip = part.skip[part.codes]
            first, length = first + skip, length - skip
        places = np.arange(length.max())[:, None]
        blocks.append(np.take(data, first + places, mode="clip"))
        masks.append(places < length)
        end = _ROW_END if j == len(parts) - 1 else _COMMA
        blocks.append(np.broadcast_to(end[:, None], (len(end), rows)))
        masks.append(np.ones((len(end), rows), dtype=bool))
    return np.concatenate(blocks).T[np.concatenate(masks).T].tobytes()


def write_csv(
    path: str | Path,
    comment_lines: Iterable[str],
    header: Sequence[str],
    columns: Sequence,
) -> None:
    """Write a CSV report: '# ' comment lines, the header, then the rows.

    ``columns`` holds one column per header name, all of the same length,
    each one of: an iterable of formatted field texts; a :class:`Coded`
    column; or a float64 numpy array, written as each float's ``repr``. They
    are consumed ``_ROWS_PER_CHUNK`` rows at a time. The bytes equal those of
    ``csv.writer`` writing the same rows. A field that ``csv.writer`` would
    quote (one holding a comma, a double quote or a line break) raises
    ValueError instead, as do columns of unequal length.
    """
    if len(header) < 2 or len(columns) != len(header):
        # A lone empty field is the one unquoted case csv.writer quotes.
        raise ValueError(f"a CSV report needs one column per header name, at least two ({header})")
    names = [_Part(name, 1, np.zeros(1, dtype=np.intp)) for name in header]
    with open(path, "wb") as handle:
        handle.write(comment_lines_text(comment_lines).encode("utf-8"))
        handle.write(_rows_bytes(names))
        for parts in zip_longest(*map(_parts, columns)):
            if None in parts or len({len(part.codes) for part in parts}) != 1:
                raise ValueError(f"CSV columns of {header} differ in length")
            handle.write(_rows_bytes(parts))


class Records(NamedTuple):
    """Flat records with the same ``str`` keys, as one 1-d array per key
    with an item per record; :func:`json_text` writes the list of records."""

    columns: Mapping[str, np.ndarray]


def json_text(document) -> str:
    """``json.dumps(document, sort_keys=True, indent=2, allow_nan=False)``,
    with a 1-d array written as its list and :class:`Records` as its records.

    Formatted here: a non-empty dict with only ``str`` keys; an exact int,
    finite float or string; a 1-d int, float64 or str array, alone or as a
    column of ``Records``. Any other value (None, a bool, a numpy scalar, a
    list, an empty dict, a non-``str`` key, inf, nan, any other array) is
    ``json``'s own text, re-indented, and raises what ``json`` raises.
    """
    return _value(document, "\n", ())


def _value(value, newline: str, parents: tuple) -> str:
    """``value``, inside the dicts ``parents``, as JSON; ``newline`` breaks a line and indents."""
    if type(value) is str:
        return _quote(value)
    if type(value) in (int, float) and "n" not in (text := repr(value)):
        return text
    inner = newline + _INDENT
    if isinstance(value, dict) and set(map(type, value)) == {str}:
        if any(value is parent for parent in parents):
            raise ValueError("Circular reference detected")
        parents += (value,)
        members = [_quote(key) + ": " + _value(item, inner, parents) for key, item in sorted(value.items())]
        return "{" + inner + ("," + inner).join(members) + newline + "}"
    texts = _rows(value, inner) if isinstance(value, Records) else _items(value)
    if texts is not None:
        return "[" + inner + ("," + inner).join(texts) + newline + "]" if texts else "[]"
    # A JSON text breaks lines only between tokens, never inside a string.
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False).replace("\n", newline)


def _items(column) -> list[str] | None:
    """The JSON text of each item of a 1-d int, float64 or str array; else None."""
    if not isinstance(column, np.ndarray) or column.ndim != 1:
        return None
    if column.dtype.kind == "U":
        return list(map(_quote, column.tolist()))
    if column.dtype.kind not in "iu" and column.dtype != np.float64:
        return None
    items = column.tolist()
    if column.dtype.kind == "f" and not np.isfinite(column).all():
        json.dumps(items, allow_nan=False)  # raises json's own error
    # For exact ints and finite floats, repr is what json writes.
    return list(map(repr, items))


def _rows(records: Records, newline: str) -> list[str] | None:
    """Each record through one template; None unless every column is formatted here."""
    keys = sorted(records.columns)
    columns = [_items(records.columns[key]) for key in keys]
    if None in columns:
        return None
    inner = newline + _INDENT
    slots = [_quote(key).replace("{", "{{").replace("}", "}}") + ": {}" for key in keys]
    template = "{{" + inner + ("," + inner).join(slots) + newline + "}}"
    return list(starmap(template.format, zip(*columns, strict=True)))
