"""Report writers: one column model, written as CSV or as indented JSON.

A report's rows are columns, and ``_column`` is the one rule of both writers
for what a column is: a :class:`Coded` column, a 1-d int array of codes, one
per row, and the text of a code; a 1-d float64 array, written as each float's
``repr``; or a 1-d int array, the Coded column of its values' ``int.__repr__``.
``_chunks`` refuses columns of unequal length and writes every table of rows,
``_ROWS_PER_CHUNK`` rows at a time. A chunk of a column is a field per row,
made of pieces of two kinds: a text of a table, picked by a code per row, and
the last n decimal digits of an integer, with an explicit n per row.
The chunk is laid out as a ``uint8`` matrix, one matrix column per row, with
literal text before each field and after the row. A table's texts are its
columns, padded below to the longest with the byte 0xFF, and digits are
padded on the left with it; the rows are the bytes other than 0xFF, written
at once. Every byte laid out is UTF-8 (encoded texts, ASCII digits and
literals), where 0xFF never occurs (RFC 3629, section 1), so no text loses a
byte; a NUL pad would drop a text's NUL.

A Coded column formats the text of a code once per column when every code
lies in ``[0, _ROWS_PER_CHUNK)``: one table, indexed by the code itself, that
each chunk shares with a slice of the column's own codes. Any other Coded
column sorts each chunk's codes and formats each code present once per
stretch of chunks, keeping at most about a chunk's worth of texts.

* :func:`write_csv` writes the bytes of ``csv.writer`` (excel dialect). A
  field it would quote raises ValueError, so there is no quoting path, as
  does a column of any other kind.
* :func:`write_json` writes ``json.dumps(document, sort_keys=True, indent=2,
  allow_nan=False)``, with a top-level 1-d array or :class:`Records` written
  as its list: a Coded column holds JSON texts, and an int or a finite
  float is its ``repr``, as ``json`` writes it. Every other value is
  ``json``'s own text.

A writer that raises removes the file it opened: no partial report is left.

A float column is written as ``float.__repr__``, Gay's shortest round-trip
digits (D. M. Gay, "Correctly Rounded Binary-Decimal and Decimal-Binary
Conversions", AT&T Numerical Analysis Manuscript 90-10, 1990), in one of two
ways, chosen per chunk by the count of distinct (fraction, binade) keys
(below) in the chunk, counted in its sorted keys:

* More than ``_REPR_KEYS`` (1024) keys: every value is written from its
  shortest digits, computed in numpy by :func:`_shortest_digits`. That is
  Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020), the
  method of Java's ``Double.toString``, which like Ryu (U. Adams, "Ryu: fast
  float-to-string conversion", PLDI 2018) needs no big-number arithmetic:
  three products of the significand with a 126-bit g(k) ~ 10**-k per value,
  done lane-wise in uint64 32-bit limbs. g(k) is exact, from Python ints, and
  made only for the exponents k in [-324, 292] that a chunk meets. Two
  departures from Java give ``repr``'s digits: Java writes at least two
  digits, so it tries the one-digit-shorter candidate only for s >= 100 and
  scales a subnormal whose significand is below 3 by 10 (``4.9e-324``);
  Python writes one digit where one is enough, so the shorter candidate is
  tried for every s and every subnormal takes the ordinary path
  (``5e-324``). The text is laid out as ``repr`` does: exponent notation
  (``e-05``, ``e+16``, ``e-324``, at least two exponent digits) iff the
  decimal point position decpt satisfies ``decpt <= -4`` or ``decpt > 16``,
  and ``.0`` after an integral value. Its pieces are the sign (or the whole
  text of 0.0, inf or nan), the integer digits (0 below 1), ".", the
  fraction digits, padded with zeros on the left, and the exponent.
* At most 1024 keys: one ``repr`` per key, as a table, by the identity
  below. A chunk of few keys, such as hits.csv's times, a short
  transcript or paradox's events, costs little more than its rows' layout.

The crossover, on a 2-core x86-64 VM with numpy 2.4, lies at about 1300
keys in a chunk of 4096 rows, and at about 600 rows in a chunk whose keys
are all distinct; a constant of 1024 sits between the two. A chunk of a
64-symbol transcript or of paradox's events never reaches it.

The identity: for a double ``1e-4 <= x < 1e16``, ``repr(x) == repr(int(x))
+ s``, where the suffix ``s`` (from the ".") depends only on the fraction
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
repr uses no exponent. So such a chunk formats one repr per distinct
(fraction, binade), that of the least double of the binade with that
fraction, and writes ``int(x)`` in numpy; any other value (0.0, a negative
value, exponent notation, inf, nan) takes its whole repr as its table entry.

The module does no physics; besides the standard library it uses numpy.
"""

from __future__ import annotations

import contextlib
import functools
import json
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

# Rows are formatted and written this many at a time. Every array a chunk
# needs is a few times this many rows, so a report of any length adds little
# to the resident memory.
_ROWS_PER_CHUNK = 1 << 12
# A float chunk with more distinct (fraction, binade) keys than this is
# written from its shortest digits, not from one repr per key: the measured
# crossover is about 1300 keys in a chunk of 4096 rows, and about 600 rows
# in a chunk whose keys are all distinct.
_REPR_KEYS = 1024
_ZERO = np.uint8(ord("0"))
# Pads texts and digits to their block's width; it is never a byte of UTF-8.
_PAD = 0xFF
# 0, 10, ..., 10**16: an integer below 1e17 has as many digits as it reaches.
_DIGIT_THRESHOLDS = np.append(0, 10 ** np.arange(1, 17, dtype=np.int64))
_POWERS = 10 ** np.arange(18, dtype=np.int64)
_MASK32 = (1 << 32) - 1
_MASK63 = (1 << 63) - 1
# The decimal exponents k of Schubfach's table g(k) for doubles.
_K_MIN, _K_MAX = -324, 292


def comment_lines_text(lines: Iterable[str]) -> str:
    """The provenance header of a text report: each line prefixed with '# '.

    A line holding a line break, one that ``str.splitlines`` would change,
    raises ValueError: the text after the break would lose its '# '.
    """
    lines = list(lines)
    for line in lines:
        if "".join(line.splitlines()) != line:
            raise ValueError(f"a comment line holds a line break ({line!r})")
    return "".join(f"# {line}\n" for line in lines)


class Coded(NamedTuple):
    """A column as a 1-d int array of codes, one per row, and the text of a
    code as written, a CSV field or a JSON value. A code's text is formatted
    once per column when every code is below 4096 (``_ROWS_PER_CHUNK``), and
    otherwise once per code per stretch of chunks."""

    codes: np.ndarray
    text: Callable[[int], str]


class Records(NamedTuple):
    """Same-keyed flat records, held as one column (a 1-d array or a
    :class:`Coded` column) per ``str`` key; written as the list of records."""

    columns: Mapping[str, np.ndarray | Coded]


class _Part(NamedTuple):
    """Text of each row of a chunk: column ``codes[j]`` of a :func:`_table`."""

    table: np.ndarray
    codes: np.ndarray


class _Digits(NamedTuple):
    """Digits of each row of a chunk: the last ``lengths[j]`` decimal digits
    of ``integers[j]``, zeros on the left where it has fewer (none if 0)."""

    integers: np.ndarray
    lengths: np.ndarray


# A chunk of one column: each row's field is its pieces' texts end to end.
_Field = Sequence[_Part | _Digits]


def _table(entries: Sequence[bytes]) -> np.ndarray:
    """The texts as the columns of a uint8 matrix, padded below with ``_PAD``."""
    width = max(map(len, entries), default=0)
    padded = b"".join(entry.ljust(width, bytes([_PAD])) for entry in entries)
    return np.frombuffer(padded, np.uint8).reshape(len(entries), width).T.copy()


# The text of a value's sign, or the whole text of 0.0, inf and nan.
_SIGNS = _table([b"", b"-", b"0.0", b"-0.0", b"inf", b"-inf", b"nan"])
# No decimal point, or one; no exponent mark, "e+" or "e-".
_POINTS = _table([b"", b"."])
_EXPONENTS = _table([b"", b"e+", b"e-"])


def _coded_parts(column: Coded) -> Iterator[_Field]:
    codes = column.codes
    if codes.size and codes.min() >= 0 and codes.max() < _ROWS_PER_CHUNK:
        # One table for the column, indexed by the code itself: a code that
        # never occurs gets an empty entry and no text.
        texts = [b""] * (int(codes.max()) + 1)
        for code in np.flatnonzero(np.bincount(codes.astype(np.intp, copy=False))).tolist():
            texts[code] = column.text(code).encode("utf-8")
        table = _table(texts)
        for first in range(0, len(codes), _ROWS_PER_CHUNK):
            yield (_Part(table, codes[first : first + _ROWS_PER_CHUNK]),)
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
        yield (_Part(_table([formatted[code] for code in present]), inverse),)


def _integer_prefix(values: np.ndarray) -> np.ndarray:
    """int(value) where repr writes no exponent and no sign, [1e-4, 1e16);
    -1 elsewhere (exponent notation, a sign, 0.0, inf and nan)."""
    fixed = (values >= 1e-4) & (values < 1e16)
    return np.where(fixed, np.floor(values), -1).astype(np.int64)


def _float_parts(column: np.ndarray) -> Iterator[_Field]:
    for first in range(0, len(column), _ROWS_PER_CHUNK):
        values = column[first : first + _ROWS_PER_CHUNK]
        integers = _integer_prefix(values)
        # A value of at least 1 is keyed by the least double of its binade
        # with its fraction, whose repr ends in the value's suffix; any
        # other value by itself.
        whole = integers >= 1
        plain = np.where(whole, values, 0.0)
        binade_floor = np.ldexp(1.0, np.frexp(plain)[1] - 1)
        keys = np.where(whole, binade_floor + (plain - integers), values).view(np.int64)
        ordered = np.sort(keys)
        runs = np.append(True, ordered[1:] != ordered[:-1])  # a new key starts
        if np.count_nonzero(runs) > _REPR_KEYS:
            yield _shortest_parts(values)
            continue
        distinct = ordered[runs]
        representatives = distinct.view(np.float64)
        # A list's repr is its floats' reprs joined by ", ", and no float's
        # repr holds a comma. Each suffix follows its integer's digits.
        texts = repr(representatives.tolist())[1:-1].encode("ascii").split(b", ")
        skips = _digit_count(_integer_prefix(representatives)).tolist()
        suffixes = _table([text[skip:] for text, skip in zip(texts, skips)])
        yield (
            _Digits(integers, _digit_count(integers)),
            _Part(suffixes, np.searchsorted(distinct, keys)),
        )


def _floor_log2_pow10(e):
    """floor(e log2(10)) for |e| <= 1838394 (Giulietti, section 10)."""
    return (e * 913_124_641_741) >> 38


@functools.cache  # k takes the 617 values in [_K_MIN, _K_MAX]
def _g(k: int) -> tuple[int, ...]:
    """g1 and the high and low 32-bit halves of g0 and of g1, where g = g1
    2**63 + g0 = floor(10**-k 2**-r) + 1, with r such that 2**125 <= 10**-k
    2**-r < 2**126."""
    r = _floor_log2_pow10(-k) - 125
    if k > 0:
        g = (1 << -r) // 10**k + 1
    else:
        g = (10**-k >> r if r >= 0 else 10**-k << -r) + 1
    g1, g0 = g >> 63, g & _MASK63
    return g1, g0 >> 32, g0 & _MASK32, g1 >> 32, g1 & _MASK32


def _high_product(a: tuple[np.ndarray, np.ndarray], b: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The high 64 bits of the 128-bit products of uint64 lanes, each lane
    given as its (high, low) 32-bit halves."""
    low = a[1] * b[1]
    middle = a[0] * b[1] + (low >> 32)
    other = a[1] * b[0] + (middle & _MASK32)
    return a[0] * b[0] + (middle >> 32) + (other >> 32)


def _shortest_digits(magnitudes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(digits, exponent): digits 10**exponent is the shortest decimal that
    rounds to each positive finite double, and the nearest to it of those
    (the even one on a tie), the decimal that ``repr`` writes. digits is an
    int64 with no trailing zero.

    Schubfach (Giulietti, figure 7), lane-wise, in the names of its paper.
    """
    bits = magnitudes.view(np.int64)
    binade, t = bits >> 52, bits & (1 << 52) - 1
    c = t | (binade > 0) << 52
    q = np.maximum(binade, 1) - 1075  # the double is c 2**q
    # Below a power of two the spacing halves; the least normal double and
    # the subnormals are evenly spaced.
    irregular = (t == 0) & (binade > 1)
    # floor(log10(2**q)), or floor(log10(3/4 2**q)) where irregular.
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + _floor_log2_pow10(-k) + 2
    # g(k) for the exponents this chunk meets, gathered per lane.
    index = k - _K_MIN
    table = np.zeros((5, _K_MAX - _K_MIN + 1), np.uint64)
    present = np.zeros(table.shape[1], bool)
    present[index] = True
    for met in np.flatnonzero(present).tolist():
        table[:, met] = _g(met + _K_MIN)
    g = np.take(table, index, axis=1)
    g0_halves, g1_halves = (g[1], g[2]), (g[3], g[4])

    def rop(cb: np.ndarray) -> np.ndarray:
        """rop(cb 2**h g 2**-127): the integer part of the product, with its
        lowest bit set when a fraction is left (Giulietti, figure 8)."""
        cp = (cb << h).view(np.uint64)
        halves = (cp >> 32, cp & _MASK32)
        z = (g[0] * cp >> 1) + _high_product(g0_halves, halves)
        vbp = _high_product(g1_halves, halves) + (z >> 63)
        return (vbp | ((z & _MASK63) + _MASK63) >> 63).view(np.int64)

    # 4 v and 4 times the ends of the interval that rounds to v, in units of
    # 10**k, each to within round-to-odd; an odd c excludes the ends.
    cb = c << 2
    vb, vbl, vbr = rop(cb), rop(cb - 2 + irregular), rop(cb + 2)
    lowest, highest = vbl + (c & 1), vbr - (c & 1)
    s = vb >> 2
    # The interval is narrower than 10**(k + 1), so it holds sp10 or tp10 =
    # sp10 + 10, one digit shorter than s, or neither. Python tries them for
    # every s; Java only for s >= 100, for Double.toString's two digits.
    sp10 = s // 10 * 10
    upin = lowest <= sp10 << 2
    wpin = (sp10 << 2) + 40 <= highest
    # Otherwise s or s + 1, whichever lies in the interval, or if both do
    # the nearer to v, the even one on a tie.
    uin = lowest <= vb & -4
    win = (vb | 3) + 1 <= highest
    up = win & (~uin | ((vb & 3) + (s & 1) > 2))
    digits = np.where(upin ^ wpin, sp10 + 10 * wpin, s + up)
    exponent = k
    for power in (16, 8, 4, 2, 1):
        quotient = digits // 10**power
        whole = quotient * 10**power == digits
        if whole.any():
            digits = np.where(whole, quotient, digits)
            exponent = exponent + power * whole
    return digits, exponent


def _shortest_parts(values: np.ndarray) -> _Field:
    """``repr`` of each value, as a sign (or the whole text of 0.0, inf or
    nan), the integer digits, ".", the fraction digits and the exponent."""
    finite = np.isfinite(values) & (values != 0)
    digits, exponent = _shortest_digits(np.where(finite, np.abs(values), 1.0))
    count = _digit_count(digits)
    decpt = count + exponent  # the value is 0.<digits> 10**decpt
    scientific = (decpt <= -4) | (decpt > 16)
    point = np.where(scientific, 1, decpt)  # digits before the "."
    after = count - point  # digits after it, before padding
    # A value below 1 writes its integer 0 and pads its fraction with zeros;
    # an integral one pads its integer with zeros and writes ".0".
    scale = _POWERS[np.clip(after, 0, 17)]
    quotient = digits // scale
    fraction = digits - quotient * scale
    integer = quotient * _POWERS[np.clip(-after, 0, 17)]
    fraction_lengths = np.where(scientific, after, np.maximum(after, 1)) * finite
    power = decpt - 1
    power_lengths = np.where(np.abs(power) < 100, 2, 3) * (scientific & finite)
    sign = np.signbit(values) + np.where(finite, 0, np.where(values == 0, 2, 4))
    sign[np.isnan(values)] = 6
    return (
        _Part(_SIGNS, sign),
        _Digits(integer, np.maximum(point, 1) * finite),
        _Part(_POINTS, np.minimum(fraction_lengths, 1)),
        _Digits(fraction, fraction_lengths),
        _Part(_EXPONENTS, (1 + (power < 0)) * (scientific & finite)),
        _Digits(np.abs(power), power_lengths),
    )


def _column(column) -> Coded | np.ndarray | None:
    """A Coded column whose codes are a 1-d int array, a 1-d float64 array,
    or a 1-d int array as a Coded column of its values' ``int.__repr__``;
    None for any other value."""
    coded = isinstance(column, Coded)
    array = column.codes if coded else column
    if not isinstance(array, np.ndarray) or array.ndim != 1:
        return None
    if array.dtype.kind in "iu":
        return column if coded else Coded(array, int.__repr__)
    return None if coded or array.dtype != np.float64 else array


def _digit_count(integers: np.ndarray) -> np.ndarray:
    """Decimal digits of each integer below 1e17 (0 has one, -1 none)."""
    return np.searchsorted(_DIGIT_THRESHOLDS, integers, side="right")


def _rows_bytes(fields: Sequence[_Field], literals: Sequence[bytes]) -> bytes:
    """The rows of one chunk: per row, ``literals[i]`` before field i and
    ``literals[-1]`` after the last field.

    Each piece of a field and each literal is a block of a uint8 matrix whose
    columns are the rows: a table's column of a row's text, or its digits
    right aligned, with ``_PAD`` above them. The transposed matrix's bytes,
    with each ``_PAD`` deleted in one pass (no mask), are the rows end to end.
    """
    rows = len(fields[0][0][1])  # a _Part's codes, a _Digits' lengths
    blocks: list[np.ndarray] = []

    def literal(text: bytes) -> None:
        blocks.append(np.frombuffer(text, np.uint8)[:, None].repeat(rows, axis=1))

    for before, field in zip(literals, fields):
        literal(before)
        for piece in field:
            if isinstance(piece, _Part):
                blocks.append(np.take(piece.table, piece.codes, axis=1))
                continue
            # Right-aligned digits, nine at a time in uint32, by division by
            # a scalar, which numpy does without a hardware divide.
            width = int(piece.lengths.max())
            digits = np.empty((width, rows), dtype=np.uint8)
            integers = piece.integers
            for end in range(width, 0, -9):
                group = integers
                if end > 9:
                    integers = integers // 10**9
                    group = group - integers * 10**9
                group = group.astype(np.uint32)
                for place in range(end - 1, max(end - 9, 0) - 1, -1):
                    tens = group // 10
                    digits[place] = group - tens * 10
                    group = tens
            digits += _ZERO
            np.putmask(digits, np.arange(width)[:, None] < width - piece.lengths, _PAD)
            blocks.append(digits)
    literal(literals[-1])
    return np.concatenate(blocks).T.tobytes().translate(None, bytes([_PAD]))


def _chunks(columns: Sequence[Coded | np.ndarray], literals: Sequence[bytes]) -> Iterator[bytes]:
    """The rows of each chunk of ``_column``'s columns, as ``_rows_bytes``
    writes them; columns of unequal length raise ValueError at the call,
    before any file is opened."""
    if len({len(column.codes if isinstance(column, Coded) else column) for column in columns}) > 1:
        raise ValueError("report columns differ in length")
    fields = [_coded_parts(c) if isinstance(c, Coded) else _float_parts(c) for c in columns]
    return (_rows_bytes(parts, literals) for parts in zip(*fields))


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


def write_text(path: str | Path, comment_lines: Iterable[str], text: str) -> None:
    """Write a text report: '# ' comment lines, then ``text``, as UTF-8. A
    comment line holding a line break raises ValueError before the file is
    opened."""
    data = (comment_lines_text(comment_lines) + text).encode("utf-8")
    with _report_file(path) as handle:
        handle.write(data)


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
    each a :class:`Coded` column of field texts, a 1-d float64 array, written
    as each float's ``repr``, or a 1-d int array, written as each int's. The
    bytes equal those of ``csv.writer`` writing the same rows. A field that
    ``csv.writer`` would quote raises ValueError instead, as do columns of
    unequal length, any other column and a comment line holding a line
    break, before the file is opened.
    """
    if len(header) < 2 or len(columns) != len(header):
        # A lone empty field is the one unquoted case csv.writer quotes.
        raise ValueError(f"a CSV report needs one column per header name, at least two ({header})")
    columns = list(map(_column, columns))
    if any(column is None for column in columns):
        raise ValueError(f"a CSV column of {header} is not Coded, 1-d float64 or 1-d int")
    columns = [
        Coded(column.codes, lambda code, text=column.text: _csv_field(text(code)))
        if isinstance(column, Coded)
        else column
        for column in columns
    ]
    head = comment_lines_text(comment_lines) + ",".join(map(_csv_field, header)) + "\r\n"
    chunks = _chunks(columns, [b""] + [b","] * (len(columns) - 1) + [b"\r\n"])
    with _report_file(path) as handle:
        handle.write(head.encode("utf-8"))
        for rows in chunks:
            handle.write(rows)


def _json_column(column) -> Coded | np.ndarray | None:
    """``_column`` for a JSON report, whose Coded texts are JSON texts; a
    float column with a non-finite value raises json's own error."""
    column = _column(column)
    if isinstance(column, np.ndarray) and not np.isfinite(column).all():
        json.dumps(column[~np.isfinite(column)].tolist(), allow_nan=False)
    return column


def _json_rows(value) -> Iterator[bytes] | None:
    """The chunks of a top-level array's or Records' rows, each row led by a
    comma; None for any other value."""
    if not isinstance(value, Records):
        columns, literals = [_json_column(value)], [b",\n    ", b""]
    else:
        keys = sorted(value.columns)
        columns = [_json_column(value.columns[key]) for key in keys]
        texts = [("," if j else ",\n    {") + f"\n      {_quote(key)}: " for j, key in enumerate(keys)]
        literals = [text.encode("ascii") for text in texts + ["\n    }"]]
    return None if any(column is None for column in columns) else _chunks(columns, literals)


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
            for rows in piece:
                # The first row has no comma before it.
                handle.write(rows if opened else b"[" + rows[1:])
                opened = True
            handle.write(b"\n  ]" if opened else b"[]")
