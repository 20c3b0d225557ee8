"""Report writers: CSV and indented JSON text, formatted column by column.

Both writers reproduce the bytes of the standard library's own writers
exactly, at a fraction of their per-row cost:

* :func:`write_csv` writes what ``csv.writer`` (excel dialect) writes for
  the same rows. Fields arrive as already formatted strings, one iterable per
  column (:func:`chunked` builds one from an array a chunk at a time), and
  each chunk of rows is joined in one pass and written with one call. No
  field may need csv quoting; a chunk's delimiter, quote and line break
  counts prove it, so there is no quoting path.
* :func:`json_text` returns ``json.dumps(document, sort_keys=True, indent=2,
  allow_nan=False)``. With ``indent`` set, ``json`` formats every value in
  Python; here a list of numbers, or a list of flat records with the same
  keys, is formatted a column at a time.

The module does no physics and uses only the standard library.
"""

from __future__ import annotations

from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

# CSV rows are formatted and written this many at a time.
_ROWS_PER_CHUNK = 1 << 14
_INDENT = "  "
_CONTAINERS = (dict, list, tuple)


def comment_lines_text(lines: Iterable[str]) -> str:
    """The provenance header of a text report: each line prefixed with '# '."""
    return "".join(f"# {line}\n" for line in lines)


def chunked(values: Sequence, texts: Callable[[Sequence], Iterable[str]]) -> Iterator[str]:
    """A CSV column from a large array: ``texts(part)`` for each slice of
    ``values`` one ``write_csv`` chunk long, end to end, so that no more than
    a chunk of the array is converted to Python objects at a time."""
    return chain.from_iterable(
        texts(values[first : first + _ROWS_PER_CHUNK])
        for first in range(0, len(values), _ROWS_PER_CHUNK)
    )


def float_texts(part) -> Iterator[str]:
    """The repr of each float of a numpy array, as ``csv.writer`` writes it."""
    return map(float.__repr__, part.tolist())


def _csv_rows_text(chunk: list[list[str]], rows: int) -> str:
    """``rows`` CSV rows from equal-length column lists, checked unquoted."""
    text = "\r\n".join(map(",".join, zip(*chunk))) + "\r\n"
    # Every comma, '\r' and '\n' must be a delimiter or a row end, and no
    # field may hold a quote: then csv.writer would quote nothing either.
    if (
        text.count(",") != rows * (len(chunk) - 1)
        or text.count("\n") != rows
        or text.count("\r") != rows
        or '"' in text
    ):
        raise ValueError("a CSV field holds a comma, a double quote or a line break")
    return text


def write_csv(
    path: str | Path,
    comment_lines: Iterable[str],
    header: Sequence[str],
    columns: Sequence[Iterable[str]],
) -> None:
    """Write a CSV report: '# ' comment lines, the header, then the rows.

    ``columns`` holds one iterable of formatted fields per header name, all
    of the same length; they are consumed ``_ROWS_PER_CHUNK`` rows at a time.
    The bytes equal those of ``csv.writer`` writing the same rows. A field
    that ``csv.writer`` would quote (one holding a comma, a double quote or a
    line break) raises ValueError instead, as do columns of unequal length.
    """
    if len(header) < 2 or len(columns) != len(header):
        # A lone empty field is the one unquoted case csv.writer quotes.
        raise ValueError(f"a CSV report needs one column per header name, at least two ({header})")
    fields = [iter(column) for column in columns]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(comment_lines_text(comment_lines))
        handle.write(_csv_rows_text([[name] for name in header], 1))
        while True:
            chunk = [list(islice(column, _ROWS_PER_CHUNK)) for column in fields]
            rows = len(chunk[0])
            if any(len(part) != rows for part in chunk):
                raise ValueError(f"CSV columns of {header} differ in length")
            if not rows:
                return
            handle.write(_csv_rows_text(chunk, rows))


def json_text(document) -> str:
    """``json.dumps(document, sort_keys=True, indent=2, allow_nan=False)``.

    Values are dicts with ``str`` keys, lists, tuples, strings, ints, floats,
    bools and None. A non-finite float raises ValueError; any other value,
    or a dict key that is not a ``str``, raises TypeError.
    """
    return _value(document, "\n")


def _value(value, newline: str) -> str:
    """``value`` as JSON; ``newline`` is a line break plus its indentation."""
    if isinstance(value, (list, tuple)):
        return _array(value, newline)
    if isinstance(value, dict):
        return _object(value, newline)
    return _scalar(value)


def _scalar(value) -> str:
    # The tests and order of json's own encoder: bool before int.
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _finite([float.__repr__(value)])[0]
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _finite(texts: list[str]) -> list[str]:
    # Only 'inf', '-inf' and 'nan' among number reprs hold an 'n'.
    if "n" in "".join(texts):
        bad = next(text for text in texts if "n" in text)
        raise ValueError(f"Out of range float values are not JSON compliant: {bad}")
    return texts


def _column(values: Sequence) -> list[str] | None:
    """Scalars as JSON texts, or None if a value is a container."""
    kinds = set(map(type, values))
    if kinds <= {int, float}:
        # For exact ints and floats, repr is what json writes.
        return _finite(list(map(repr, values)))
    if kinds <= {str}:
        return list(map(_quote, values))
    if any(issubclass(kind, _CONTAINERS) for kind in kinds):
        return None
    return list(map(_scalar, values))


def _sorted_keys(mapping: dict) -> list[str]:
    for key in mapping:
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
    return sorted(mapping)


def _object(mapping: dict, newline: str) -> str:
    if not mapping:
        return "{}"
    inner = newline + _INDENT
    members = [_quote(key) + ": " + _value(mapping[key], inner) for key in _sorted_keys(mapping)]
    return "{" + inner + ("," + inner).join(members) + newline + "}"


def _records(records: Sequence[dict], newline: str) -> Iterable[str] | None:
    """Flat dicts with the same keys, each through one template; else None."""
    keys = records[0].keys()
    if not keys or not all(map(keys.__eq__, map(dict.keys, records))):
        return None
    names = _sorted_keys(records[0])
    columns = [_column(list(map(itemgetter(name), records))) for name in names]
    if None in columns:
        return None
    inner = newline + _INDENT
    slots = [_quote(name).replace("{", "{{").replace("}", "}}") + ": {}" for name in names]
    template = "{{" + inner + ("," + inner).join(slots) + newline + "}}"
    return map(template.format, *columns)


def _array(items: Sequence, newline: str) -> str:
    if not items:
        return "[]"
    inner = newline + _INDENT
    texts = _column(items)
    if texts is None and set(map(type, items)) == {dict}:
        texts = _records(items, inner)
    if texts is None:
        texts = [_value(item, inner) for item in items]
    return "[" + inner + ("," + inner).join(texts) + newline + "]"
