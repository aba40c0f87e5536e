"""The line format of every data file, the block reader of its TSV
files, JSON value checks, atomic writes and float formatting.

A TSV file is UTF-8; a line ends in '\\n' or '\\r\\n', and blank lines are
skipped; fields are tab-separated, '-' marks an absent optional value and
an integer fits in 64 bits.  Every fault is a ParseError at 'path:line'.

`read_tsv` reads a TSV file `BLOCK_LINES` lines at a time into the
columns its loader declares: a regular block by one typed `np.loadtxt`,
any other block row by row by `TsvRows`, the source of the line and
token messages.  It then checks each declared value rule over its column.
"""

import io
import json
import math
import os
import sys
import tempfile
from itertools import islice
from typing import Callable, NamedTuple

import numpy as np

from .errors import ParseError, ValidationError

#: Lines of a TSV file parsed or formatted at a time: only one block's
#: fields are held as strings at once besides the columns.
BLOCK_LINES = 1 << 13


class TsvRows:
    """The rows of a TSV file as lists of fields, read inside `with`.

    `width` is the field count, an inclusive (fewest, most) pair or None;
    `key` names the leading columns that must be non-empty.  Given
    `lines`, strings decoded as the file is (UTF-8, undecodable bytes as
    'surrogateescape') that each keep their line end, it reads them in
    place of the file's lines, numbered from `first`; `path` then only
    names them in messages.  Each iteration goes on from where the last
    one stopped.  A ValidationError raised in the block, by a token parser
    or a loader's checks, leaves it as a ParseError at the current row's
    line.
    """

    def __init__(self, path: str, width=None, key: tuple[str, ...] = (), lines=None, first=1):
        self.path = path
        self.width = width
        self.key = key
        self.line = 0
        self._handle = None
        if lines is None:
            # Undecodable bytes arrive as lone surrogates, which only a non-ASCII
            # line can hold and which strict UTF-8 cannot encode again.
            lines = self._handle = open(path, encoding="utf-8", errors="surrogateescape",
                                        newline="\n")
        self._lines = enumerate(lines, start=first)

    def __iter__(self):
        (low, high), key = self.width or (0, math.inf), self.key
        for self.line, text in self._lines:
            if not text.isascii():
                try:
                    text.encode("utf-8")
                except UnicodeEncodeError:
                    raise ParseError("line is not valid UTF-8") from None
            text = text.rstrip("\n").rstrip("\r")
            if not text:
                continue
            fields = text.split("\t")
            if not low <= len(fields) <= high:
                count = low if low == high else f"{low}-{high}"
                raise ParseError(f"expected {count} fields, got {len(fields)}")
            if not all(fields[:len(key)]):
                raise ParseError(f"empty {' or '.join(key)}")
            yield fields

    def __enter__(self) -> "TsvRows":
        return self

    def __exit__(self, kind, exc, traceback) -> None:
        if self._handle is not None:
            self._handle.close()
        if isinstance(exc, ValidationError) and getattr(exc, "path", None) is None:
            raise ParseError(str(exc), self.path, self.line) from None


def parse_int(token: str, what: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}") from None
    if not -2**63 <= value < 2**63:
        raise ParseError(f"{what} does not fit in 64 bits: {token!r}")
    return value


def parse_real(token: str, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad {what}: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(f"{what} is not finite: {token!r}")
    return value


class Column(NamedTuple):
    """A column a loader declares.  `label` names it in messages; `dtype`
    is object (text, kept as read), np.int64 (read as `parse_int` reads) or
    np.float64 (as `parse_real` reads).  An optional column reads '-', or a
    field past the end of a shorter line, as absent: NaN, or 0 in int64.
    `bad`, if given, is its value rule: it maps the column to a mask of
    the values it refuses, and `message`, formatted with one, names it."""

    label: str
    dtype: type = object
    optional: bool = False
    bad: Callable[[np.ndarray], np.ndarray] | None = None
    message: str = ""


def read_tsv(path: str, columns, fewest: int | None = None, key: int = 0) -> list[np.ndarray]:
    """The `columns` (`Column`s) of the TSV file at `path`, read a block of
    `BLOCK_LINES` lines at a time.

    A line has `fewest` (by default all) to `len(columns)` fields.  The
    first `key` columns are text that must be non-empty, and the tuple of
    their values may appear once.  A fault names the first bad line; on
    one line a width or UTF-8 fault comes first, then an empty key, then a
    repeated key, then a token and then a value rule, each in field order.
    """
    fewest = len(columns) if fewest is None else fewest
    blocks, fault = [], None
    with open(path, "rb") as handle:
        first = 1
        while fault is None and (lines := list(islice(handle, BLOCK_LINES))):
            block = _typed_block(lines, columns, fewest, key)
            if block is None:
                block, fault = _row_block(lines, first, path, columns, fewest, key)
            else:
                block = [np.arange(first, first + len(lines)), *block]
            blocks.append(block)
            first += len(lines)
    empty = [np.empty(0, np.int64), np.empty((0, len(columns)), bool),
             *(np.empty(0, column.dtype) for column in columns)]
    line, absent, *values = [np.concatenate(parts) for parts in zip(*blocks, empty)]
    repeat = _first_repeat(values[:key])  # a row whose token was refused still counts
    if repeat is not None and (fault is None or line[repeat] <= fault.line):
        labels = "/".join(column.label for column in columns[:key])
        value = tuple(column[repeat] for column in values[:key])
        fault = ParseError(f"duplicate {labels} {value if key > 1 else value[0]!r}", path,
                           int(line[repeat]))
    rows = line.size if fault is None else np.searchsorted(line, fault.line)
    for i, column in enumerate(columns):  # each rule over the rows before the first fault
        if column.bad is not None:
            bad = np.flatnonzero(column.bad(values[i][:rows]) & ~absent[:rows, i])
            if bad.size:
                rows = bad[0]
                fault = ParseError(column.message.format(values[i][rows].item()), path,
                                   int(line[rows]))
    if fault is not None:
        raise fault
    return values


#: The bytes a block's text may hold to be read by `_typed_block`.
_TYPED_BYTES = bytes([ord("\t"), ord("\n"), ord("\r"), *range(0x20, 0x7F)])


def _typed_block(lines: list[bytes], columns, fewest: int, key: int):
    """The absent mask and the columns of a regular block read by one
    typed `np.loadtxt`, or None if the block is not regular or holds an
    empty key or a non-finite real, which the row path refuses.

    A regular block is printable ASCII and tabs in lines ended by '\\n'
    or '\\r\\n', none blank, each with the first line's width.  On that
    text loadtxt parses a number only where `int` or `float` parses it to
    the same value, and refuses a line of another width; only the text
    columns become `str` objects.
    """
    data = b"".join(lines)
    if data.translate(None, _TYPED_BYTES):
        return None
    data = data.replace(b"\r\n", b"\n")
    width = lines[0].count(b"\t") + 1
    if not fewest <= width <= len(columns) or b"\r" in data or data.startswith(b"\n") \
            or b"\n\n" in data:
        return None
    dtype = np.dtype([(f"f{i}", column.dtype) for i, column in enumerate(columns[:width])])
    try:
        table = np.loadtxt(io.StringIO(data.decode("ascii")), delimiter="\t", comments=None,
                           ndmin=1, dtype=dtype)
    except ValueError:
        return None
    # copies, so that no column keeps the whole row array alive
    values = [table[name].copy() for name in dtype.names]
    del table
    if any((value == "").any() for value in values[:key]) or not all(
            np.isfinite(value).all() for value in values if value.dtype == np.float64):
        return None
    # a composite key's leading columns group rows, as a query its documents:
    # each run there shares one str
    for i, value in enumerate(values[:max(key - 1, 0)]):
        head = np.flatnonzero(np.concatenate(([True], value[1:] != value[:-1])))
        values[i] = np.repeat(value[head], np.diff(np.append(head, value.size)))
    absent = np.arange(len(columns)) >= width
    return [np.tile(absent, (len(lines), 1)), *values,
            *(np.full(len(lines), _ABSENT[column.dtype]) for column in columns[width:])]


_PARSE = {object: lambda token, label: token, np.int64: parse_int, np.float64: parse_real}
_ABSENT = {object: None, np.int64: 0, np.float64: math.nan}


def _row_block(lines: list[bytes], first: int, path: str, columns, fewest: int, key: int):
    """The line numbers, absent mask and columns of a block of lines
    numbered from `first`, read row by row by `TsvRows`, and its first
    fault or None.  A row whose token is refused keeps its line and key."""
    line, rows, fault = [], [], None
    try:
        with TsvRows(path, (fewest, len(columns)), tuple(c.label for c in columns[:key]),
                     (text.decode("utf-8", "surrogateescape") for text in lines),
                     first) as reader:
            for fields in reader:
                line.append(reader.line)
                rows.append(fields[:key])  # extended once every token is read
                rows[-1] += [None if column.optional and token == "-" else
                             _PARSE[column.dtype](token, column.label)
                             for token, column in zip(fields[key:], columns[key:])]
    except ParseError as exc:
        fault = exc
    table = np.array([row + [None] * (len(columns) - len(row)) for row in rows], object)
    table = table.reshape(-1, len(columns))
    absent = np.equal(table, None)
    return [np.array(line, np.int64), absent,
            *(np.where(absent[:, i], _ABSENT[column.dtype], table[:, i]).astype(column.dtype)
              for i, column in enumerate(columns))], fault


def _first_repeat(keys: list[np.ndarray]) -> int | None:
    """The first row whose key, the tuple of its values in `keys`, an
    earlier row has, or None.  Rows are sorted by a hash of the key; a run
    of equal hashes, rare unless a key repeats, is then compared key by key."""
    hashed = np.fromiter(map(hash, zip(*keys)), np.int64)
    order = np.argsort(hashed)
    tied = np.flatnonzero(np.diff(hashed[order]) == 0)
    repeats = []
    for run in np.split(tied, np.flatnonzero(np.diff(tied) > 1) + 1) if tied.size else ():
        seen = set()
        for row in np.sort(order[run[0]:run[-1] + 2]).tolist():
            value = tuple(column[row] for column in keys)
            if value in seen:
                repeats.append(row)
                break
            seen.add(value)
    return min(repeats, default=None)


def json_real(value) -> float:
    """A finite JSON number; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"expected a number, got {json.dumps(value)}")
    if not abs(value) <= sys.float_info.max:  # exact for ints, false for nan
        raise ValueError(f"expected a finite number, got {json.dumps(value)}")
    return float(value)


def json_int(value) -> int:
    """A JSON integer; a bool or a float is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {json.dumps(value)}")
    return value


def write_lines(path: str, lines) -> None:
    """Write each line with a '\\n' ending, atomically."""
    lines = list(lines)
    atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


def atomic_write_text(path: str, content: str) -> None:
    """Write `content` to `path` via a temp file + rename in the same dir,
    making the dir first if it is missing."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def fmt(value) -> str:
    """Shortest round-tripping decimal form of a real value."""
    return repr(float(value))
