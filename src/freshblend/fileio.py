"""The line format of every data file, JSON value checks, atomic writes and
float formatting.

A TSV file is UTF-8; a line ends in '\\n' or '\\r\\n', and blank lines are
skipped; fields are tab-separated, '-' marks an absent optional value and
an integer fits in 64 bits.  Every fault is a ParseError at 'path:line'.
"""

import json
import math
import os
import sys
import tempfile

from .errors import ParseError, ValidationError


class TsvRows:
    """The rows of a TSV file as lists of fields, read inside `with`.

    `width` is the field count, an inclusive (fewest, most) pair or None;
    `key` names the first column when it must be non-empty and unique.
    Given `lines`, strings decoded as the file is (UTF-8, undecodable
    bytes as 'surrogateescape') that each keep their line end, it reads
    them in place of the file's lines, numbered from `first`; `path` then
    only names them in messages.  Each iteration goes on from where the
    last one stopped, under the `width` and `key` set when it starts.  A
    ValidationError raised in the block, by a token parser or a loader's
    value checks, leaves it as a ParseError at the current row's line.
    """

    def __init__(self, path: str, width=None, key: str | None = None, lines=None, first=1):
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
        width, key = self.width, self.key
        low, high = (width, width) if isinstance(width, int) else width or (0, math.inf)
        seen = set()
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
            if key:
                if not fields[0]:
                    raise ParseError(f"empty {key}")
                if fields[0] in seen:
                    raise ParseError(f"duplicate {key} {fields[0]!r}")
                seen.add(fields[0])
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


def opt_real(token: str, what: str) -> float | None:
    return None if token == "-" else parse_real(token, what)


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
