"""Matrix Market dense-array reader and writer.

The writer emits the complex array format in column-major order with
``repr`` floats, so a write/read cycle reproduces the matrix bit for
bit and a read/write cycle reproduces the file byte for byte.  The
reader additionally accepts real and integer fields; parse failures
carry one-based line and column positions.
"""

from __future__ import annotations

import re

import numpy as np

from .errors import MatrixParseError
from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix"]

_BANNER = "%%MatrixMarket"


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_float(token, lineno, column):
    try:
        return float(token)
    except ValueError:
        raise MatrixParseError(
            "expected a number, found %r" % token, lineno, column
        ) from None


def read_matrix(source):
    """Read a dense Matrix Market file into a complex matrix.

    source may be a path or an open text file.  Raises MatrixParseError
    with the offending position on malformed input.
    """
    if hasattr(source, "read"):
        return _read_stream(source)
    # surrogateescape: a non-ASCII byte reaches _read_stream's position check
    with open(source, "r", encoding="ascii", errors="surrogateescape") as handle:
        return _read_stream(handle)


def _ascii_lines(text):
    if not text.isascii():
        # keepends, so that a non-ASCII line break belongs to a line too
        lineno, line = next((i, s) for i, s in enumerate(text.splitlines(True), 1) if not s.isascii())
        column = next(i for i, ch in enumerate(line, 1) if not ch.isascii())
        raise MatrixParseError("non-ASCII character in a Matrix Market file", lineno, column)
    return text.splitlines()


def _read_stream(handle):
    # the text is dropped once split, so a large file is not held twice
    lines = _ascii_lines(handle.read())
    if not lines:
        raise MatrixParseError("empty file", 1)
    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != _BANNER.lower():
        raise MatrixParseError(
            "missing '%s matrix array <field> general' banner" % _BANNER, 1
        )
    obj, layout, field, symmetry = (w.lower() for w in banner[1:])
    if obj != "matrix":
        raise MatrixParseError("unsupported object %r" % obj, 1)
    if layout != "array":
        raise MatrixParseError(
            "unsupported format %r; only dense 'array' files are supported" % layout, 1
        )
    if field not in ("complex", "real", "integer"):
        raise MatrixParseError("unsupported field %r" % field, 1)
    if symmetry != "general":
        raise MatrixParseError("unsupported symmetry %r" % symmetry, 1)
    per_entry = 2 if field == "complex" else 1

    body = []
    for lineno, line in enumerate(lines[1:], start=2):
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        body.append((lineno, line))
    if not body:
        raise MatrixParseError("missing size line", len(lines))

    lineno, size_line = body[0]
    toks = _tokens(size_line)
    if len(toks) != 2:
        raise MatrixParseError(
            "size line must hold exactly two integers", lineno,
            toks[2][1] if len(toks) > 2 else 1,
        )
    dims = []
    for token, column in toks:
        try:
            value = int(token)
        except ValueError:
            raise MatrixParseError(
                "expected an integer dimension, found %r" % token, lineno, column
            ) from None
        if value < 1:
            raise MatrixParseError("dimensions must be positive", lineno, column)
        dims.append(value)
    rows, cols = dims

    values = []
    for lineno, line in body[1:]:
        toks = _tokens(line)
        if len(toks) != per_entry:
            raise MatrixParseError(
                "expected %d value(s) per line for field '%s', found %d"
                % (per_entry, field, len(toks)),
                lineno,
                toks[per_entry][1] if len(toks) > per_entry else 1,
            )
        if len(values) >= rows * cols:
            raise MatrixParseError(
                "more entries than the %d x %d header promises" % (rows, cols),
                lineno,
                toks[0][1],
            )
        parts = [_parse_float(t, lineno, c) for t, c in toks]
        values.append(complex(parts[0], parts[1]) if per_entry == 2 else complex(parts[0]))
    if len(values) < rows * cols:
        raise MatrixParseError(
            "file ends after %d of %d entries" % (len(values), rows * cols),
            body[-1][0] if body else 1,
        )
    return np.array(values, dtype=complex).reshape((cols, rows)).T.copy()


def write_matrix(m, destination):
    """Write a matrix as a Matrix Market complex array file.

    destination may be a path or an open text file.  Output is fully
    deterministic: no comments, repr floats, column-major entries.
    """
    m = as_matrix(m)
    if hasattr(destination, "write"):
        _write_stream(m, destination)
        return
    with open(destination, "w", encoding="ascii", newline="\n") as handle:
        _write_stream(m, handle)


def _write_stream(m, handle):
    rows, cols = m.shape
    handle.write("%%MatrixMarket matrix array complex general\n")
    handle.write("%d %d\n" % (rows, cols))
    for j in range(cols):
        for i in range(rows):
            z = complex(m[i, j])
            handle.write("%r %r\n" % (z.real, z.imag))
