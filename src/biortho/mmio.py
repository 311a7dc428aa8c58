"""Matrix Market dense-array reader and writer.

The writer emits the complex array format in column-major order with
``repr`` floats, so a write/read cycle reproduces the matrix bit for
bit and a read/write cycle reproduces the file byte for byte.  The
reader additionally accepts real and integer fields.

A number is an ASCII decimal or exponent literal as ``float`` reads it,
without ``_`` digit groups, and it must be finite: ``nan``, ``inf`` and
overflowing literals such as ``1e999`` are refused.  An ASCII file whose
body holds no ``%`` and which has no line break that ``str.splitlines``
honours but ``numpy.loadtxt`` does not (``\\r \\v \\f \\x1c \\x1d \\x1e``)
is read in one pass over its bytes: the lines up to the size line, then
one ``loadtxt`` call over the rest.  Every other file, and every body
that call refuses or reads as the wrong number of values or a non-finite
one, goes to the line-by-line parser over ``splitlines()``.  It is the
reference grammar: it either reads the same matrix or raises
MatrixParseError with the one-based line and column of the first fault.
"""

from __future__ import annotations

import io
import math
import re

import numpy as np

from .errors import MatrixParseError
from .linalg import as_matrix

__all__ = ["read_matrix", "write_matrix"]

_BANNER = "%%MatrixMarket"
# line breaks that str.splitlines honours and numpy.loadtxt does not
_SPLITLINES_ONLY = (b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")
_DATUM = re.compile(rb"[^\s\x1c-\x1f]")


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_float(token, lineno, column):
    try:
        if "_" in token:  # float() reads digit groups such as 1_0; Matrix Market has none
            raise ValueError(token)
        value = float(token)
    except ValueError:
        raise MatrixParseError(
            "expected a number, found %r" % token, lineno, column
        ) from None
    if not math.isfinite(value):
        raise MatrixParseError(
            "matrix entries must be finite, found %r" % token, lineno, column
        )
    return value


def _is_data_line(line):
    """Whether a line after the banner holds data: not blank and not a comment."""
    return line.lstrip()[:1] not in ("", "%")


def read_matrix(source):
    """Read a dense Matrix Market file into a complex matrix.

    source may be a path or an open text file.  Raises MatrixParseError
    with the offending position on malformed input.
    """
    if hasattr(source, "read"):
        # surrogatepass encodes any text, and a first non-ASCII character keeps its position
        data = source.read().encode("utf-8", "surrogatepass")
    else:
        with open(source, "rb") as handle:
            data = handle.read()
    matrix = _read_one_pass(data)
    if matrix is None:
        # surrogateescape: a non-ASCII byte reaches _ascii_lines' position check
        return _read_lines(_ascii_lines(data.decode("ascii", "surrogateescape")))
    del data  # the bytes go before the transposing copy to C order
    return matrix.copy()


def _ascii_lines(text):
    if not text.isascii():
        # keepends, so that a non-ASCII line break belongs to a line too
        lineno, line = next((i, s) for i, s in enumerate(text.splitlines(True), 1) if not s.isascii())
        column = next(i for i, ch in enumerate(line, 1) if not ch.isascii())
        raise MatrixParseError("non-ASCII character in a Matrix Market file", lineno, column)
    return text.splitlines()


def _read_lines(lines):
    head = iter(lines)
    field, per_entry = _read_banner(head)
    size_lineno, rows, cols = _read_size_line(head)
    values = _parse_body_by_line(lines, size_lineno, field, per_entry, rows, cols)
    return values.reshape((cols, rows)).T.copy()


def _read_banner(lines):
    """The field and the number of values per entry, from the first line of the iterator."""
    line = next(lines, None)
    if line is None:
        raise MatrixParseError("empty file", 1)
    banner = line.split()
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
    return field, 2 if field == "complex" else 1


def _read_size_line(lines):
    """The size line's one-based number and dimensions, from lines after the banner, taken up to it."""
    lineno = 1
    for lineno, line in enumerate(lines, start=2):
        if _is_data_line(line):
            break
    else:
        raise MatrixParseError("missing size line", lineno)
    toks = _tokens(line)
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
    return lineno, dims[0], dims[1]


def _read_one_pass(data):
    """The matrix, transposed in place, from one loadtxt call over the bytes; None leaves them to the line parser."""
    if not data.isascii() or any(c in data for c in _SPLITLINES_ONLY):
        return None
    stream = io.BytesIO(data)
    head = (line.rstrip(b"\n").decode() for line in stream)
    _, per_entry = _read_banner(head)
    _, rows, cols = _read_size_line(head)
    body = stream.tell()
    # no comment in the body, and one datum at least, else loadtxt warns of no data
    if data.find(b"%", body) >= 0 or _DATUM.search(data, body) is None:
        return None
    try:
        values = np.loadtxt(stream, dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape != (rows * cols, per_entry) or not np.isfinite(values).all():
        return None
    # a (re, im) float pair has complex128's memory layout, so the view is exact
    values = values.view(complex)[:, 0] if per_entry == 2 else values[:, 0].astype(complex)
    return values.reshape((cols, rows)).T


def _parse_body_by_line(lines, size_lineno, field, per_entry, rows, cols):
    """The entries in file order, token by token; raises at the first fault."""
    values = []
    last = size_lineno
    for lineno, line in enumerate(lines[size_lineno:], start=size_lineno + 1):
        if not _is_data_line(line):
            continue
        last = lineno
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
            "file ends after %d of %d entries" % (len(values), rows * cols), last
        )
    return np.array(values, dtype=complex)


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
    # one format call per column, so the file is never held whole as text
    column_format = "%r %r\n" * rows
    for column in np.ascontiguousarray(m.T):
        handle.write(column_format % tuple(column.view(float).tolist()))
