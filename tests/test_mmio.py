import io
import pathlib
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import MatrixParseError, mmio, read_matrix, write_matrix

from conftest import random_complex


def roundtrip(m):
    buf = io.StringIO()
    write_matrix(m, buf)
    buf.seek(0)
    return read_matrix(buf)


def test_writer_golden_content():
    buf = io.StringIO()
    write_matrix(np.array([[1.0, 2.5j], [-3.0, 4.0 - 0.5j]]), buf)
    assert buf.getvalue() == (
        "%%MatrixMarket matrix array complex general\n"
        "2 2\n"
        "1.0 0.0\n"
        "-3.0 0.0\n"
        "0.0 2.5\n"
        "4.0 -0.5\n"
    )


def test_entries_are_column_major():
    m = read_matrix(
        io.StringIO(
            "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n"
        )
    )
    assert np.array_equal(m, [[1, 3], [2, 4]])


@given(st.integers(0, 300), st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_roundtrip_is_bit_exact(seed, n, m):
    a = random_complex(n, m, seed)
    b = roundtrip(a)
    assert a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def test_file_roundtrip_and_byte_stability(tmp_path):
    a = random_complex(3, 4, seed=17)
    p = tmp_path / "a.mtx"
    write_matrix(a, p)
    assert read_matrix(p).tobytes() == a.tobytes()
    q = tmp_path / "b.mtx"
    write_matrix(read_matrix(p), q)
    assert p.read_bytes() == q.read_bytes()


def test_reader_accepts_comments_and_blank_lines():
    text = (
        "%%MatrixMarket matrix array complex general\n"
        "% a comment\n"
        "\n"
        "1 2\n"
        "% another\n"
        "1.5 0.0\n"
        "\n"
        "0.0 -2.0\n"
    )
    m = read_matrix(io.StringIO(text))
    assert np.allclose(m, [[1.5, -2j]])


def test_reader_accepts_real_and_integer_fields():
    real = "%%MatrixMarket matrix array real general\n1 1\n-2.25\n"
    integer = "%%MatrixMarket matrix array integer general\n1 1\n7\n"
    assert read_matrix(io.StringIO(real))[0, 0] == -2.25
    assert read_matrix(io.StringIO(integer))[0, 0] == 7


def test_tilted_exponents_parse():
    text = "%%MatrixMarket matrix array real general\n1 1\n1.5e-3\n"
    assert read_matrix(io.StringIO(text))[0, 0] == 1.5e-3


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("%%NotMatrixMarket matrix array real general\n1 1\n0\n", 1),
        ("%%MatrixMarket tensor array real general\n1 1\n0\n", 1),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0\n", 1),
        ("%%MatrixMarket matrix array pattern general\n1 1\n0\n", 1),
        ("%%MatrixMarket matrix array real symmetric\n1 1\n0\n", 1),
    ],
)
def test_header_errors_point_at_line_one(text, line):
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(text))
    assert info.value.line == line


def test_size_line_errors_carry_position():
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO("%%MatrixMarket matrix array real general\n2 x\n"))
    assert (info.value.line, info.value.column) == (2, 3)
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO("%%MatrixMarket matrix array real general\n2 -1\n"))
    assert (info.value.line, info.value.column) == (2, 3)
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO("%%MatrixMarket matrix array real general\n2\n"))
    assert info.value.line == 2


def test_value_errors_carry_position():
    text = "%%MatrixMarket matrix array complex general\n1 1\n0.0 oops\n"
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(text))
    assert (info.value.line, info.value.column) == (3, 5)


def test_wrong_arity_for_field():
    text = "%%MatrixMarket matrix array complex general\n1 1\n1.0\n"
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(text))
    assert info.value.line == 3
    text = "%%MatrixMarket matrix array real general\n1 1\n1.0 2.0\n"
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(text))
    assert (info.value.line, info.value.column) == (3, 5)


@pytest.mark.filterwarnings("error")  # loadtxt warns of a body with no data
def test_too_few_and_too_many_entries():
    head = "%%MatrixMarket matrix array real general\n2 2\n"
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(head + "1\n2\n3\n"))
    assert "3 of 4" in str(info.value)
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(head + "\n \t\n"))
    assert "0 of 4" in str(info.value)
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(head + "1\n2\n3\n4\n5\n"))
    assert info.value.line == 7


def test_missing_size_line():
    with pytest.raises(MatrixParseError):
        read_matrix(io.StringIO("%%MatrixMarket matrix array real general\n% hi\n"))


def test_error_message_mentions_position():
    err = MatrixParseError("boom", 4, 7)
    assert "line 4" in str(err)
    assert "column 7" in str(err)


NON_ASCII = "%%MatrixMarket matrix array real general\n% café au lait\n1 1\n2\n"


def test_non_ascii_character_is_a_parse_error_with_its_position(tmp_path):
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(NON_ASCII))
    assert (info.value.line, info.value.column) == (2, 6)
    # on disk, as UTF-8 and as Latin-1: the first byte of the character
    # sits at the same column either way
    for encoding in ("utf-8", "latin-1"):
        path = tmp_path / ("bad-%s.mtx" % encoding)
        path.write_bytes(NON_ASCII.encode(encoding))
        with pytest.raises(MatrixParseError) as info:
            read_matrix(str(path))
        assert (info.value.line, info.value.column) == (2, 6)
        assert "non-ASCII" in str(info.value)


@pytest.mark.parametrize("body, position", [("٣\n", (3, 1)), ("2\u2028", (3, 2))],
                         ids=["arabic-indic-digit", "line-separator"])
def test_non_ascii_in_a_stream_is_refused_where_it_would_parse(body, position):
    # float() accepts other scripts' digits, and splitlines() swallows a
    # non-ASCII line break; a Matrix Market file may hold neither
    text = "%%MatrixMarket matrix array real general\n1 1\n" + body
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(text))
    assert (info.value.line, info.value.column) == position


@pytest.mark.parametrize("entry, position, message", [
    ("nan 0", (3, 1), "must be finite, found 'nan'"),
    ("1e999 0", (3, 1), "must be finite, found '1e999'"),
    ("infinity -0", (3, 1), "must be finite, found 'infinity'"),
    ("0 -Inf", (3, 3), "must be finite, found '-Inf'"),
    ("1_0 0", (3, 1), "expected a number, found '1_0'"),
    ("0 2_5.0", (3, 3), "expected a number, found '2_5.0'"),
])
def test_non_finite_and_digit_grouped_numbers_are_refused_with_position(entry, position, message):
    text = "%%MatrixMarket matrix array complex general\n1 1\n" + entry + "\n"
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(text))
    assert (info.value.line, info.value.column) == position
    assert message in str(info.value)


def test_extreme_finite_values_write_read_write_byte_for_byte():
    a = random_complex(64, seed=5)
    specials = [-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308,
                -1.7976931348623157e308]
    a.real.flat[:len(specials)] = specials
    a.imag.flat[-len(specials):] = specials
    first = io.StringIO()
    write_matrix(a, first)
    b = read_matrix(io.StringIO(first.getvalue()))
    assert b.tobytes() == a.tobytes()
    second = io.StringIO()
    write_matrix(b, second)
    assert second.getvalue() == first.getvalue()


def _refuse(*args):
    raise AssertionError("a valid file reached the line splitter or the line parser")


def test_valid_file_is_read_without_the_line_parser(tmp_path):
    # written files, also with comment and blank lines before the size
    # line, take the one-pass route as streams and as files
    a = random_complex(128, seed=3)
    plain, commented = tmp_path / "plain.mtx", tmp_path / "commented.mtx"
    write_matrix(a, plain)
    banner, rest = plain.read_bytes().split(b"\n", 1)
    commented.write_bytes(banner + b"\n% a comment\n\n  \t\n%% another\n" + rest)
    with mock.patch.object(mmio, "_ascii_lines", _refuse), \
            mock.patch.object(mmio, "_parse_body_by_line", _refuse):
        for source in (plain, str(commented), io.StringIO(commented.read_text())):
            assert read_matrix(source).tobytes() == a.tobytes()


# Differential test of the two reading routes.  The texts are valid files
# and mutations of them; the line parser alone is the reference.

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_GOOD_TOKENS = st.one_of(
    _FINITE.map(repr),
    _FINITE.map(lambda x: "%.6E" % x),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0.0", "+.5", "-.5e-3", "5.", "1e3", "1E+03", "-4.9e-324", "1e-400",
                     "1.7976931348623157e308", "007", "+0", "-0"]),
)
_BAD_TOKENS = st.sampled_from([
    "nan", "NaN", "-nan", "inf", "-Infinity", "1e999", "-1e400", "1_0", "_1", "1__0.5",
    "abc", "0x1p3", "1.0.0", "--1", "1e", ".", "+", "1d0", "1,5", "1\x00", "\x01", "1j",
    "%", "%1", "1%", "0%x", '"1"',
])
_SEPARATORS = st.sampled_from([" ", "  ", "\t", " \t", "\x1f", "\v", "\f", "\r", "\x1c"])
_LINE_ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1e"])
_FILLER = st.sampled_from(["", "   ", "\t", "% comment", "  % indented", "%%", "%1 2"])


@st.composite
def _matrix_market_texts(draw):
    field = draw(st.sampled_from(["complex", "real", "integer"]))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    per_entry = 2 if field == "complex" else 1
    entries = [[draw(_GOOD_TOKENS) for _ in range(per_entry)] for _ in range(rows * cols)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(entries) - 1)) if entries else None
        kind = draw(st.sampled_from(["bad token", "extra token", "drop token",
                                     "drop entry", "extra entry"]))
        if i is None or kind == "extra entry":
            entries.append([draw(_GOOD_TOKENS) for _ in range(per_entry)])
        elif kind == "bad token" and entries[i]:
            entries[i][draw(st.integers(0, len(entries[i]) - 1))] = draw(_BAD_TOKENS)
        elif kind == "extra token":
            entries[i].append(draw(_GOOD_TOKENS))
        elif kind == "drop token" and entries[i]:
            entries[i].pop()
        elif kind == "drop entry":
            del entries[i]
    fillers = draw(st.booleans())
    lines = ["%%MatrixMarket matrix array " + field + " general"]
    lines.extend(draw(st.lists(_FILLER, max_size=2 * int(fillers))))
    lines.append("%d %d" % (rows, cols))
    for tokens in entries:
        lines.extend(draw(st.lists(_FILLER, max_size=int(fillers))))
        lead, trail = draw(st.sampled_from(["", " ", "\t"])), draw(st.sampled_from(["", " "]))
        lines.append(lead + "".join(t + draw(_SEPARATORS) for t in tokens[:-1])
                     + "".join(tokens[-1:]) + trail)
    return "".join(line + draw(_LINE_ENDS) for line in lines)


def _outcome(source):
    try:
        m = read_matrix(io.StringIO(source) if isinstance(source, str) else source)
    except MatrixParseError as exc:
        return type(exc), str(exc), exc.line, exc.column
    return m.shape, m.tobytes()


@given(_matrix_market_texts())
@settings(max_examples=400, deadline=None)
def test_one_call_reader_agrees_with_the_line_parser(text):
    # every text is read as a stream and from a file; hypothesis refuses
    # function-scoped fixtures, so the file lives in a directory of its own
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp, "drawn.mtx")
        path.write_bytes(text.encode("ascii"))
        for source in (text, path):
            fast = _outcome(source)
            with mock.patch.object(mmio, "_read_one_pass", lambda *args: None):
                reference = _outcome(source)
            assert fast == reference


@pytest.mark.parametrize("edit, reads", [
    (lambda t: t.replace("\n", "\n% a comment in the body\n", 3), True),
    (lambda t: t.replace("\n", "\r\n"), True),
    (lambda t: t.replace("\n", "\v"), True),
    (lambda t: t.replace("\n", "\v").replace("0.25", "0.25 0.5", 1), False),
], ids=["body-comment", "crlf", "vertical-tab", "vertical-tab-error"])
def test_files_outside_the_one_pass_route_reach_the_line_parser(edit, reads, tmp_path):
    a = random_complex(4, seed=2)
    a[1, 2] = 0.25
    buf = io.StringIO()
    write_matrix(a, buf)
    text = edit(buf.getvalue())
    path = tmp_path / "edited.mtx"
    path.write_bytes(text.encode("ascii"))
    with mock.patch.object(mmio, "_read_one_pass", lambda *args: None):
        reference = _outcome(text)
    parser = mock.Mock(wraps=mmio._parse_body_by_line)
    with mock.patch.object(mmio, "_parse_body_by_line", parser):
        assert _outcome(text) == reference
        assert _outcome(path) == reference
    assert parser.call_count == 2
    assert reference == ((a.shape, a.tobytes()) if reads else (
        MatrixParseError, "expected 2 value(s) per line for field 'complex', found 3 (line 12, column 10)",
        12, 10))
