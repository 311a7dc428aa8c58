import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import MatrixParseError, read_matrix, write_matrix

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


def test_too_few_and_too_many_entries():
    head = "%%MatrixMarket matrix array real general\n2 2\n"
    with pytest.raises(MatrixParseError) as info:
        read_matrix(io.StringIO(head + "1\n2\n3\n"))
    assert "3 of 4" in str(info.value)
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
