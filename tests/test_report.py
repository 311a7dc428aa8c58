import json

import numpy as np
import pytest

from biortho import (
    DEFAULT_TOL,
    MatrixParseError,
    ReportDocument,
    SCHEMA_VERSION,
    Tolerance,
    check_conditions,
    matrix_digest,
    write_matrix,
)

from conftest import random_complex


@pytest.fixture(scope="module")
def gaussian_doc():
    a = random_complex(4, None, seed=3)
    diag = check_conditions(a)
    return ReportDocument.from_diagnosis(diag, DEFAULT_TOL, matrix_digest(a))


@pytest.fixture(scope="module")
def nilpotent_doc():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    diag = check_conditions(a)
    return ReportDocument.from_diagnosis(diag, DEFAULT_TOL, matrix_digest(a))


def test_json_key_order_is_fixed(gaussian_doc):
    data = json.loads(gaussian_doc.to_json())
    assert list(data) == [
        "schema_version",
        "input_digest",
        "tolerance",
        "spectrum",
        "sigma_set",
        "conditions",
        "normality",
        "kappa_v",
        "diagonalizable",
        "biorthonormal_basis_exists",
        "residual_identity_angle",
    ]
    assert data["schema_version"] == SCHEMA_VERSION
    assert list(data["tolerance"]) == ["rank_eps", "cluster_eps", "residual_eps"]


def test_rendering_twice_is_byte_identical(gaussian_doc):
    assert gaussian_doc.to_json() == gaussian_doc.to_json()
    assert gaussian_doc.to_text() == gaussian_doc.to_text()


def test_infinite_kappa_encodes_as_string(nilpotent_doc):
    data = json.loads(nilpotent_doc.to_json())
    assert data["kappa_v"] == "inf"
    assert nilpotent_doc.kappa_v() == float("inf")
    assert not data["diagonalizable"]
    assert not data["biorthonormal_basis_exists"]


def test_finite_kappa_stays_numeric(gaussian_doc):
    data = json.loads(gaussian_doc.to_json())
    assert isinstance(data["kappa_v"], float)
    assert gaussian_doc.kappa_v() == data["kappa_v"]


def test_json_roundtrip_compares_equal(gaussian_doc, nilpotent_doc):
    for doc in (gaussian_doc, nilpotent_doc):
        back = ReportDocument.from_json(doc.to_json())
        assert back == doc
        assert back.to_json() == doc.to_json()


def test_digest_matches_file_and_memory(tmp_path):
    from biortho import read_matrix

    a = random_complex(3, None, seed=11)
    p = tmp_path / "m.mtx"
    write_matrix(a, p)
    assert matrix_digest(read_matrix(p)) == matrix_digest(a)
    assert matrix_digest(a) != matrix_digest(a + 1e-12)


def test_digest_distinguishes_shape():
    assert matrix_digest(np.zeros((1, 4))) != matrix_digest(np.zeros((2, 2)))


def test_timings_appear_only_when_supplied():
    a = random_complex(3, None, seed=5)
    diag = check_conditions(a)
    bare = ReportDocument.from_diagnosis(diag, DEFAULT_TOL, matrix_digest(a))
    timed = ReportDocument.from_diagnosis(
        diag, DEFAULT_TOL, matrix_digest(a), timings={"diagnose": 0.25}
    )
    assert "timings" not in json.loads(bare.to_json())
    assert json.loads(timed.to_json())["timings"] == {"diagnose": 0.25}
    assert "timings" in timed.to_text()
    assert "timings" not in bare.to_text()


def test_from_json_rejects_bad_documents(gaussian_doc):
    with pytest.raises(MatrixParseError):
        ReportDocument.from_json("{not json")
    with pytest.raises(MatrixParseError):
        ReportDocument.from_json("[1, 2]")
    data = json.loads(gaussian_doc.to_json())
    data["schema_version"] = "999"
    with pytest.raises(MatrixParseError) as info:
        ReportDocument.from_json(json.dumps(data))
    assert "schema_version" in str(info.value)
    data = json.loads(gaussian_doc.to_json())
    del data["kappa_v"]
    with pytest.raises(MatrixParseError) as info:
        ReportDocument.from_json(json.dumps(data))
    assert "kappa_v" in str(info.value)


@pytest.mark.parametrize("tolerance", [{"foo": 1}, [1, 2], {"rank_eps": 5}],
                         ids=["unknown-key", "not-an-object", "out-of-range"])
def test_from_json_rejects_a_malformed_tolerance(gaussian_doc, tolerance):
    data = json.loads(gaussian_doc.to_json())
    data["tolerance"] = tolerance
    with pytest.raises(MatrixParseError) as info:
        ReportDocument.from_json(json.dumps(data))
    assert "tolerance" in str(info.value)


@pytest.mark.parametrize("key, value", [("timings", [1, 2]), ("timings", {"parse": "x"}), ("kappa_v", "abc")],
                         ids=["timings-not-an-object", "timing-not-a-number", "kappa-not-a-number"])
def test_from_json_rejects_malformed_timings_and_kappa(gaussian_doc, key, value):
    # each of these once parsed, then failed in to_text or kappa_v with an untyped error
    data = json.loads(gaussian_doc.to_json())
    data[key] = value
    with pytest.raises(MatrixParseError) as info:
        ReportDocument.from_json(json.dumps(data))
    assert key in str(info.value)


def test_tolerance_roundtrips_through_json(gaussian_doc):
    tol = Tolerance(rank_eps=1e-9, cluster_eps=1e-7, residual_eps=1e-6)
    a = random_complex(2, None, seed=8)
    doc = ReportDocument.from_diagnosis(
        check_conditions(a, tol), tol, matrix_digest(a)
    )
    assert ReportDocument.from_json(doc.to_json()).tolerance == tol


def test_text_rendering_mentions_everything(nilpotent_doc):
    text = nilpotent_doc.to_text()
    assert "matrix diagnosis (n = 2)" in text
    assert "defective" in text
    assert "kappa_v inf" in text
    assert "C1" in text and "C4'" in text
    assert "notes" in text
    assert nilpotent_doc.input_digest in text


def test_conditions_serialize_in_report_order(gaussian_doc):
    ids = [v["id"] for v in json.loads(gaussian_doc.to_json())["conditions"]]
    assert ids == ["C1", "C2", "C3", "C4", "C2'", "C3'", "C4'"]
