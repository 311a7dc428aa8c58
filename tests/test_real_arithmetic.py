"""Real-arithmetic SVDs for exactly real shifted matrices, against complex ones.

Every level of spectral's staircase climb (kernel_split is its level 1)
and the left split factor a shifted matrix whose entries are all real by
a real SVD.  The reference below
factors the same matrices as complex arrays, as every SVD did before;
both routes must find the same staircases, Segre characteristics and
report bytes, and subspaces that agree to roundoff.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    ReportDocument,
    Tolerance,
    check_conditions,
    generate,
    matrix_digest,
    point_spectrum,
    read_matrix,
    root_space,
    subspace_angle,
)
from biortho import spectral
from conftest import Calls

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)

CASES = (
    [pytest.param(str(p), tol, id="%s-%g" % (p.name, tol.cluster_eps)) for p in CORPUS for tol in (DEFAULT, WIDE)]
    + [
        pytest.param(FamilySpec("shift_trunc", 48), DEFAULT, id="shift48"),
        pytest.param(FamilySpec("jordan", 32, {"eigenvalue": 0j, "segre": (16, 8, 4, 2, 1, 1)}), DEFAULT,
                     id="jordan32"),
        pytest.param(FamilySpec("weighted_shift_trunc", 6, {"ratio": 0.9}), DEFAULT, id="wshift6"),
    ]
)


def _complex_svd(b, lam=None):
    return spectral._lapack(np.linalg.svd, b.astype(complex), lam)


def _diagnose(a, tol):
    spectrum = point_spectrum(a, tol)
    roots = [root_space(a, c, tol) for c in spectrum.clusters]
    doc = ReportDocument.from_diagnosis(check_conditions(a, tol), tol, matrix_digest(a)).to_json()
    return roots, doc


@pytest.mark.parametrize("source, tol", CASES)
def test_real_svds_match_the_complex_route(source, tol, monkeypatch):
    a = read_matrix(source) if isinstance(source, str) else generate(source)
    roots, doc = _diagnose(a, tol)
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_svd", _complex_svd)
        ref_roots, ref_doc = _diagnose(a, tol)
    assert doc == ref_doc
    for rs, ref in zip(roots, ref_roots):
        assert rs.staircase == ref.staircase and rs.segre == ref.segre
        assert subspace_angle(rs.space, ref.space) <= 1e-12
        assert subspace_angle(rs.adjoint_space, ref.adjoint_space) <= 1e-12


@pytest.mark.parametrize("name", ["wshift6.mtx", "jordan31.mtx"])
def test_a_real_file_at_a_real_eigenvalue_takes_real_svds(name, monkeypatch):
    # a Matrix Market file is read as complex; its imaginary parts are zero
    a = read_matrix(str(CORPUS[0].parent / name))
    calls = Calls(monkeypatch, names=("svd",))
    for c in point_spectrum(a).clusters:
        root_space(a, c)
    # point_spectrum's climb and left split, and each standalone climb
    assert len(calls.dtypes["svd"]) > 2
    assert set(calls.dtypes["svd"]) == {np.dtype(np.float64)}
