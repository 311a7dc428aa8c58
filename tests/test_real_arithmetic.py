"""Real arithmetic for real matrices, against the same factorizations forced complex.

spectral._lapack factors every matrix whose entries are all real by a
real LAPACK driver: A and A^* of a real A (dgeev, whose eigenvalues come
in exact conjugate pairs), their shifts at a real lambda, their
compressions onto a real frame (dgesdd), check_conditions' eigvals(A^*),
and a truncation study's probes at a real z.  The
choice is read off the matrix; a complex input is factored as before.
The references below force the helper's matrices complex, as every
factorization was before.  With the SVDs alone forced, the report bytes
and root spaces agree to roundoff; with every factorization forced, the
verdicts, multiplicities and Segre characteristics are the same,
kappa_v agrees to 1e-12 relative, and a real input's cluster values
are closed under conjugation bit for bit.  The route guards count the
float64 and complex128 calls each route makes.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    ReportDocument,
    Tolerance,
    biorthonormalize,
    check_conditions,
    generate,
    matrix_digest,
    point_spectrum,
    read_matrix,
    root_space,
    subspace_angle,
    truncation_study,
)
from biortho import spectral
from biortho.spectral import _clustered
from conftest import Calls

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)
FLOAT, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)

CASES = (
    [pytest.param(str(p), tol, id="%s-%g" % (p.name, tol.cluster_eps)) for p in CORPUS for tol in (DEFAULT, WIDE)]
    + [
        pytest.param(FamilySpec("shift_trunc", 48), DEFAULT, id="shift48"),
        pytest.param(FamilySpec("jordan", 32, {"eigenvalue": 0j, "segre": (16, 8, 4, 2, 1, 1)}), DEFAULT,
                     id="jordan32"),
        pytest.param(FamilySpec("weighted_shift_trunc", 6, {"ratio": 0.9}), DEFAULT, id="wshift6"),
    ]
)


def _jordan_similarity(length, n=12, seed=0):
    # a Jordan block of the given length at 2.0 beside simple 3, 4, ..., under a real orthogonal similarity
    j = np.diag(np.r_[np.full(length, 2.0), 3.0 + np.arange(n - length)]) + np.diag(
        np.r_[np.ones(length - 1), np.zeros(n - length)], 1)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q @ j @ q.T


def _real9():
    # tests/test_frame.py's real A: S J S^-1 with a real Gaussian S
    j = np.zeros((9, 9))
    for lo, width, lam in ((0, 2, 0.0), (2, 1, 0.0), (3, 1, 1.0), (4, 3, 2.0), (7, 1, 3.0), (8, 1, 3.0)):
        j[lo:lo + width, lo:lo + width] = lam * np.eye(width) + np.eye(width, k=1)
    s = np.random.default_rng(9).standard_normal((9, 9))
    return s @ j @ np.linalg.inv(s)


# real inputs whose defective eigenvalue is real but comes out of a dense similarity
SIMILAR = [pytest.param(_jordan_similarity(length), length + 1, id="jordan%d-at-2" % length)
           for length in (3, 4, 5)] + [pytest.param(_real9(), 8, id="real9")]


def _source(source):
    if isinstance(source, str):
        return read_matrix(source)
    return source if isinstance(source, np.ndarray) else generate(source)


def _forced_complex(*solvers):
    """spectral._lapack, with the matrices of the given solvers (of every solver when none) factored as complex."""
    lapack = spectral._lapack

    def forced(solver, m, lam=None, **options):
        if solvers and solver not in solvers:
            return lapack(solver, m, lam, **options)
        return solver(m.astype(complex), **options)

    return forced


def _diagnose(a, tol):
    spectrum = point_spectrum(a, tol)
    roots = [root_space(a, c, tol) for c in spectrum.clusters]
    doc = ReportDocument.from_diagnosis(check_conditions(a, tol), tol, matrix_digest(a)).to_json()
    return roots, doc


@pytest.mark.parametrize("source, tol", CASES)
def test_real_svds_match_the_complex_route(source, tol, monkeypatch):
    a = _source(source)
    roots, doc = _diagnose(a, tol)
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_lapack", _forced_complex(np.linalg.svd))
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
    assert set(calls.dtypes["svd"]) == {FLOAT}


# route guards


@pytest.mark.parametrize("n", [8, 32])
def test_a_real_input_takes_real_eigs_on_both_sides(n, monkeypatch):
    a = generate(FamilySpec("random_gaussian", n, {}, 1)).real
    with monkeypatch.context() as patched:
        calls = Calls(patched)
        check_conditions(a)
    # eig(A), whose dual basis gives the certified left blocks, and the
    # adjoint spectrum's eigvals(A^*)
    assert calls.dtypes["eig"] == [FLOAT] and calls.dtypes["eigvals"] == [FLOAT]
    with monkeypatch.context() as patched:
        calls = Calls(patched)
        biorthonormalize(a)
    assert calls.dtypes["eig"] == [FLOAT] and calls.dtypes["eigvals"] == []


@pytest.mark.parametrize("spec", [FamilySpec("shift_trunc", 16), FamilySpec("jordan", 6, {"eigenvalue": 2.0})],
                         ids=["shift16", "jordan6"])
def test_a_one_cluster_real_input_takes_a_real_adjoint_eigvals(spec, monkeypatch):
    a = generate(spec)
    assert a.dtype == COMPLEX
    calls = Calls(monkeypatch)
    check_conditions(a)
    assert calls.dtypes["eig"] == [FLOAT] and calls.dtypes["eigvals"] == [FLOAT]


def test_a_real_study_probes_in_real_arithmetic(monkeypatch):
    sizes, grid = (8, 12), (0.5, 0.9)
    expected = []
    for n in sizes:
        with monkeypatch.context() as patched:
            calls = Calls(patched)
            check_conditions(generate(FamilySpec("shift_trunc", n)))
        assert calls.dtypes["eig"] == calls.dtypes["eigvals"] == [FLOAT]
        # each size's diagnosis, then its probes
        expected += calls.dtypes["svd"] + [FLOAT] * len(grid)
    calls = Calls(monkeypatch)
    study = truncation_study(FamilySpec("shift_trunc", 2), sizes, probe_grid=grid)
    assert calls.dtypes["svd"] == expected
    assert calls.dtypes["eig"] == calls.dtypes["eigvals"] == [FLOAT] * len(sizes)
    for n, metrics in zip(sizes, study.metrics):
        shifted = [generate(FamilySpec("shift_trunc", n)) - z * np.eye(n) for z in grid]
        reference = [np.linalg.svd(m.astype(complex), compute_uv=False)[-1] for m in shifted]
        assert metrics.sigma_min == pytest.approx(reference, rel=1e-12)


def test_a_complex_input_stays_complex(monkeypatch):
    a = generate(FamilySpec("random_gaussian", 16, {}, 1))
    calls = Calls(monkeypatch)
    check_conditions(a)
    biorthonormalize(a)
    truncation_study(FamilySpec("random_gaussian", 2, {}, 1), (6, 8), probe_grid=(0.5,))
    # check_conditions' eig and eigvals, biorthonormalize's eig, and an
    # eig and an eigvals per study size
    assert len(calls.dtypes["eig"]) == 4 and len(calls.dtypes["eigvals"]) == 3 and len(calls.dtypes["svd"]) > 4
    assert {d for ds in calls.dtypes.values() for d in ds} == {COMPLEX}


@pytest.mark.parametrize("a, svds", SIMILAR)
def test_a_real_defective_cluster_gets_a_real_centroid_and_real_svds(a, svds, monkeypatch):
    calls = Calls(monkeypatch)
    spectrum = point_spectrum(a, WIDE)
    (value,) = [v for v in spectrum.values() if abs(v - 2.0) < 0.1]
    assert value.imag == 0.0
    # every level and left split of the climbs, framed or not
    assert calls.dtypes["svd"] == [FLOAT] * svds
    assert calls.dtypes["eig"] == [FLOAT] * 2


def test_a_group_closed_under_conjugation_keeps_a_real_centroid():
    rng = np.random.default_rng(1)
    pairs = 2.0 + 1e-3 * (rng.standard_normal(7) + 1j * rng.standard_normal(7))
    # one real value, then conjugate pairs side by side, as dgeev lists them
    values = np.r_[2.0 + 1e-3 * rng.standard_normal(1), np.column_stack([pairs, pairs.conj()]).ravel()]
    # the summation's rounding leaves an imaginary part on the mean
    assert values.mean().imag != 0.0
    centroids, _, members = _clustered(values, WIDE)
    assert len(members) == 1 and centroids[0] == values.mean().real
    # two groups, each the other's conjugate, keep their means, exact conjugates
    centroids, _, members = _clustered(np.r_[values + 1j, values.conj() - 1j], WIDE)
    assert members.widths.tolist() == [15, 15]
    assert centroids[0] == (values + 1j).mean() and centroids[1] == centroids[0].conjugate()


# the real route against the route forced complex

REAL = (
    [pytest.param(str(p), tol, id="%s-%g" % (p.name, tol.cluster_eps)) for p in CORPUS for tol in (DEFAULT, WIDE)]
    + [pytest.param(spec, DEFAULT, id=name) for name, spec in (
        ("jordan-segre321-at-2", FamilySpec("jordan", 6, {"eigenvalue": 2.0, "segre": (3, 2, 1)})),
        ("diag8", FamilySpec("diag", 8)),
        ("shift16", FamilySpec("shift_trunc", 16)),
        ("wshift8", FamilySpec("weighted_shift_trunc", 8, {"ratio": 0.9})),
    )]
    + [pytest.param(generate(FamilySpec("random_gaussian", n, {}, 1)).real, DEFAULT, id="real-gaussian%d" % n)
       for n in (8, 32, 64)]
    + [pytest.param(p.values[0], WIDE, id=p.id) for p in SIMILAR]
)


def _outcome(a, tol):
    report = check_conditions(a, tol)
    ps = report.spectrum
    segres = [root_space(a, c, tol, ps).segre for c in ps.clusters]
    verdicts = ([v.status for v in report.conditions], report.normality.properties, report.diagonalizable,
                report.biorthonormal_basis_exists, report.sigma_set)
    multiplicities = ps._algebraic.tolist(), ps._right.widths.tolist(), ps._left.widths.tolist()
    return report, verdicts, multiplicities, segres


@pytest.mark.parametrize("source, tol", REAL)
def test_the_real_route_matches_the_route_forced_complex(source, tol, monkeypatch):
    a = _source(source)
    report, *decided = _outcome(a, tol)
    with monkeypatch.context() as patched:
        patched.setattr(spectral, "_lapack", _forced_complex())
        ref, *ref_decided = _outcome(a, tol)
    assert decided == ref_decided
    assert report.kappa_v == pytest.approx(ref.kappa_v, rel=1e-12, abs=0.0)
    assert report.residual_identity_angle <= 1e-10
    if not np.asarray(a).imag.any():
        values = report.spectrum.values()
        assert np.array_equal(np.sort(values), np.sort(values.conj()))
