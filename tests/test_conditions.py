from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    FAIL,
    PASS,
    STRUCTURAL_NOTES,
    VACUOUS,
    FamilySpec,
    Tolerance,
    check_conditions,
    generate,
    point_spectrum,
    read_matrix,
    residual_identity_check,
    sigma_set,
    span_report,
)

from conftest import Calls, random_complex

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))


@pytest.fixture(scope="module")
def skew_report():
    return check_conditions(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@pytest.fixture(scope="module")
def triangular_report():
    return check_conditions(np.array([[1.0, 1.0], [0.0, 2.0]]))


@pytest.fixture(scope="module")
def nilpotent_report():
    return check_conditions(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_normal_matrix_all_conditions_pass(skew_report):
    r = skew_report
    assert r.sigma_set == ()
    for cid in ("C1", "C3", "C4", "C3'", "C4'"):
        assert r.condition(cid).status == PASS
    # nothing distinguishes left from right kernels, so there is nothing
    # for the skew checks to decide
    assert r.condition("C2").status == VACUOUS
    assert r.condition("C2'").status == VACUOUS
    assert r.diagonalizable
    assert r.biorthonormal_basis_exists
    assert r.kappa_v == pytest.approx(1.0, abs=1e-10)


def test_normal_matrix_normality_report(skew_report):
    nr = skew_report.normality
    assert nr.is_normal
    assert nr.commutator_norm == 0.0
    assert set(nr.properties) == {"a", "b", "c", "d", "e"}
    assert all(v == PASS for v in nr.properties.values())


def test_triangular_sigma_set_is_both_clusters(triangular_report):
    assert triangular_report.sigma_set == (0, 1)


def test_triangular_skew_passes_despite_oblique_kernels(triangular_report):
    c2 = triangular_report.condition("C2")
    assert c2.status == PASS
    assert c2.witnesses == (0, 1)
    for cid in ("C1", "C3", "C4", "C3'", "C4'"):
        assert triangular_report.condition(cid).status == PASS
    assert triangular_report.biorthonormal_basis_exists
    # [e1 | (1,1)/sqrt(2)] has condition number 1 + sqrt(2)
    assert triangular_report.kappa_v == pytest.approx(1.0 + np.sqrt(2.0), rel=1e-10)


def test_triangular_normality_report(triangular_report):
    nr = triangular_report.normality
    assert not nr.is_normal
    # [A, A*] = [[1,1],[1,-1]] elementwise for this matrix
    assert nr.commutator_norm == pytest.approx(2.0, rel=1e-12)
    assert nr.properties["a"] == FAIL
    assert nr.properties["b"] == PASS
    assert nr.properties["c"] == PASS
    assert nr.properties["d"] == PASS
    assert nr.properties["e"] == FAIL


def test_nilpotent_block_diagnosis(nilpotent_report):
    r = nilpotent_report
    assert r.sigma_set == (0,)
    assert r.condition("C1").status == PASS
    c2 = r.condition("C2")
    assert c2.status == FAIL
    assert c2.witnesses == (0,)
    assert r.condition("C3").status == PASS
    assert r.condition("C4").status == FAIL
    assert r.condition("C4").witnesses == (0,)
    # the root subspace is everything on both sides
    assert r.condition("C3'").status == PASS
    assert r.condition("C4'").status == PASS
    assert r.condition("C2'").status == VACUOUS
    assert not r.diagonalizable
    assert not r.biorthonormal_basis_exists
    assert r.kappa_v == float("inf")
    nr = r.normality
    assert not nr.is_normal
    assert nr.properties["a"] == PASS
    assert nr.properties["b"] == FAIL
    assert nr.properties["d"] == FAIL
    assert nr.properties["e"] == FAIL


def test_exceptional_point_fails_skew_linkage():
    r = check_conditions(generate(FamilySpec("ep_family", 2, {"t": 0.0})))
    assert r.condition("C2").status == FAIL
    assert not r.biorthonormal_basis_exists
    assert not r.diagonalizable
    assert r.kappa_v == float("inf")


def test_near_exceptional_point_passes_with_large_kappa():
    r = check_conditions(generate(FamilySpec("ep_family", 2, {"t": 0.01})))
    assert r.biorthonormal_basis_exists
    assert r.condition("C2").status in (PASS, VACUOUS)
    assert r.kappa_v > 10.0


def test_existence_iff_diagonalizable_with_finite_kappa():
    mats = [random_complex(2 + s % 5, None, s) for s in range(25)]
    mats.append(generate(FamilySpec("jordan", 3, {"eigenvalue": 1.0, "segre": (2, 1)})))
    mats.append(generate(FamilySpec("ep_family", 2, {"t": 0.0})))
    mats.append(generate(FamilySpec("shift_trunc", 5, {})))
    mats.append(generate(FamilySpec("random_normal", 6, {}, seed=7)))
    for a in mats:
        r = check_conditions(a)
        assert r.biorthonormal_basis_exists == (
            r.diagonalizable and np.isfinite(r.kappa_v)
        )


@given(st.integers(0, 120))
@settings(max_examples=25, deadline=None)
def test_random_matrices_pass_everything(seed):
    r = check_conditions(random_complex(2 + seed % 6, None, seed))
    for cid in ("C1", "C3", "C4", "C3'", "C4'"):
        assert r.condition(cid).status == PASS
    assert r.condition("C2").status in (PASS, VACUOUS)
    assert r.condition("C2'").status in (PASS, VACUOUS)
    assert r.biorthonormal_basis_exists
    assert r.residual_identity_angle <= 1e-7


def test_normality_is_scale_invariant():
    base = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for s in (1e-6, 1.0, 1e6):
        assert check_conditions(s * base).normality.is_normal
    skewed = np.array([[1.0, 1.0], [0.0, 2.0]])
    for s in (1e-3, 1.0, 1e6):
        assert not check_conditions(s * skewed).normality.is_normal


def test_sigma_set_direct():
    assert sigma_set(point_spectrum(np.diag([1.0, 2.0, 3.0]))) == ()
    assert sigma_set(point_spectrum([[1, 1], [0, 2]])) == (0, 1)


def test_residual_identity_small_for_collapsed_cluster():
    # both eigenvalues merge and the whole shifted matrix collapses, so
    # the empty range's complement must equal the full left kernel
    assert residual_identity_check(np.diag([0.0, 1e-12])) <= 1e-10


def test_residual_identity_small_for_random(rng):
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert residual_identity_check(a) <= 1e-8


def test_condition_lookup_raises_on_unknown_id(skew_report):
    with pytest.raises(KeyError):
        skew_report.condition("C9")


def test_structural_notes_are_fixed():
    assert len(STRUCTURAL_NOTES) == 2
    assert all("finite dimensions" in note for note in STRUCTURAL_NOTES)


def test_check_conditions_rejects_non_square():
    with pytest.raises(ValueError):
        check_conditions(np.ones((2, 3)))


def test_verdict_details_name_witnesses(nilpotent_report):
    c2 = nilpotent_report.condition("C2")
    assert "0" in c2.detail
    c4 = nilpotent_report.condition("C4")
    assert "1/2" in c4.detail


def _pairwise_overlap_marks(report, tol):
    # reference: mark (a) from one 2-norm per pair of clusters, as before
    # the single Gram; marks (b)-(e) are read straight off the report
    clusters = report.spectrum.clusters
    overlap = 0.0
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            cross = clusters[i].right_kernel.basis.conj().T @ clusters[j].right_kernel.basis
            overlap = max(overlap, float(np.linalg.norm(cross, 2)))
    return PASS if overlap <= 10.0 * tol.residual_eps else FAIL


def _unitary(n, seed):
    q, _ = np.linalg.qr(random_complex(n, None, seed))
    return q


NORMALITY_CASES = (
    [pytest.param(str(p), Tolerance(), id=p.name) for p in CORPUS]
    + [pytest.param(str(p), Tolerance(cluster_eps=1e-2), id=p.name + "-wide") for p in CORPUS]
    + [
        pytest.param(random_complex(7, None, 31), Tolerance(), id="gaussian7"),
        pytest.param(generate(FamilySpec("random_normal", 9, {}, 32)), Tolerance(), id="normal9"),
        pytest.param(_unitary(3, 33) @ np.diag([1.0, 1.0, 2.0]) @ _unitary(3, 33).conj().T,
                     Tolerance(), id="diag112-unitary"),
        pytest.param(generate(FamilySpec("block_jordan", 7, {"blocks": ((0.0, (1, 1)), (1.0, (1, 1, 1)),
                                                                       (2.0, (1,)), (3.0, (1,))),
                                                            "cond": 10.0}, 34)),
                     Tolerance(cluster_eps=1e-2), id="semi-simple-oblique"),
        # only blocks larger than 1x1 can fail mark (a) in these two
        pytest.param(generate(FamilySpec("block_jordan", 5, {"blocks": ((0.0, (1, 1)), (1.0, (1, 1, 1))),
                                                            "cond": 10.0}, 35)),
                     Tolerance(cluster_eps=1e-2), id="multiple-clusters-only"),
        pytest.param(random_complex(3, None, 36) @ np.diag([1.0, 1.0, 2.0])
                     @ np.linalg.inv(random_complex(3, None, 36)), Tolerance(), id="diag112-similar"),
    ]
)


@pytest.mark.parametrize("source, tol", NORMALITY_CASES)
def test_normality_mark_a_from_one_gram_matches_pairwise_norms(source, tol):
    a = read_matrix(source) if isinstance(source, str) else source
    report = check_conditions(a, tol)
    assert report.normality.properties["a"] == _pairwise_overlap_marks(report, tol)


def _obtuse(c=0.4):
    # unit eigenvectors at inner products -c: the Gram I - c(J - I) has
    # eigenvalues 1 - 2c and 1 + c twice, so sigma_min decides the defect 2c
    w, q = np.linalg.eigh((1.0 + c) * np.eye(3) - c * np.ones((3, 3)))
    v = (q * np.sqrt(w)) @ q.T
    return v @ np.diag([1.0, 2.0, 3.0]) @ np.linalg.inv(v)


SEMI_SIMPLE_DOUBLES = tuple((float(k), (1, 1)) for k in range(24))
# the normality cases cover the corpus at both radii, Gaussians, a random
# normal and semi-simple block_jordans; these add larger and short-V inputs
GRAM_CASES = NORMALITY_CASES + (
    [pytest.param(random_complex(40, None, 41), Tolerance(), id="gaussian40")]
    + [pytest.param(generate(FamilySpec("random_normal", 24, {}, 41)), Tolerance(), id="normal24")]
    + [
        pytest.param(_obtuse(), Tolerance(), id="obtuse-eigenvectors"),
        pytest.param(generate(FamilySpec("block_jordan", 24, {"blocks": SEMI_SIMPLE_DOUBLES[:12], "cond": 30.0}, 42)),
                     Tolerance(cluster_eps=1e-2), id="semi-simple-block-jordan"),
        pytest.param(generate(FamilySpec("block_jordan", 13, {"blocks": ((0.0, (2, 1)), (1.0, (3,)), (2.0, (1, 1)),
                                                                        (3.0, (1,)), (4.0, (2, 2))),
                                                             "cond": 10.0}, 43)),
                     Tolerance(cluster_eps=1e-2), id="defective-block-jordan"),
    ]
)


@pytest.mark.parametrize("source, tol", GRAM_CASES)
def test_eigen_gram_defect_is_the_norm_of_the_gram_minus_identity(source, tol, request):
    a = read_matrix(source) if isinstance(source, str) else source
    ps = point_spectrum(a, tol)
    v = np.hstack([c.right_kernel.basis for c in ps.clusters])
    assert v.shape[1] < a.shape[0] or "defective" not in request.node.callspec.id
    oracle = np.linalg.norm(v.conj().T @ v - np.eye(v.shape[1]), 2)
    assert abs(span_report(a, tol, spectrum=ps).eigen_gram_defect - oracle) <= 1e-12


def test_mark_a_takes_no_svd_of_gram_blocks(monkeypatch):
    # 24 certified double eigenvalues: mark (a) reads the singular values of
    # V that C4 takes, and no stack of the 276 off-diagonal 2 x 2 blocks of V^*V
    a = generate(FamilySpec("block_jordan", 48, {"blocks": SEMI_SIMPLE_DOUBLES, "cond": 30.0}, 44))
    calls = Calls(monkeypatch, names=("svd",))
    report = check_conditions(a, Tolerance(cluster_eps=1e-2))
    monkeypatch.undo()
    assert report.diagonalizable and all(c.climb is None for c in report.spectrum.clusters)
    # V and W for C4; the kernel pairing and the residual identity, each one
    # batched SVD of its 24 cross-Grams and 24 leak Grams
    assert sorted(calls.shapes["svd"]) == [(48, 2, 2), (48, 2, 2), (48, 48), (48, 48)]


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_the_sigma_set_is_the_reports(path):
    # check_conditions reads the sigma set off the kernel pairing it shares
    # with the C2 links; sigma_set pairs the kernels on its own
    a = read_matrix(str(path))
    report = check_conditions(a)
    assert report.sigma_set == sigma_set(report.spectrum)
