"""The simple-cluster fast path against the SVD route it replaces.

A cluster with one raw eigenvalue takes its right kernel from eig(A) and
its left kernel from eig(A^*), each certified by its residual; the
references here are the SVD kernels of the shifted matrix and its
adjoint, which every cluster took before and which the fallback still
takes.  The SVD route itself, kernel_split, is checked against a
reference that takes the 2-norm collapse test, the null space and the
complement of the range each on its own.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    Subspace,
    Tolerance,
    check_conditions,
    complement,
    generate,
    phase_normalize,
    point_spectrum,
    read_matrix,
    residual_identity_check,
    root_space,
    skew_link_check,
    subspace_angle,
)
from biortho import conditions
from biortho.spectral import kernel_split
from conftest import Calls, count_norm2

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()


def _svd_null(m, floor, tol):
    # the SVD null space with the rank cutoff anchored to the shift's |lambda|
    _, s, vh = np.linalg.svd(m)
    rank = np.count_nonzero(s > tol.rank_eps * max(float(s[0]), floor) * m.shape[0])
    return Subspace(m.shape[0], phase_normalize(vh[rank:].conj().T))


def _svd_kernels(a, c, tol=DEFAULT):
    shifted = a - c.value * np.eye(a.shape[0])
    return (_svd_null(shifted, abs(c.value), tol),
            _svd_null(shifted.conj().T, abs(c.value), tol))


def _reference_split(m, lam, scatter, tol):
    """Ran(m - lam I)-perp and Ker(m - lam I), each decided on its own.

    A 2-norm at or below the cluster's resolution makes both spaces
    everything; otherwise the range and the null space take the rank
    cutoff anchored to |lam|, and Ran-perp is the range's complement.
    """
    n = m.shape[0]
    shifted = m - lam * np.eye(n)
    if np.linalg.norm(shifted, 2) <= 1.25 * scatter + tol.rank_eps * n * abs(lam):
        full = Subspace(n, np.eye(n, dtype=complex))
        return full, full
    u, s, _ = np.linalg.svd(shifted)
    rank = np.count_nonzero(s > tol.rank_eps * max(float(s[0]), abs(lam)) * n)
    return complement(Subspace(n, phase_normalize(u[:, :rank])), tol), _svd_null(shifted, abs(lam), tol)


GENERIC = [
    pytest.param(FamilySpec(family, n, {}, seed), id="%s%d" % (family, n))
    for family, seed in (("random_gaussian", 3), ("random_normal", 4))
    for n in (4, 16, 48)
]


@pytest.mark.parametrize("spec", GENERIC)
def test_fast_kernels_match_svd_kernels_without_an_svd(spec, monkeypatch):
    a = generate(spec)
    calls = Calls(monkeypatch)
    ps = point_spectrum(a)
    assert calls.shapes["svd"] == []
    assert calls.shapes["eig"] == [(spec.size, spec.size)] * 2
    monkeypatch.undo()
    assert len(ps.clusters) == spec.size
    for c in ps.clusters:
        right, left = _svd_kernels(a, c)
        assert subspace_angle(c.right_kernel, right) <= 1e-10
        assert subspace_angle(c.left_kernel, left) <= 1e-10


@pytest.mark.parametrize("tol", [DEFAULT, Tolerance(cluster_eps=1e-2)], ids=["default", "wide"])
@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_corpus_kernels_match_svd_kernels(path, tol):
    a = read_matrix(str(path))
    for c in point_spectrum(a, tol).clusters:
        right, left = _svd_kernels(a, c, tol)
        assert subspace_angle(c.right_kernel, right) <= 1e-10
        assert subspace_angle(c.left_kernel, left) <= 1e-10


MIXED = FamilySpec("block_jordan", 5, {"blocks": ((0.0, (1, 1)), (1.0, (1,)), (2.0, (1,)), (3.0, (1,))),
                                        "cond": 10.0}, 8)


def _spoil_lean(values, vectors):
    # lean the vector at 1 towards the one at 2; with a multiple cluster
    # present no refinement runs, so the lean stays
    k = int(np.abs(values - 1.0).argmin())
    vectors[:, k] += 1e-6 * vectors[:, int(np.abs(values - 2.0).argmin())]
    return values[k]


def _spoil_duplicate(values, vectors):
    # a copy of another eigenvector: V is singular, so no refinement can
    # repair it, and its residual is of the size of the eigenvalue gap
    vectors[:, 0] = vectors[:, 1]
    return values[0]


@pytest.mark.parametrize("side", [0, 1], ids=["right", "left"])
@pytest.mark.parametrize("spec, spoil", [(MIXED, _spoil_lean),
                                         (FamilySpec("random_gaussian", 6, {}, 8), _spoil_duplicate)],
                         ids=["lean-mixed", "duplicate-generic"])
def test_failed_certificate_falls_back_to_svd_route(spec, spoil, side, monkeypatch):
    a = generate(spec)
    reference = point_spectrum(a)
    eig = np.linalg.eig
    spoiled = []

    def perturbed(m):
        values, vectors = eig(m)
        if len(spoiled) == side:
            vectors = vectors.copy()
            value = spoil(values, vectors)
            spoiled.append(value if side == 0 else np.conj(value))
        else:
            spoiled.append(None)
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", perturbed)
    ps = point_spectrum(a)
    monkeypatch.undo()
    target = min(range(len(ps.clusters)), key=lambda i: abs(ps.clusters[i].value - spoiled[side]))
    assert ps.clusters[target].algebraic_multiplicity == 1
    for i, (c, ref) in enumerate(zip(ps.clusters, reference.clusters)):
        if i == target:
            right, left = _svd_kernels(a, c)
            assert np.array_equal(c.right_kernel.basis, right.basis)
            assert np.array_equal(c.left_kernel.basis, left.basis)
        else:
            assert subspace_angle(c.right_kernel, ref.right_kernel) <= 1e-10
            assert subspace_angle(c.left_kernel, ref.left_kernel) <= 1e-10


def test_refinement_takes_off_the_lean_towards_near_eigenvectors():
    # eig's vectors of a normal matrix are orthogonal only to about
    # eps ||A|| / gap times a modest multiple; after one correction they
    # are as orthogonal as the SVD null vectors
    a = generate(FamilySpec("random_normal", 48, {}, 10))
    v = np.hstack([c.right_kernel.basis for c in point_spectrum(a).clusters])
    assert np.linalg.norm(v.conj().T @ v - np.eye(48), 2) <= 4 * 48 * np.finfo(float).eps


def test_full_size_svds_do_not_grow_with_the_cluster_count(monkeypatch):
    for n in (16, 32):
        a = generate(FamilySpec("random_gaussian", n, {}, 2))
        calls = Calls(monkeypatch)
        linked = []

        def counted_link(s1, s2, tol, cluster_index):
            linked.append(cluster_index)
            return skew_link_check(s1, s2, tol, cluster_index)

        monkeypatch.setattr(conditions, "skew_link_check", counted_link)
        report = check_conditions(a)
        monkeypatch.undo()
        # one SVD of V gives C4's span and kappa_v, one of W the adjoint
        # span; C4' reuses both, since every root space is a kernel
        assert calls.square("svd", n) == 2
        # eig(A) and eig(A^*) serve the clusters and C1/C3' alike
        assert calls.square("eig", n) == 2 and calls.shapes["eigvals"] == []
        # one skew link per cluster: C2' takes C2's instead of judging again
        assert linked == list(range(n)) == list(report.condition("C2'").witnesses)


def test_inputs_without_a_simple_cluster_gain_no_eigen_call(monkeypatch):
    a = generate(FamilySpec("jordan", 4, {"eigenvalue": 0.0, "segre": (3, 1)}))
    calls = Calls(monkeypatch)
    check_conditions(a)
    assert len(calls.shapes["eig"]) + len(calls.shapes["eigvals"]) == 2


def test_simple_root_space_takes_its_kernels_without_an_svd(monkeypatch):
    a = generate(FamilySpec("random_gaussian", 8, {}, 6))
    ps = point_spectrum(a)
    calls = Calls(monkeypatch)
    for c in ps.clusters:
        rs = root_space(a, c)
        assert (rs.staircase, rs.height, rs.segre) == ((1,), 1, (1,))
        assert rs.space is c.right_kernel and rs.adjoint_space is c.left_kernel
    assert calls.shapes["svd"] == []


def test_semi_simple_staircase_stops_at_its_first_level(monkeypatch):
    spec = FamilySpec("block_jordan", 6, {"blocks": ((0.0, (1, 1)), (1.0, (1, 1, 1)), (2.0, (1,))),
                                           "cond": 10.0}, 3)
    a = generate(spec)
    tol = Tolerance(cluster_eps=1e-2)
    ps = point_spectrum(a, tol)
    calls = Calls(monkeypatch)
    got = {}
    for c in ps.clusters:
        rs = root_space(a, c, tol)
        got[round(c.value.real)] = (rs.staircase, rs.height, rs.segre)
        assert rs.space is c.right_kernel and rs.adjoint_space is c.left_kernel
    assert got == {0: ((2,), 1, (1, 1)), 1: ((3,), 1, (1, 1, 1)), 2: ((1,), 1, (1,))}
    # every cluster is semi-simple on both sides, so its kernels are its
    # root spaces and no staircase level runs
    assert calls.shapes["svd"] == []


@pytest.mark.parametrize("source", [str(p) for p in CORPUS] + [FamilySpec("random_gaussian", 24, {}, 7)],
                         ids=[p.name for p in CORPUS] + ["gaussian24"])
def test_residual_identity_routes_agree(source):
    a = read_matrix(source) if isinstance(source, str) else generate(source)
    ps = point_spectrum(a)
    report = check_conditions(a)
    # an infinite kappa_v sends every cluster down the range-space SVD route
    by_svd = residual_identity_check(a, ps, kappa_v=float("inf"))
    assert report.residual_identity_angle <= 1e-10
    assert by_svd <= 1e-10


def test_residual_identity_through_the_inverse_catches_a_wrong_left_kernel():
    a = generate(FamilySpec("random_gaussian", 5, {}, 9))
    ps = point_spectrum(a)
    assert residual_identity_check(a, ps) <= 1e-10
    # the inverse of V knows nothing of the left kernels, so swapping one
    # for the right kernel of the same (oblique) cluster must show
    bad = list(ps.clusters)
    bad[2] = dataclasses.replace(bad[2], left_kernel=bad[2].right_kernel)
    wrong = dataclasses.replace(ps, clusters=tuple(bad))
    assert residual_identity_check(a, wrong) == pytest.approx(
        subspace_angle(ps.clusters[2].left_kernel, ps.clusters[2].right_kernel), rel=1e-6)


def _under_unitary(m):
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    return q @ m @ q.conj().T


def _near_scalar():
    j = 3.0 * np.eye(4)
    j[0, 1] = 1e-6
    return _under_unitary(j)


# inputs whose one cluster is zero at its own resolution: a - lam I is
# pure cancellation noise, or smaller than the merged scatter
COLLAPSED = {
    "scalar-unitary": _under_unitary(3.0 * np.eye(4)),
    "coincident": np.diag([1.0, 1.0 + 1e-15]),
    "tiny": np.diag([0.0, 1e-12]),
}
# noise plus a 1e-6 nilpotent part: only the cutoff anchored to |lam|
# keeps the noise out of the rank, for m_g = 3
EXTRA = dict(COLLAPSED, **{"near-scalar": _near_scalar()})
SPLIT_INPUTS = [pytest.param(str(p), tol, id="%s-%s" % (p.name, name))
                for p in CORPUS for name, tol in (("default", DEFAULT), ("wide", Tolerance(cluster_eps=1e-2)))]
SPLIT_INPUTS += [pytest.param(name, DEFAULT, id=name) for name in EXTRA]


@pytest.mark.parametrize("source, tol", SPLIT_INPUTS)
def test_kernel_split_matches_the_separate_decisions(source, tol):
    a = EXTRA[source] if source in EXTRA else read_matrix(source)
    for c in point_spectrum(a, tol).clusters:
        for m, lam in ((a, c.value), (a.conj().T, np.conj(c.value))):
            perp, kernel = kernel_split(m, lam, c.scatter, tol)
            ref_perp, ref_kernel = _reference_split(m, lam, c.scatter, tol)
            assert subspace_angle(kernel, ref_kernel) <= 1e-12
            assert subspace_angle(perp, ref_perp) <= 1e-12


@pytest.mark.parametrize("name", list(COLLAPSED))
def test_collapsed_cluster_takes_one_full_kernel_for_both_sides(name):
    a = COLLAPSED[name]
    (c,) = point_spectrum(a).clusters
    assert c.left_kernel is c.right_kernel
    assert c.right_kernel.dim == a.shape[0]
    # the full space is spanned by the identity itself, free of SVD
    # rounding, so the report's figures for it are exact
    assert np.array_equal(c.right_kernel.basis, np.eye(a.shape[0]))
    d = check_conditions(a)
    assert d.kappa_v == 1.0
    assert d.residual_identity_angle == 0.0


def test_one_svd_per_side_and_one_per_cluster_for_the_residual_identity(monkeypatch):
    spec = FamilySpec("block_jordan", 9, {"blocks": ((0.0, (2, 1)), (1.0, (1, 1)), (2.0, (3,)), (3.0, (1,))),
                                           "cond": 10.0}, 4)
    a = generate(spec)
    tol = Tolerance(cluster_eps=1e-2)
    calls = Calls(monkeypatch)
    norms = count_norm2(monkeypatch)
    ps = point_spectrum(a, tol)
    kinds = sorted((c.algebraic_multiplicity, c.geometric_multiplicity) for c in ps.clusters)
    assert kinds == [(1, 1), (2, 2), (3, 1), (3, 2)]
    # each multiple cluster: one SVD of A - lambda I and one of its
    # adjoint, with the collapse test read off the first; no 2-norm
    assert calls.square("svd", 9) == 2 * 3
    assert len(calls.shapes["svd"]) == 6 and norms == []

    calls = Calls(monkeypatch)
    norms = count_norm2(monkeypatch)
    # V is not square, so every cluster takes the SVD route
    assert residual_identity_check(a, ps, tol) <= 1e-10
    assert calls.square("svd", 9) == len(ps.clusters) == len(calls.shapes["svd"])
    # the only 2-norms are subspace_angle's, one per kernel of dimension 2
    assert sorted(norms) == [(9, 2), (9, 2)]
