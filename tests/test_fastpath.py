"""The eig certificate of simple clusters against the SVD route it replaces.

A cluster with one raw eigenvalue takes its right kernel from eig(A) and
its left kernel from V's dual basis V^-*, or from eig(A^*) once some
block fails, each certified by its residual, as every cluster of an
input with more than one cluster does (test_certificate covers the
multiple ones); the references here are the SVD kernels of the shifted
matrix and its adjoint, which every cluster took before and which the
fallback still takes.  The SVD route itself, kernel_split, is checked against a
reference that takes the 2-norm collapse test, the null space and the
complement of the range each on its own.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    biorthonormalize,
    Subspace,
    Tolerance,
    check_conditions,
    generate,
    phase_normalize,
    point_spectrum,
    read_matrix,
    residual_identity_check,
    root_space,
    subspace_angle,
)
from biortho import biorthogonal, conditions, linalg, rootspace, spectral
from biortho.spectral import kernel_split
from conftest import Calls, Spoiled, count_norm2

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)
# clusters with (m_a, m_g) = (3, 2), (2, 2), (3, 1) and one simple one
SMALL_MIXED = FamilySpec("block_jordan", 9, {"blocks": ((0.0, (2, 1)), (1.0, (1, 1)), (2.0, (3,)), (3.0, (1,))),
                                             "cond": 10.0}, 4)


def _svd_null(m, floor, tol):
    # the SVD null space with the rank cutoff anchored to the shift's |lambda|
    _, s, vh = np.linalg.svd(m)
    rank = np.count_nonzero(s > tol.rank_eps * max(float(s[0]), floor) * m.shape[0])
    return Subspace(m.shape[1], phase_normalize(vh[rank:].conj().T))


def _svd_kernels(a, c, tol=DEFAULT):
    shifted = a - c.value * np.eye(a.shape[0])
    return (_svd_null(shifted, abs(c.value), tol),
            _svd_null(shifted.conj().T, abs(c.value), tol))


def _reference_split(m, lam, scatter, tol):
    """Ran(m - lam I)-perp and Ker(m - lam I), each decided on its own.

    A 2-norm at or below the cluster's resolution makes both spaces
    everything; otherwise the range and the null space take the rank
    cutoff anchored to |lam|, and Ran-perp is the null space of the
    range basis' adjoint.
    """
    n = m.shape[0]
    shifted = m - lam * np.eye(n)
    if np.linalg.norm(shifted, 2) <= 1.25 * scatter + tol.rank_eps * n * abs(lam):
        full = Subspace(n, np.eye(n, dtype=complex))
        return full, full
    u, s, _ = np.linalg.svd(shifted)
    rank = np.count_nonzero(s > tol.rank_eps * max(float(s[0]), abs(lam)) * n)
    return _svd_null(u[:, :rank].conj().T, 0.0, tol), _svd_null(shifted, abs(lam), tol)


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
    # every block certifies, so the left ones come from V's dual basis and
    # no eig(A^*) runs
    assert calls.shapes["eig"] == [(spec.size, spec.size)] and calls.shapes["eigvals"] == []
    assert ps.adjoint_eigenvalues is None
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
    # the column at the smallest real part a copy of the next one's: a
    # copied eigenvector leaves V singular, so no refinement can repair it,
    # and either copy's residual is of the size of the eigenvalue gap
    k, j = np.argsort(values.real)[:2]
    vectors[:, k] = vectors[:, j]
    return values[k]


@pytest.mark.parametrize("side", ["right", "left"])
@pytest.mark.parametrize("spec, spoil", [(MIXED, _spoil_lean),
                                         (FamilySpec("random_gaussian", 6, {}, 8), _spoil_duplicate)],
                         ids=["lean-mixed", "duplicate-generic"])
def test_failed_certificate_falls_back_to_svd_route(spec, spoil, side, monkeypatch):
    a = generate(spec)
    n = spec.size
    reference = point_spectrum(a)
    # a failing block on either side sends the diagnosis to eig(A^*), where
    # the left one fails again; the construction climbs a failing dual
    # block at once
    routes = [(False, [(n, n)] * 2)] + ([(True, [(n, n)])] if side == "left" else [])
    for construction, eigs in routes:
        with monkeypatch.context() as patched:
            spoiled = Spoiled(patched, side, spoil)
            ps = point_spectrum(a, _construction=construction)
        assert spoiled.eigs == eigs
        target = min(range(len(ps.clusters)), key=lambda i: abs(ps.clusters[i].value - spoiled.value))
        assert ps.clusters[target].algebraic_multiplicity == 1
        for i, (c, ref) in enumerate(zip(ps.clusters, reference.clusters)):
            if i == target:
                right, left = _svd_kernels(a, c)
                # the climb's level 1 and the left split run on A and A^* compressed
                # past the certified clusters, so they agree with the full-size
                # kernels up to rounding
                assert c.climb is not None
                assert c.right_kernel.dim == right.dim and subspace_angle(c.right_kernel, right) <= 1e-10
                assert c.left_kernel.dim == left.dim and subspace_angle(c.left_kernel, left) <= 1e-10
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


def _recorded(monkeypatch, names):
    """Calls of the named functions, in every biortho module that holds them, as (name, first argument)."""
    record = []
    for module in (linalg, spectral, rootspace, biorthogonal, conditions):
        for name in names:
            original = getattr(module, name, None)
            if original is not None:
                def wrapped(*args, name=name, original=original, **kwargs):
                    record.append((name, args[0]))
                    return original(*args, **kwargs)
                monkeypatch.setattr(module, name, wrapped)
    return record


def test_full_size_svds_do_not_grow_with_the_cluster_count(monkeypatch):
    for n in (16, 32):
        a = generate(FamilySpec("random_gaussian", n, {}, 2))
        calls = Calls(monkeypatch)
        record = _recorded(monkeypatch, ("subspace_pairs", "subspace_angle", "skew_link_check", "condition_number"))
        built = _residual_identity_subspaces(monkeypatch)
        report = check_conditions(a)
        monkeypatch.undo()
        # one SVD of V gives C4's span and kappa_v, one of W the adjoint
        # span; C4' reuses both, since every root space is a kernel
        assert calls.square("svd", n) == 2
        # eig(A) and its dual basis serve the clusters, and one eigvals(A^*)
        # gives C1 and C3' their independent adjoint spectrum
        assert calls.square("eig", n) == 1 and calls.shapes["eigvals"] == [(n, n)]
        # one pairing of the kernels gives the sigma set and the C2 links, and
        # the residual identity pairs all n clusters in one more call; each
        # takes one batched SVD of its (1, 1) cross-Grams and leak Grams.  No
        # cluster climbs, so C2' pairs none
        assert [(name, len(firsts)) for name, firsts in record] == [("subspace_pairs", k) for k in (n, 0, n)]
        assert calls.shapes["svd"].count((2 * n, 1, 1)) == 2 and len(calls.shapes["svd"]) == 4
        # the residual perps travel as arrays
        assert built == [0]
        # C2' takes C2's links instead of judging again
        assert [link.cluster_index for link in report.skew_links] == list(range(n))
        assert list(report.condition("C2'").witnesses) == list(range(n))


def test_per_cluster_steps_take_one_call_per_diagnosis(monkeypatch):
    # all-simple inputs: the same calls at n = 16 and 32, none per cluster
    for n in (16, 32):
        a = generate(FamilySpec("random_gaussian", n, {}, 2))
        ps = point_spectrum(a)
        with monkeypatch.context() as patched:
            record = _recorded(patched, ("phase_normalize", "subspace_pairs"))
            calls = Calls(patched, names=("solve", "qr"))
            check_conditions(a)
        # one phase_normalize per side of the certificate; one pairing each
        # for the kernels, C2' and the residual identity
        assert [name for name, _ in record] == ["phase_normalize"] * 2 + ["subspace_pairs"] * 3
        # V's refinement, its dual basis V^-* and the residual identity's
        # (R^*)^-1; no QR,
        # since every block is a single column
        assert calls.shapes == {"solve": [(n, n)] * 3, "qr": []}
        with monkeypatch.context() as patched:
            construction = Calls(patched, names=("solve",))
            biorthonormalize(a, ps)
        # one stacked solve of all n 1 x 1 cross-Grams builds the system
        assert construction.shapes["solve"] == [(n, 1, 1)]


def test_a_whole_space_root_pair_is_not_paired(monkeypatch):
    # one cluster climbs to all of C^n on both sides: its root spaces are
    # one space, at angle 0, so C2' pairs nothing
    a = generate(FamilySpec("jordan", 12, {"eigenvalue": 0.0, "segre": (8, 4)}))
    record = _recorded(monkeypatch, ("subspace_pairs",))
    report = check_conditions(a)
    (c,) = report.spectrum.clusters
    assert not c.kernels_are_root_spaces and c.algebraic_multiplicity == 12
    assert [len(firsts) for _, firsts in record] == [1, 0, 1]
    assert report.condition("C2'").status == "VACUOUS"


def test_a_whole_space_root_pair_is_told_by_its_dimension(monkeypatch):
    # C2' leaves out a root space of all of C^n by its dimension, not because
    # the climb hands back one Subspace for both sides: with a copy of each,
    # a truncated shift still pairs no 64 x 64 bases
    n = 64
    a = generate(FamilySpec("shift_trunc", n, {}))
    original, copied = spectral._climb, []

    def copies(*args, **kwargs):
        right, left, climb = original(*args, **kwargs)
        copied.append(climb.space.dim)
        return right, left, dataclasses.replace(climb, space=Subspace(n, climb.space.basis.copy()),
                                                adjoint_space=Subspace(n, climb.adjoint_space.basis.copy()))

    monkeypatch.setattr(spectral, "_climb", copies)
    record = _recorded(monkeypatch, ("subspace_pairs",))
    report = check_conditions(a)
    assert copied == [n]
    # the kernel pairing, C2' and the residual identity
    assert [firsts.widths.tolist() for _, firsts in record] == [[1], [], [1]]
    assert report.condition("C2'").status == "VACUOUS"


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
    # without root spaces every certified cluster takes its own split
    by_svd = residual_identity_check(a, ps)
    assert report.residual_identity_angle <= 1e-10
    assert by_svd <= 1e-10


def test_residual_identity_through_the_inverse_catches_a_wrong_left_kernel():
    a = generate(FamilySpec("random_gaussian", 5, {}, 9))
    ps = point_spectrum(a)
    # every kernel is a root space, so the root bases are V itself
    assert ps._roots[0] is ps._right
    assert residual_identity_check(a, ps, roots_span=True) <= 1e-10
    # the inverse of V knows nothing of the left kernels, so swapping one
    # for the right kernel of the same (oblique) cluster must show
    bad = list(ps.clusters)
    bad[2] = dataclasses.replace(bad[2], left_kernel=bad[2].right_kernel)
    wrong = dataclasses.replace(ps, clusters=tuple(bad))
    assert residual_identity_check(a, wrong, roots_span=True) == pytest.approx(
        subspace_angle(ps.clusters[2].left_kernel, ps.clusters[2].right_kernel), rel=1e-6)


def test_residual_identity_through_the_root_bases_catches_a_wrong_left_kernel():
    # V is not square here; the stacked root bases R stand in for it, and
    # R^-1 knows nothing of the left kernels either
    a = generate(SMALL_MIXED)
    ps = point_spectrum(a, WIDE)
    assert np.hstack([c.right_kernel.basis for c in ps.clusters]).shape[1] < 9
    assert ps._roots[0].matrix.shape == (9, 9)
    assert residual_identity_check(a, ps, WIDE, roots_span=True) <= 1e-10
    # the simple cluster and the semi-simple (2, 2) one are certified
    certified = [i for i, c in enumerate(ps.clusters) if c.range_perp is None]
    assert sorted(ps.clusters[i].algebraic_multiplicity for i in certified) == [1, 2]
    for i in certified:
        bad = list(ps.clusters)
        bad[i] = dataclasses.replace(bad[i], left_kernel=bad[i].right_kernel)
        wrong = dataclasses.replace(ps, clusters=tuple(bad))
        assert residual_identity_check(a, wrong, WIDE, roots_span=True) == pytest.approx(
            subspace_angle(ps.clusters[i].left_kernel, ps.clusters[i].right_kernel), rel=1e-6)


@pytest.mark.parametrize("cond", [10.0, 100.0])
def test_residual_identity_through_the_root_bases_agrees_with_the_splits(cond):
    # 28 blocks at 0, 1, ..., 27 cycling through four Segre patterns, n = 63
    blocks = tuple((float(k), ((2, 1), (1,), (3,), (1, 1))[k % 4]) for k in range(28))
    a = generate(FamilySpec("block_jordan", 63, {"blocks": blocks, "cond": cond}, 5))
    report = check_conditions(a, WIDE)
    ps = report.spectrum
    assert np.hstack([c.right_kernel.basis for c in ps.clusters]).shape[1] < 63 and report.condition("C4'").status == "PASS"
    # the 7 simple and the 7 semi-simple (1, 1) clusters are certified
    assert sum(c.range_perp is None for c in ps.clusters) == 14
    # the reference takes every cluster's Ran-perp from its own split
    by_split = max(subspace_angle(kernel_split(a, c.value, c.scatter, WIDE)[0], c.left_kernel)
                   for c in ps.clusters)
    assert report.residual_identity_angle <= 1e-10
    assert by_split <= 1e-10


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
    # the full space is spanned by the identity itself, free of SVD
    # rounding, so the report's figures for it are exact
    assert np.array_equal(c.right_kernel.basis, np.eye(a.shape[0]))
    assert np.array_equal(c.left_kernel.basis, np.eye(a.shape[0]))
    d = check_conditions(a)
    assert d.kappa_v == 1.0
    assert d.residual_identity_angle == 0.0


def test_one_svd_per_side_and_the_residual_identity_reuses_the_splits(monkeypatch):
    a = generate(SMALL_MIXED)
    tol = WIDE
    calls = Calls(monkeypatch)
    norms = count_norm2(monkeypatch)
    ps = point_spectrum(a, tol)
    kinds = sorted((c.algebraic_multiplicity, c.geometric_multiplicity) for c in ps.clusters)
    assert kinds == [(1, 1), (2, 2), (3, 1), (3, 2)]
    # the simple and the semi-simple (2, 2) cluster are certified from eig,
    # and no SVD is 9 x 9.  The first defective cluster to climb climbs A
    # compressed past them, n_d = 9 - 3: level 1, which gives its right
    # kernel and Ran-perp, one SVD of the compressed A^* for its left kernel,
    # and one per further level at n_d - d_k until the trailing block is
    # nonsingular.  The second climbs past the first as well, at n_d = 3,
    # which its root space fills, so no SVD finds its top.  The (3, 2)
    # cluster climbs (2, 3), the (3, 1) one (1, 2, 3); no 2-norm
    assert calls.shapes["svd"] in (
        [(6, 6), (6, 6), (5, 5), (4, 4), (3, 3)] + [(3, 3), (3, 3), (1, 1)],
        [(6, 6), (6, 6), (4, 4), (3, 3)] + [(3, 3), (3, 3), (2, 2), (1, 1)])
    assert norms == []
    assert sorted(c.climb.levels for c in ps.clusters if c.climb is not None) == [(1, 2, 3), (2, 3)]

    calls = Calls(monkeypatch, names=("svd", "solve"))
    norms = count_norm2(monkeypatch)
    # the defective clusters read the Ran-perp their climb kept, and with
    # no root spaces given each certified cluster takes one SVD.  Then one
    # batched SVD per shape pairs the perps with the left kernels: the
    # (3, 2) and (2, 2) clusters' 2 x 2 cross-Grams and leak Grams, and the
    # (3, 1) and (1, 1) clusters' 1 x 1 ones; no 2-norm runs
    assert residual_identity_check(a, ps, tol) <= 1e-10
    assert calls.shapes == {"svd": [(9, 9), (9, 9), (4, 2, 2), (4, 1, 1)], "solve": []}
    assert norms == []

    # inside check_conditions the root bases R span, so the certified
    # clusters read their blocks of R^-* from one solve, and no SVD runs
    # but the pairing's
    inner = _residual_identity_calls(monkeypatch)
    assert check_conditions(a, tol).residual_identity_angle <= 1e-10
    assert inner == [{"svd": [(4, 2, 2), (4, 1, 1)], "solve": [(9, 9)]}]


def test_simple_clusters_take_their_own_splits_where_the_root_bases_do_not_span(monkeypatch):
    # two simple eigenvalues +-1e-6 whose eigenvectors are parallel at
    # rank_eps 1e-6: V = R is square but does not span
    tol = Tolerance(rank_eps=1e-6)
    inner = _residual_identity_calls(monkeypatch)
    report = check_conditions(np.array([[0.0, 1.0], [1e-12, 0.0]]), tol)
    assert report.condition("C4'").status == "FAIL" and report.kappa_v == float("inf")
    assert report.residual_identity_angle <= 1e-10
    # one split per cluster, then one batched SVD pairs both clusters
    assert inner == [{"svd": [(2, 2), (2, 2), (4, 1, 1)], "solve": []}]


def _residual_identity_calls(monkeypatch):
    """SVD and solve shapes taken inside each residual_identity_check that check_conditions makes."""
    inner = []
    original = conditions.residual_identity_check

    def counted(*args, **kwargs):
        with monkeypatch.context() as patched:
            calls = Calls(patched, names=("svd", "solve"))
            angle = original(*args, **kwargs)
        inner.append(calls.shapes)
        return angle

    monkeypatch.setattr(conditions, "residual_identity_check", counted)
    return inner


def _residual_identity_subspaces(monkeypatch):
    """How many Subspace objects each residual_identity_check that check_conditions makes builds."""
    built = []
    original = conditions.residual_identity_check
    check = Subspace.__post_init__

    def counted(*args, **kwargs):
        count = [0]

        def post_init(self):
            count[0] += 1
            check(self)

        with monkeypatch.context() as patched:
            patched.setattr(Subspace, "__post_init__", post_init)
            angle = original(*args, **kwargs)
        built.append(count[0])
        return angle

    monkeypatch.setattr(conditions, "residual_identity_check", counted)
    return built
