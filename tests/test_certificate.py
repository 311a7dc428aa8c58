"""The eig certificate for multiple clusters, against the SVD route it replaces.

A cluster of m raw eigenvalues in an input with more than one cluster
takes its right kernel from its members' eig(A) columns and its left
kernel from the same members' columns of V^-*, V the eig(A) vectors,
each block orthonormalized and certified by ||(A - lambda I) Q||_F.  The
references here are kernel_split's kernels of the shifted matrix and of
its adjoint, which every multiple cluster took before and which a
failed certificate still takes.  A diagnosis keeps the dual left blocks
only when every block certifies, and otherwise takes the eig(A^*)
columns at the m nearest conjugate eigenvalues; a construction
(biorthonormalize) always keeps them, and runs eig(A^*) only when the
solve raises.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import (EigenvectorSpanError, FamilySpec, SkewLinkFailureError, Tolerance, biorthonormalize,
                     check_conditions, generate, point_spectrum, read_matrix, subspace_angle)
from biortho.spectral import kernel_split
from conftest import Calls, Spoiled

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)


def _pairs(count):
    return tuple((float(k), (1, 1)) for k in range(count))


def _triples(count):
    return tuple((float(k), (1, 1, 1)) for k in range(count))


def _under_unitary(m, seed=11):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape))
    return q @ m @ q.conj().T


def _block_jordan(blocks, n, cond, seed=6):
    return generate(FamilySpec("block_jordan", n, {"blocks": blocks, "cond": cond}, seed))


SEMI_SIMPLE = {
    "pairs-cond%g" % cond: _block_jordan(_pairs(8), 16, cond) for cond in (10.0, 100.0)
}
SEMI_SIMPLE.update({
    "triples-cond%g" % cond: _block_jordan(_triples(5), 15, cond) for cond in (10.0, 100.0)
})
SEMI_SIMPLE["diag11223"] = _under_unitary(np.diag([1.0, 1.0, 2.0, 2.0, 3.0]).astype(complex))

# seven cycles of (2,1), (1), (3), (1,1) blocks at 0, 1, ..., 27: n = 63
MIXED = tuple((float(k), ((2, 1), (1,), (3,), (1, 1))[k % 4]) for k in range(28))

CASES = [pytest.param(str(p), tol, id="%s-%g" % (p.name, tol.cluster_eps)) for p in CORPUS for tol in (DEFAULT, WIDE)]
CASES += [pytest.param(name, WIDE, id=name) for name in SEMI_SIMPLE]


def _source(source):
    return SEMI_SIMPLE[source] if source in SEMI_SIMPLE else read_matrix(source)


def _certified_multiple(ps):
    return [c for c in ps.clusters if c.algebraic_multiplicity > 1 and c.range_perp is None]


@pytest.mark.parametrize("source, tol", CASES)
def test_certified_kernels_match_the_splits(source, tol):
    a = _source(source)
    ps = point_spectrum(a, tol)
    certified = _certified_multiple(ps)
    if source in SEMI_SIMPLE:
        # every multiple cluster of these inputs is semi-simple
        multiple = [c for c in ps.clusters if c.algebraic_multiplicity > 1]
        assert len(certified) == len(multiple) > 1
    for c in certified:
        assert c.semi_simple and c.kernels_are_root_spaces
        right = kernel_split(a, c.value, c.scatter, tol)[1]
        left = kernel_split(a.conj().T, np.conj(c.value), c.scatter, tol)[1]
        assert right.dim == left.dim == c.algebraic_multiplicity
        assert subspace_angle(c.right_kernel, right) <= 1e-10
        assert subspace_angle(c.left_kernel, left) <= 1e-10


def _verdicts(report):
    return ([(v.id, v.status, v.witnesses) for v in report.conditions], report.sigma_set,
            [(c.algebraic_multiplicity, c.geometric_multiplicity) for c in report.spectrum.clusters],
            report.normality.properties, report.biorthonormal_basis_exists)


def _parallel_at_one(values, vectors):
    # the two columns at the double eigenvalue near 1 made equal
    i, j = np.flatnonzero(np.abs(values - 1.0) < 1e-6)
    vectors[:, j] = vectors[:, i]
    return values[i]


@pytest.mark.parametrize("side", ["right", "left"])
def test_parallel_eig_columns_send_a_double_eigenvalue_down_the_svd_route(side, monkeypatch):
    a = SEMI_SIMPLE["diag11223"]
    reference = check_conditions(a)
    spoiled = Spoiled(monkeypatch, side, _parallel_at_one)
    report = check_conditions(a)
    monkeypatch.undo()
    # a failing block on either side sends the diagnosis to eig(A^*); on
    # the left its block fails too, as the dual one did
    assert spoiled.eigs == [(5, 5)] * 2 and report.spectrum.adjoint_eigenvalues is not None
    for c, ref in zip(report.spectrum.clusters, reference.spectrum.clusters):
        if abs(c.value - 1.0) < 1e-6:
            assert c.range_perp is not None
            right = kernel_split(a, c.value, c.scatter)[1]
            left = kernel_split(a.conj().T, np.conj(c.value), c.scatter)[1]
            # the climb's level 1 and the left split run on A and A^* compressed
            # past the certified clusters, so they agree with the full-size
            # splits up to rounding
            assert c.right_kernel.dim == right.dim and subspace_angle(c.right_kernel, right) <= 1e-10
            assert c.left_kernel.dim == left.dim and subspace_angle(c.left_kernel, left) <= 1e-10
        else:
            assert c.range_perp is None
        assert c.geometric_multiplicity == ref.geometric_multiplicity
        assert subspace_angle(c.right_kernel, ref.right_kernel) <= 1e-10
        assert subspace_angle(c.left_kernel, ref.left_kernel) <= 1e-10
    assert _verdicts(report) == _verdicts(reference)


DEFECTIVE = [pytest.param(str(p), tol, id="%s-%g" % (p.name, tol.cluster_eps)) for p in CORPUS for tol in (DEFAULT, WIDE)]
DEFECTIVE += [pytest.param(FamilySpec("block_jordan", 63, {"blocks": MIXED, "cond": cond}, 5), WIDE,
                           id="bj_mixed-cond%g" % cond) for cond in (10.0, 100.0)]


@pytest.mark.parametrize("source, tol", DEFECTIVE)
def test_no_defective_cluster_is_certified(source, tol):
    # defective by the SVD route: a kernel on either side short of m_a
    a = read_matrix(source) if isinstance(source, str) else generate(source)
    defective = 0
    for c in point_spectrum(a, tol).clusters:
        right = kernel_split(a, c.value, c.scatter, tol)[1]
        left = kernel_split(a.conj().T, np.conj(c.value), c.scatter, tol)[1]
        if min(right.dim, left.dim) < c.algebraic_multiplicity:
            defective += 1
            assert c.range_perp is not None
            assert (c.right_kernel.dim, c.left_kernel.dim) == (right.dim, left.dim)
    if not isinstance(source, str):
        # the (2, 1) and (3) clusters of each of the seven cycles
        assert defective == 14


@pytest.mark.parametrize("n", [32, 64])
def test_semi_simple_clusters_take_no_full_size_svd(n, monkeypatch):
    a = _block_jordan(_pairs(n // 2), n, 30.0, seed=n)
    calls = Calls(monkeypatch)
    report = check_conditions(a, WIDE)
    monkeypatch.undo()
    assert [c.algebraic_multiplicity for c in report.spectrum.clusters] == [2] * (n // 2)
    assert report.diagonalizable
    # the only n x n SVDs are span_report's, of V and of the left
    # eigenvectors; the SVD route would add two per cluster.  Every block
    # certifies, so the left ones come from V's dual basis and the adjoint
    # spectrum from one eigvals
    assert calls.square("svd", n) == 2
    assert calls.square("eig", n) == 1 and calls.shapes["eigvals"] == [(n, n)]


def test_a_construction_takes_one_eig_and_a_certified_diagnosis_one_eig_and_one_eigvals(monkeypatch):
    n = 48
    a = generate(FamilySpec("random_gaussian", n, {}, 0))
    with monkeypatch.context() as patched:
        calls = Calls(patched)
        biorthonormalize(a)
    # the left blocks come from one solve against V^*, not from eig(A^*)
    assert calls.shapes["eig"] == [(n, n)] and calls.shapes["eigvals"] == []
    assert point_spectrum(a, _construction=True).adjoint_eigenvalues is None
    with monkeypatch.context() as patched:
        calls = Calls(patched)
        report = check_conditions(a)
    # every block certifies, so the diagnosis takes the same dual left
    # blocks, and C1 and C3' compare against an independent adjoint
    # spectrum from one eigvals(A^*)
    assert calls.shapes["eig"] == [(n, n)] and calls.shapes["eigvals"] == [(n, n)]
    assert report.spectrum.adjoint_eigenvalues is None


# a Jordan block of size 4 at 0 beside simple 1..4, shifted by 1e3: it
# splits into simple clusters whose dual left blocks all fail, while the
# eigenvectors span 7 of 8 dimensions
JORDAN4 = ((0.0, (4,)),) + tuple((float(k), (1,)) for k in (1, 2, 3, 4))


@pytest.mark.parametrize("seed", [0, 1])
def test_dual_left_blocks_that_fail_climb_and_the_construction_refuses(seed, monkeypatch):
    a = generate(FamilySpec("block_jordan", 8, {"blocks": JORDAN4, "cond": 10.0}, seed)) + 1e3 * np.eye(8)
    with monkeypatch.context() as patched:
        calls = Calls(patched, names=("eig",))
        with pytest.raises(SkewLinkFailureError) as refusal:
            biorthonormalize(a)
    # the failing blocks take the climb, not eig(A^*)
    assert calls.shapes["eig"] == [(8, 8)]
    assert refusal.value.cluster_index == 4
    # the refusal agrees with the diagnosis's verdict (C1 and C4 FAIL)
    assert not check_conditions(a).biorthonormal_basis_exists


# every block of these certifies on both sides
CERTIFIED = {
    "gaussian48": (generate(FamilySpec("random_gaussian", 48, {}, 0)), DEFAULT),
    "normal32": (generate(FamilySpec("random_normal", 32, {}, 4)), DEFAULT),
    "pairs32-cond30": (_block_jordan(_pairs(16), 32, 30.0, seed=32), WIDE),
    "real-gaussian32": (generate(FamilySpec("random_gaussian", 32, {}, 1)).real, DEFAULT),
}


@pytest.mark.parametrize("name", CERTIFIED)
def test_a_certified_diagnosis_keeps_the_construction_s_dual_left_blocks(name, monkeypatch):
    a, tol = CERTIFIED[name]
    n = len(a)
    with monkeypatch.context() as patched:
        calls = Calls(patched)
        report = check_conditions(a, tol)
    assert calls.shapes["eig"] == [(n, n)] and calls.shapes["eigvals"] == [(n, n)]
    assert report.spectrum._climbed == {} and report.spectrum.adjoint_eigenvalues is None
    # the same solve of the same V: equal bit for bit, and so is the system
    # built on either spectrum
    assert np.array_equal(report.spectrum._left.matrix, point_spectrum(a, tol, _construction=True)._left.matrix)
    assert biorthonormalize(a, tol=tol) == biorthonormalize(a, report.spectrum, tol)


# some right block of these fails: the four simple clusters the shifted
# Jordan block splits into, and the (2, 1) and (3) clusters of the mixed input
FALLBACK = {"jordan4+1e3-seed%d" % seed: (
    generate(FamilySpec("block_jordan", 8, {"blocks": JORDAN4, "cond": 10.0}, seed)) + 1e3 * np.eye(8), DEFAULT)
    for seed in (0, 1)}
FALLBACK["mixed9"] = (generate(FamilySpec("block_jordan", 9, {
    "blocks": ((0.0, (2, 1)), (1.0, (1, 1)), (2.0, (3,)), (3.0, (1,))), "cond": 10.0}, 4)), WIDE)


@pytest.mark.parametrize("name", FALLBACK)
def test_a_diagnosis_with_a_failing_block_takes_eig_of_the_adjoint(name, monkeypatch):
    a, tol = FALLBACK[name]
    n = len(a)
    with monkeypatch.context() as patched:
        calls = Calls(patched)
        report = check_conditions(a, tol)
    # eig(A^*) gives both the left blocks and the adjoint spectrum, so no eigvals runs
    assert calls.shapes["eig"] == [(n, n)] * 2 and calls.shapes["eigvals"] == []
    assert report.spectrum.adjoint_eigenvalues is not None


@pytest.mark.parametrize("seed", [0, 1])
def test_a_given_spectrum_whose_eigenvectors_do_not_span_is_refused(seed):
    a = generate(FamilySpec("block_jordan", 8, {"blocks": JORDAN4, "cond": 10.0}, seed)) + 1e3 * np.eye(8)
    report = check_conditions(a)
    assert report.condition("C4").status == "FAIL" and not report.biorthonormal_basis_exists
    # eig(A^*)'s left blocks pair with V's, so only the span refuses, by C4's rule
    for spectrum in (report.spectrum, point_spectrum(a)):
        with pytest.raises(EigenvectorSpanError) as refusal:
            biorthonormalize(a, spectrum)
        s = np.linalg.svd(spectrum._right.matrix, compute_uv=False)
        cutoff = Tolerance().stacked_cutoff(s, (8, 8))
        assert (refusal.value.span, refusal.value.ambient_dim, refusal.value.cutoff) == (7, 8, cutoff)
        assert s[7] <= cutoff < s[6]
        assert "span 7 of 8 dimensions at rank cutoff %.3e" % cutoff in str(refusal.value)


def test_only_a_given_spectrum_takes_the_span_svd(monkeypatch):
    n = 16
    a = generate(FamilySpec("random_gaussian", n, {}, 2))
    spectrum = point_spectrum(a)
    with monkeypatch.context() as patched:
        calls = Calls(patched, names=("svd",))
        given = biorthonormalize(a, spectrum)
    assert calls.square("svd", n) == 1
    with monkeypatch.context() as patched:
        calls = Calls(patched, names=("svd",))
        biorthonormalize(a)
    assert calls.square("svd", n) == 0
    assert given.gram_residual <= 1e-12


def test_a_dual_solve_that_raises_sends_the_construction_to_eig_of_the_adjoint(monkeypatch):
    n = 16
    a = generate(FamilySpec("random_gaussian", n, {}, 4))
    solve = np.linalg.solve

    def singular(m, b):
        if np.ndim(b) == 2 and np.array_equal(b, np.eye(n)):
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(m, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    # the reference's left blocks come from eig(A^*): the diagnosis's dual
    # solve raises too, and it falls back
    spectrum = point_spectrum(a)
    assert spectrum.adjoint_eigenvalues is not None
    reference = biorthonormalize(a, spectrum)
    calls = Calls(monkeypatch, names=("eig",))
    assert biorthonormalize(a) == reference
    assert calls.shapes["eig"] == [(n, n)] * 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dual_left_blocks_stay_biorthogonal_under_a_large_shift(seed):
    # eig(A^*)'s vectors at c = 1e6 left a gram_residual of about 2e-9; the
    # dual basis is biorthogonal to V by construction
    n = 32
    a = generate(FamilySpec("random_gaussian", n, {}, seed)) + 1e6 * np.eye(n)
    system = biorthonormalize(a)
    assert system.gram_residual <= 1e-12
    assert np.linalg.norm(system.psi_matrix() @ system.chi_matrix().conj().T - np.eye(n), 2) <= 1e-12
