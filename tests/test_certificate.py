"""The eig certificate for multiple clusters, against the SVD route it replaces.

A cluster of m raw eigenvalues in an input with more than one cluster
takes its right kernel from its members' eig(A) columns and its left
kernel from the eig(A^*) columns at the m nearest conjugate eigenvalues,
each block orthonormalized and certified by ||(A - lambda I) Q||_F.  The
references here are kernel_split's kernels of the shifted matrix and of
its adjoint, which every multiple cluster took before and which a
failed certificate still takes.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import FamilySpec, Tolerance, check_conditions, generate, point_spectrum, read_matrix, subspace_angle
from biortho.spectral import kernel_split
from conftest import Calls

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


@pytest.mark.parametrize("side", [0, 1], ids=["right", "left"])
def test_parallel_eig_columns_send_a_double_eigenvalue_down_the_svd_route(side, monkeypatch):
    a = SEMI_SIMPLE["diag11223"]
    reference = check_conditions(a)
    eig = np.linalg.eig
    calls = []

    def spoiled(m):
        values, vectors = eig(m)
        if len(calls) == side:
            # the two columns at the double eigenvalue near 1 made equal
            i, j = np.flatnonzero(np.abs(values - 1.0) < 1e-6)
            vectors = vectors.copy()
            vectors[:, j] = vectors[:, i]
        calls.append(m.shape)
        return values, vectors

    monkeypatch.setattr(np.linalg, "eig", spoiled)
    report = check_conditions(a)
    monkeypatch.undo()
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
    # eigenvectors; the SVD route would add two per cluster
    assert calls.square("svd", n) == 2
    assert calls.square("eig", n) == 2 and calls.shapes["eigvals"] == []
