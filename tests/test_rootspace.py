import dataclasses

import numpy as np
import pytest

from biortho import (
    ClusteringError,
    FamilySpec,
    RootSpaceMismatchError,
    Subspace,
    Tolerance,
    generate,
    point_spectrum,
    root_space,
    span_report,
)

from biortho.rootspace import _segre_from_staircase
from conftest import random_complex

JORDAN_TOL = Tolerance(cluster_eps=1e-2)


def _single_cluster(m, tol=None):
    ps = point_spectrum(m) if tol is None else point_spectrum(m, tol)
    assert len(ps.clusters) == 1
    return ps.clusters[0]


def test_staircase_j3_plus_j1():
    # Ker((J)^k) dims: 2, 3, 4 -> height 3, blocks 3 and 1
    m = generate(FamilySpec("jordan", 4, {"eigenvalue": 0.0, "segre": (3, 1)}))
    rs = root_space(m, _single_cluster(m))
    assert rs.staircase == (2, 3, 4)
    assert rs.height == 3
    assert rs.segre == (3, 1)
    assert rs.space.dim == 4


def test_staircase_single_jordan_block():
    m = generate(FamilySpec("jordan", 2, {"eigenvalue": 0.0, "segre": (2,)}))
    rs = root_space(m, _single_cluster(m))
    assert rs.staircase == (1, 2)
    assert rs.height == 2
    assert rs.segre == (2,)


def test_semi_simple_cluster_stabilizes_immediately():
    m = np.diag([1.0, 2.0, 3.0]).astype(complex)
    ps = point_spectrum(m)
    for c in ps.clusters:
        rs = root_space(m, c)
        assert rs.staircase == (1,)
        assert rs.height == 1
        assert rs.segre == (1,)


def test_scalar_matrix_root_space_is_everything():
    m = 2.5 * np.eye(3, dtype=complex)
    rs = root_space(m, _single_cluster(m))
    assert rs.staircase == (3,)
    assert rs.height == 1
    assert rs.segre == (1, 1, 1)


def test_segre_recovery_under_similarity():
    spec = FamilySpec(
        "block_jordan", 5,
        {"blocks": ((1.0, (2, 1)), (-1.0, (2,))), "cond": 50.0},
        seed=7,
    )
    m = generate(spec)
    ps = point_spectrum(m, JORDAN_TOL)
    got = {}
    for c in ps.clusters:
        rs = root_space(m, c, JORDAN_TOL)
        got[round(c.value.real)] = rs.segre
    assert got == {1: (2, 1), -1: (2,)}


def test_partition_identities():
    # sum(segre) = m_a, len(segre) = m_g, max(segre) = height
    for seed in range(5):
        rng = np.random.default_rng(seed)
        sizes = tuple(sorted(rng.integers(1, 4, size=rng.integers(1, 4)), reverse=True))
        n = int(sum(sizes))
        m = generate(FamilySpec("jordan", n, {"eigenvalue": 1j, "segre": sizes}))
        c = _single_cluster(m)
        rs = root_space(m, c)
        assert rs.segre == sizes
        assert sum(rs.segre) == c.algebraic_multiplicity
        assert len(rs.segre) == c.geometric_multiplicity
        assert max(rs.segre) == rs.height
        diffs = np.diff((0,) + rs.staircase)
        assert all(d > 0 for d in diffs)
        assert all(a >= b for a, b in zip(diffs, diffs[1:]))


def test_root_space_contains_eigenvectors_and_is_invariant():
    m = random_complex(6, None, 42)
    ps = point_spectrum(m)
    for c in ps.clusters:
        rs = root_space(m, c)
        p = rs.space.basis @ rs.space.basis.conj().T
        leak = np.linalg.norm((np.eye(6) - p) @ c.right_kernel.basis)
        assert leak < 1e-8
        image = m @ rs.space.basis
        assert np.linalg.norm((np.eye(6) - p) @ image) < 1e-8 * np.linalg.norm(m, 2)


def test_mismatch_against_cluster_multiplicity():
    m = np.diag([0.0, 1.0]).astype(complex)
    ps = point_spectrum(m)
    wrong = ps.clusters[0].__class__(
        value=ps.clusters[0].value,
        algebraic_multiplicity=2,
        right_kernel=ps.clusters[0].right_kernel,
        left_kernel=ps.clusters[0].left_kernel,
    )
    with pytest.raises(RootSpaceMismatchError) as err:
        root_space(m, wrong)
    assert err.value.stabilized_dim == 1
    assert err.value.algebraic_multiplicity == 2


def test_only_kernels_of_full_dimension_on_both_sides_are_root_spaces():
    # a left kernel that disagrees with m_a is no root space of A^*, so
    # the cluster climbs the staircase, which finds the adjoint's own
    m = np.diag([0.0, 1.0]).astype(complex)
    c = point_spectrum(m).clusters[0]
    assert c.kernels_are_root_spaces
    lost = dataclasses.replace(c, left_kernel=Subspace(2, np.zeros((2, 0), dtype=complex)))
    assert not lost.kernels_are_root_spaces
    rs = root_space(m, lost)
    assert rs.staircase == (1,) and rs.space.dim == rs.adjoint_space.dim == 1
    assert abs(rs.adjoint_space.basis[0, 0]) == pytest.approx(1.0)


def test_span_report_oracles():
    # defective: eigenvectors span 1 of 2, root vectors everything
    sr = span_report(np.array([[0, 1], [0, 0]], dtype=complex))
    assert (sr.eigen_span_dim, sr.root_span_dim, sr.ambient_dim) == (1, 2, 2)
    sr = span_report(np.array([[1, 1], [0, 2]], dtype=complex))
    assert (sr.eigen_span_dim, sr.root_span_dim) == (2, 2)


def test_span_report_generic_full():
    m = random_complex(5, None, 9)
    sr = span_report(m)
    assert sr.eigen_span_dim == 5
    assert sr.root_span_dim == 5


def test_span_report_reuses_precomputed_spectrum():
    m = random_complex(4, None, 17)
    ps = point_spectrum(m)
    sr = span_report(m, spectrum=ps)
    assert sr == span_report(m)


def test_segre_is_the_conjugate_of_the_weyr_characteristic():
    # every partition of m <= 7: its staircase d_k = sum(min(s, k)) gives it back
    def partitions(m, top):
        if m == 0:
            yield ()
        for first in range(min(m, top), 0, -1):
            for rest in partitions(m - first, first):
                yield (first,) + rest

    for m in range(1, 8):
        for segre in partitions(m, m):
            staircase = [sum(min(s, k) for s in segre) for k in range(1, segre[0] + 1)]
            got = _segre_from_staircase(staircase, 0j)
            assert got == segre and all(type(k) is int for k in got)
    with pytest.raises(ClusteringError, match="increasing steps"):
        _segre_from_staircase([1, 3], 0j)


def test_root_space_of_a_non_square_matrix_is_refused():
    # a cluster whose kernels are not its root spaces, climbed anew without its spectrum
    a = generate(FamilySpec("jordan", 3, {"eigenvalue": 0.0, "segre": (3,)}))
    (c,) = point_spectrum(a).clusters
    assert not c.kernels_are_root_spaces
    with pytest.raises(ValueError, match="square"):
        root_space(np.ones((3, 4)), c)
