import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    ClusteringError,
    EigenIterationError,
    EigenvalueCluster,
    FamilySpec,
    PointSpectrum,
    Subspace,
    Tolerance,
    generate,
    point_spectrum,
    subspace_angle,
)

from biortho.spectral import _clustered, _refined, _single_linkage_groups

from conftest import random_complex


def test_pt_dimer_eigenvalues_plus_minus_four_fifths():
    # closed form: eigenvalues +-sqrt(b^2 - a^2) = +-4/5 for a=3/5, b=1
    m = generate(FamilySpec("pt_dimer", 2, {"a": 0.6, "b": 1.0}))
    ps = point_spectrum(m)
    values = [c.value for c in ps.clusters]
    assert abs(values[0] - (-0.8)) < 1e-12
    assert abs(values[1] - 0.8) < 1e-12


def test_triangular_two_by_two_kernels():
    ps = point_spectrum([[1, 1], [0, 2]])
    assert [c.value for c in ps.clusters] == [pytest.approx(1.0), pytest.approx(2.0)]
    c1, c2 = ps.clusters
    assert (c1.algebraic_multiplicity, c1.geometric_multiplicity) == (1, 1)
    assert c1.semi_simple and c2.semi_simple
    # right kernels: e1 at 1, (1,1)/sqrt(2) at 2; left: (1,-1)/sqrt(2) and e2
    assert np.allclose(c1.right_kernel.basis[:, 0], [1, 0])
    assert np.allclose(c2.right_kernel.basis[:, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert np.allclose(c1.left_kernel.basis[:, 0], [1 / np.sqrt(2), -1 / np.sqrt(2)])
    assert np.allclose(np.abs(c2.left_kernel.basis[:, 0]), [0, 1])


def test_jordan_block_is_defective():
    ps = point_spectrum(generate(FamilySpec("jordan", 2, {"eigenvalue": 0.0, "segre": (2,)})))
    (c,) = ps.clusters
    assert c.algebraic_multiplicity == 2
    assert c.geometric_multiplicity == 1
    assert not c.semi_simple


def test_scalar_matrix_under_unitary_conjugation():
    # a - lam*I cancels to noise; the kernel must still come out full
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    ps = point_spectrum(q @ (3.0 * np.eye(4)) @ q.conj().T)
    (c,) = ps.clusters
    assert c.geometric_multiplicity == 4
    assert c.semi_simple


def test_unconverged_kernel_svd_is_a_typed_error(monkeypatch):
    svd = np.linalg.svd

    def failing(m, *args, **kwargs):
        if np.shape(m) == (2, 2):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    # a 2x2 Jordan block is one multiple cluster, so it takes the SVD route
    with pytest.raises(EigenIterationError, match="SVD did not converge"):
        point_spectrum([[0.0, 1.0], [0.0, 0.0]])


def test_cluster_radius_merges_and_splits():
    m = np.diag([1.0, 1.0 + 1e-6])
    assert len(point_spectrum(m).clusters) == 2
    loose = Tolerance(cluster_eps=1e-4)
    merged = point_spectrum(m, loose)
    assert len(merged.clusters) == 1
    assert merged.clusters[0].geometric_multiplicity == 2
    assert merged.clusters[0].scatter == pytest.approx(5e-7, rel=1e-3)


def test_merged_cluster_of_tiny_matrix_collapses_to_full_kernel():
    # both eigenvalues sit inside the default cluster radius, so at merge
    # resolution the matrix is indistinguishable from (5e-13) * I
    m = np.diag([0.0, 1e-12])
    ps = point_spectrum(m)
    assert len(ps.clusters) == 1
    c = ps.clusters[0]
    assert c.geometric_multiplicity == 2
    assert c.semi_simple
    assert c.right_kernel.dim == 2
    tight = Tolerance(cluster_eps=1e-13)
    assert len(point_spectrum(m, tight).clusters) == 2


def test_machine_coincident_eigenvalues_merge_cleanly():
    ps = point_spectrum(np.diag([1.0, 1.0 + 1e-15]))
    assert len(ps.clusters) == 1
    assert ps.clusters[0].geometric_multiplicity == 2


def test_inconsistent_merge_of_resolvable_eigenvalues_is_loud():
    # a loose cluster radius merges eigenvalues the rank rule still
    # distinguishes (the third eigenvalue keeps the shifted matrix large,
    # so no collapse applies) and the kernel comes out empty
    m = np.diag([1.0, 1.0 + 1e-6, 5.0])
    with pytest.raises(ClusteringError):
        point_spectrum(m, Tolerance(cluster_eps=1e-4))


def test_clusters_sorted_lexicographically():
    ps = point_spectrum(np.diag([1.0, -1.0, 1j, -1j]))
    values = [c.value for c in ps.clusters]
    assert values == sorted(values, key=lambda z: (z.real, z.imag))


def test_single_linkage_chains_across_radius():
    # 0, r*0.8, r*1.6 chain into one cluster even though the ends are
    # farther apart than the radius
    tol = Tolerance(cluster_eps=1e-8)
    m = np.diag([0.0, 0.8e-8, 1.6e-8])
    assert len(point_spectrum(m, tol).clusters) == 1


def _union_find_groups(values, radius):
    # reference: the pairwise union-find the vectorized grouping replaced
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    diff = np.abs(values[:, None] - values[None, :])
    for i in range(n):
        for j in range(i + 1, n):
            if diff[i, j] <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


@given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from([0.0, 0.05, 0.2, 0.6]))
@settings(max_examples=80, deadline=None)
def test_single_linkage_matches_union_find(seed, n, radius):
    rng = np.random.default_rng(seed)
    # coarse grid points put many pairs exactly at the radius
    values = (rng.integers(0, 6, n) + 1j * rng.integers(0, 6, n)) * 0.2 if seed % 2 else (
        rng.uniform(0, 1, n) + 1j * rng.uniform(0, 1, n))
    assert [g.tolist() for g in _single_linkage_groups(values, radius)] == _union_find_groups(values, radius)


def test_single_linkage_chains_in_scrambled_order():
    # a long chain, visited out of order, joins into one group only through
    # many hops; a second chain breaks where one link is just past the radius
    rng = np.random.default_rng(3)
    chain = np.arange(30) * 0.5 + 0j
    broken = 100.0 + np.concatenate([np.arange(10) * 0.5, 5.0 + 1e-9 + np.arange(10) * 0.5]) + 0j
    values = np.concatenate([chain, broken])[rng.permutation(50)]
    groups = _single_linkage_groups(values, 0.5)
    assert [g.tolist() for g in groups] == _union_find_groups(values, 0.5)
    assert sorted(len(g) for g in groups) == [10, 10, 30]
    assert len(_single_linkage_groups(values, 0.4999)) == 50


@given(st.integers(0, 10_000), st.integers(1, 40), st.sampled_from([1e-8, 0.05, 0.3]))
@settings(max_examples=80, deadline=None)
def test_group_centroids_are_the_member_means_bit_for_bit(seed, n, cluster_eps):
    # a singleton takes its value without a reduction; it must be the mean
    # of that one value exactly, with scatter 0
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    centroids, scatters, members = _clustered(values, Tolerance(cluster_eps=cluster_eps))
    for lam, scatter, idx in zip(centroids.tolist(), scatters.tolist(), members):
        mean = complex(values[idx].mean())
        assert (lam.real, lam.imag) == (mean.real, mean.imag)
        assert np.signbit([lam.real, lam.imag]).tolist() == np.signbit([mean.real, mean.imag]).tolist()
        assert scatter == (float(np.abs(values[idx] - mean).max()) if len(idx) > 1 else 0.0)


@given(st.integers(0, 200), st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_multiplicities_partition_dimension(seed, n):
    ps = point_spectrum(random_complex(n, None, seed))
    assert sum(c.algebraic_multiplicity for c in ps.clusters) == n
    for c in ps.clusters:
        assert 1 <= c.geometric_multiplicity <= c.algebraic_multiplicity


@given(st.integers(0, 200), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_left_right_kernel_dimensions_agree(seed, n):
    # rank(M) = rank(M^*) forces equal kernel dimensions
    for c in point_spectrum(random_complex(n, None, seed)).clusters:
        assert c.right_kernel.dim == c.left_kernel.dim


@given(st.integers(0, 200), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_adjoint_spectrum_is_conjugate(seed, n):
    a = random_complex(n, None, seed)
    ps = point_spectrum(a)
    aps = point_spectrum(a.conj().T)
    mine = np.sort_complex(np.array([c.value for c in ps.clusters]))
    theirs = np.sort_complex(np.conj([c.value for c in aps.clusters]))
    assert len(mine) == len(theirs)
    assert np.abs(mine - theirs).max() <= Tolerance().cluster_radius(ps.values())


def test_adjoint_swaps_kernels():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    ps = point_spectrum(a)
    aps = point_spectrum(a.conj().T)
    for c in ps.clusters:
        partner = min(aps.clusters, key=lambda d: abs(d.value - c.value.conjugate()))
        assert subspace_angle(c.left_kernel, partner.right_kernel) < 1e-10
        assert subspace_angle(c.right_kernel, partner.left_kernel) < 1e-10


def test_eigvec_matrix_shape_and_phases():
    ps = point_spectrum([[1, 1], [0, 2]])
    v = np.hstack([c.right_kernel.basis for c in ps.clusters])
    assert v.shape == (2, 2)
    assert np.allclose(np.linalg.norm(v, axis=0), 1.0)
    for j in range(2):
        lead = v[np.argmax(np.abs(v[:, j]) > 1e-8), j]
        assert lead.real > 0 and abs(lead.imag) < 1e-14
    # defective matrix gives a thin eigenvector matrix
    thin = np.hstack([c.right_kernel.basis for c in point_spectrum([[0, 1], [0, 0]]).clusters])
    assert thin.shape == (2, 1)


def test_point_spectrum_requires_square():
    with pytest.raises(ValueError):
        point_spectrum(np.ones((2, 3)))


def test_cluster_invariant_enforced():
    basis2 = np.eye(2, dtype=complex)
    with pytest.raises(ClusteringError):
        EigenvalueCluster(
            value=0.0,
            algebraic_multiplicity=1,
            right_kernel=Subspace(2, basis2),
            left_kernel=Subspace(2, basis2),
        )


@pytest.mark.parametrize("width, semi_simple", [
    (2, True),    # a kernel of dimension 2 at m_a = 2
    (1, False),   # a kernel of dimension 1 at m_a = 2
])
def test_a_cluster_reads_its_multiplicities_off_its_kernel(width, semi_simple):
    # m_g and semi-simplicity are the right kernel's, so no argument can contradict them
    basis = np.eye(3, dtype=complex)[:, :width]
    c = EigenvalueCluster(
        value=0.0,
        algebraic_multiplicity=2,
        right_kernel=Subspace(3, basis),
        left_kernel=Subspace(3, basis),
    )
    assert c.geometric_multiplicity == width
    assert c.semi_simple is semi_simple


def test_a_missing_spectrum_attribute_is_an_attribute_error_on_both_routes():
    # point_spectrum builds the clusters when first read; a spectrum built from
    # its clusters has them at once.  Neither makes up any other attribute,
    # which copy and pickle probe on a bare instance
    computed = point_spectrum(random_complex(5, None, 8))
    for ps in (computed, PointSpectrum(5, computed.clusters)):
        with pytest.raises(AttributeError):
            ps.no_such_field
        assert len(ps.clusters) == 5
        with pytest.raises(AttributeError):
            ps.no_such_field
        for twin in (copy.copy(ps), pickle.loads(pickle.dumps(ps))):
            assert twin == ps


def test_refined_leaves_the_vectors_when_they_are_singular():
    # one correction needs V^-1; a singular V keeps eig's vectors as they are
    vectors = np.ones((2, 2), dtype=complex)
    assert _refined(np.eye(2, dtype=complex), np.array([1.0, 2.0]), vectors) is vectors


def test_spectrum_determinism():
    a = random_complex(6, None, 3)
    p1 = point_spectrum(a)
    p2 = point_spectrum(a)
    assert [c.value for c in p1.clusters] == [c.value for c in p2.clusters]
    for c1, c2 in zip(p1.clusters, p2.clusters):
        assert np.array_equal(c1.right_kernel.basis, c2.right_kernel.basis)
