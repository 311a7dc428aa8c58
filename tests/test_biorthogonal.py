import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    BiorthonormalSystem,
    EigenvalueCluster,
    FamilySpec,
    IncompleteSystemError,
    NotDiagonalizableError,
    PointSpectrum,
    SkewLinkFailureError,
    Subspace,
    biorthonormalize,
    condition_number,
    expand,
    generate,
    point_spectrum,
    resolution_of_identity,
    skew_link_check,
)

from conftest import random_complex


def _span(*cols):
    basis = np.column_stack([np.asarray(c, dtype=complex) for c in cols])
    basis = basis / np.linalg.norm(basis, axis=0)
    return Subspace(basis.shape[0], basis)


def test_skew_link_identical_spans():
    v = skew_link_check(_span([1, 0]), _span([1, 0]))
    assert v.linked and v.defect_dim == 0
    assert v.self_orthogonality == pytest.approx(1.0)


def test_skew_link_orthogonal_spans():
    v = skew_link_check(_span([1, 0]), _span([0, 1]))
    assert not v.linked
    assert v.defect_dim == 1
    assert v.self_orthogonality == pytest.approx(0.0, abs=1e-15)


def test_skew_link_oblique_spans():
    v = skew_link_check(_span([1, 0]), _span([1, 1]))
    assert v.linked
    assert v.self_orthogonality == pytest.approx(1 / np.sqrt(2))


def test_skew_link_dimension_mismatch():
    one = _span([1, 0, 0])
    two = Subspace(3, np.eye(3, dtype=complex)[:, :2])
    assert not skew_link_check(one, two).linked
    assert not skew_link_check(two, one).linked


def test_skew_link_trivial_spans():
    empty = Subspace(2, np.zeros((2, 0), dtype=complex))
    assert skew_link_check(empty, empty).linked
    assert not skew_link_check(_span([1, 0]), empty).linked


@given(st.integers(0, 100))
@settings(max_examples=25, deadline=None)
def test_skew_link_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    k1, k2 = rng.integers(1, 4, size=2)
    q1, _ = np.linalg.qr(rng.standard_normal((5, k1)) + 1j * rng.standard_normal((5, k1)))
    q2, _ = np.linalg.qr(rng.standard_normal((5, k2)) + 1j * rng.standard_normal((5, k2)))
    s1, s2 = Subspace(5, q1), Subspace(5, q2)
    assert skew_link_check(s1, s2).linked == skew_link_check(s2, s1).linked


def test_multiplicity_match_on_random_matrix():
    # C3 reads the kernel dimensions off the stacked bases' widths
    ps = point_spectrum(random_complex(5, None, 8))
    assert np.array_equal(ps._right.widths, ps._left.widths)


def test_biorthonormalize_triangular_oracle():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormalize(a, point_spectrum(a))
    assert system.complete
    psi = system.psi_matrix()
    chi = system.chi_matrix()
    assert np.allclose(psi[:, 0], [1, 0], atol=1e-14)
    assert np.allclose(chi[:, 0], [1, -1], atol=1e-14)
    assert np.allclose(psi[:, 1], [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-14)
    assert np.allclose(chi[:, 1], [0, np.sqrt(2)], atol=1e-14)
    assert system.gram_residual < 1e-14
    # every pair reproduces its eigenvalue from both sides
    values = [1.0, 2.0]
    for p, lam in zip(system.pairs, values):
        assert np.linalg.norm(a @ p.psi - lam * p.psi) < 1e-12
        assert np.linalg.norm(a.conj().T @ p.chi - np.conj(lam) * p.chi) < 1e-12


def test_expansion_coefficients_oracle():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormalize(a, point_spectrum(a))
    coeff = expand(system, [1.0, 1.0])
    assert np.allclose(coeff, [0.0, np.sqrt(2)], atol=1e-14)
    rebuilt = system.psi_matrix() @ coeff
    assert np.allclose(rebuilt, [1.0, 1.0], atol=1e-14)


def test_resolution_of_identity_oracle():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormalize(a, point_spectrum(a))
    assert np.abs(resolution_of_identity(system) - np.eye(2)).max() < 1e-14


def test_swapped_system_expands_with_psi_coefficients():
    a = random_complex(4, None, 3)
    system = biorthonormalize(a, point_spectrum(a))
    f = random_complex(4, 1, 5)[:, 0]
    swapped = system.swapped()
    direct = system.psi_matrix().conj().T @ f
    assert np.allclose(expand(swapped, f), direct)
    assert swapped.gram_residual == system.gram_residual


def test_exceptional_point_collision_raises_skew_failure():
    m = generate(FamilySpec("ep_family", 2, {"t": 0.0}))
    ps = point_spectrum(m)
    with pytest.raises(SkewLinkFailureError) as err:
        biorthonormalize(m, ps)
    assert err.value.cluster_index == 0
    assert err.value.self_orthogonality <= 1e-10


def test_defective_but_linked_cluster_raises_not_diagonalizable():
    # hand-built inconsistent input: the sector pairs, yet m_g < m_a
    e1 = Subspace(2, np.eye(2, dtype=complex)[:, :1])
    cluster = EigenvalueCluster(
        value=0.0,
        algebraic_multiplicity=2,
        right_kernel=e1,
        left_kernel=e1,
    )
    ps = PointSpectrum(ambient_dim=2, clusters=(cluster,))
    with pytest.raises(NotDiagonalizableError) as err:
        biorthonormalize(np.zeros((2, 2)), ps)
    assert err.value.cluster_indices == (0,)


def test_incomplete_system_cannot_expand():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    full = biorthonormalize(a, point_spectrum(a))
    partial = BiorthonormalSystem(
        ambient_dim=2,
        pairs=full.pairs[:1],
        gram_residual=0.0,
    )
    with pytest.raises(IncompleteSystemError):
        expand(partial, [1.0, 0.0])


def test_expand_length_check():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormalize(a, point_spectrum(a))
    with pytest.raises(ValueError):
        expand(system, [1.0, 0.0, 0.0])


@given(st.integers(0, 150), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_biorthonormality_residuals_scale_with_conditioning(seed, n):
    a = random_complex(n, None, seed)
    ps = point_spectrum(a)
    system = biorthonormalize(a, ps)
    kappa = condition_number(np.hstack([c.right_kernel.basis for c in ps.clusters]))
    assert system.complete
    assert system.gram_residual <= 1e-8 * kappa
    assert np.linalg.norm(resolution_of_identity(system) - np.eye(n), "fro") <= 1e-8 * kappa
    # psi stays unit norm; chi absorbs the scale
    assert np.allclose(np.linalg.norm(system.psi_matrix(), axis=0), 1.0, atol=1e-12)


@given(st.integers(0, 150), st.integers(2, 7))
@settings(max_examples=25, deadline=None)
def test_expansion_round_trip_random(seed, n):
    a = random_complex(n, None, seed)
    ps = point_spectrum(a)
    system = biorthonormalize(a, ps)
    kappa = condition_number(np.hstack([c.right_kernel.basis for c in ps.clusters]))
    f = random_complex(n, 1, seed + 999)[:, 0]
    coeff = expand(system, f)
    err = np.linalg.norm(system.psi_matrix() @ coeff - f)
    assert err <= 1e-8 * kappa * np.linalg.norm(f)


def test_cross_cluster_biorthogonality():
    a = random_complex(6, None, 21)
    system = biorthonormalize(a, point_spectrum(a))
    gram = system.chi_matrix().conj().T @ system.psi_matrix()
    off = gram - np.eye(len(system.pairs))
    assert np.abs(off).max() < 1e-10


def _solve_as_before_numpy_2(a, b):
    # numpy 1.x reads a right-hand side of one dimension fewer than the
    # matrices as a stack of vectors; 2.x does so only for a 1-d b
    if np.ndim(b) == np.ndim(a) - 1:
        return np.stack([_solve(m, v) for m, v in zip(a, b)])
    return _solve(a, b)


_solve = np.linalg.solve


def test_equal_kernel_dimensions_share_one_solve_and_keep_their_own_duals(monkeypatch):
    # two double and two simple semi-simple eigenvalues of a non-normal
    # matrix: each kernel dimension is one stacked solve of two blocks, and
    # the result must not depend on how numpy reads a stacked right-hand side
    s = random_complex(6, None, 17)
    a = s @ np.diag([1.0, 1.0, 2.0, 2.0, 3.0, 4.0]) @ np.linalg.inv(s)
    ps = point_spectrum(a)
    assert sorted(c.geometric_multiplicity for c in ps.clusters) == [1, 1, 2, 2]
    monkeypatch.setattr(np.linalg, "solve", _solve_as_before_numpy_2)
    system = biorthonormalize(a, ps)
    kappa = condition_number(np.hstack([c.right_kernel.basis for c in ps.clusters]))
    assert system.complete and system.gram_residual <= 1e-8 * kappa
    for p in system.pairs:
        lam = ps.clusters[p.cluster_index].value
        assert np.linalg.norm(a @ p.psi - lam * p.psi) <= 1e-8 * kappa
        assert np.linalg.norm(a.conj().T @ p.chi - np.conj(lam) * p.chi) <= 1e-8 * kappa * np.linalg.norm(p.chi)


def test_a_spectrum_of_another_size_is_refused():
    a = random_complex(4, None, 5)
    with pytest.raises(ValueError, match="different size"):
        biorthonormalize(a, point_spectrum(random_complex(3, None, 5)))


def test_a_system_without_pairs_has_empty_psi_and_chi_matrices():
    # biorthonormalize returns only complete systems; a hand-built empty one
    # still gives n x 0 matrices and refuses to expand
    system = BiorthonormalSystem(ambient_dim=3, pairs=(), gram_residual=0.0)
    for m in (system.psi_matrix(), system.chi_matrix()):
        assert m.shape == (3, 0) and m.dtype == complex
    with pytest.raises(IncompleteSystemError):
        expand(system, np.ones(3))
