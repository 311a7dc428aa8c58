import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    Subspace,
    Tolerance,
    adjoint,
    as_matrix,
    complement,
    condition_number,
    nullspace,
    phase_normalize,
    range_space,
    subspace_angle,
)

from conftest import random_complex

ANGLE_TOL = 1e-7


def test_tolerance_defaults():
    tol = Tolerance()
    assert tol.rank_eps == 1e-10
    assert tol.cluster_eps == 1e-8
    assert tol.residual_eps == 1e-8


@pytest.mark.parametrize("kwargs", [
    {"rank_eps": 0.0},
    {"rank_eps": 1.0},
    {"cluster_eps": -1e-3},
    {"residual_eps": 2.0},
])
def test_tolerance_rejects_out_of_range(kwargs):
    with pytest.raises(ValueError):
        Tolerance(**kwargs)


def test_as_matrix_validation():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == complex and m.shape == (2, 2)
    with pytest.raises(ValueError):
        as_matrix([1, 2, 3])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])


def test_adjoint_oracle():
    m = [[1 + 1j, 2], [3, 4j]]
    expected = np.array([[1 - 1j, 3], [2, -4j]])
    assert np.array_equal(adjoint(m), expected)


@given(st.integers(0, 100), st.integers(1, 8), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_adjoint_involution(seed, n, m):
    a = random_complex(n, m, seed)
    assert np.array_equal(adjoint(adjoint(a)), a)


def test_phase_normalize_leading_entry_real_positive():
    v = np.array([[1j], [1.0]], dtype=complex)
    w = phase_normalize(v)
    assert w[0, 0].real > 0 and abs(w[0, 0].imag) < 1e-15
    assert np.linalg.norm(w) == pytest.approx(np.linalg.norm(v))


def test_phase_normalize_skips_negligible_leading_noise():
    v = np.array([[1e-14], [1j]], dtype=complex)
    w = phase_normalize(v)
    # the tiny first entry must not set the phase
    assert w[1, 0].real > 0.9


def test_nullspace_oracle_shift():
    ker = nullspace([[0, 1], [0, 0]])
    assert ker.dim == 1
    assert np.allclose(ker.basis[:, 0], [1, 0])


def test_nullspace_full_rank_is_trivial():
    assert nullspace(np.eye(3)).dim == 0


def test_range_oracle_shift():
    ran = range_space([[0, 1], [0, 0]])
    assert ran.dim == 1
    assert np.allclose(ran.basis[:, 0], [1, 0])


@given(st.integers(0, 100), st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(seed, rows, inner, cols):
    # products with a thin inner dimension are genuinely rank deficient
    m = random_complex(rows, inner, seed) @ random_complex(inner, cols, seed + 1)
    ker = nullspace(m)
    ran = range_space(m)
    assert ran.dim + ker.dim == cols
    assert ran.dim <= min(rows, inner, cols)
    # kernel vectors are actually annihilated
    if ker.dim:
        assert np.abs(m @ ker.basis).max() <= 1e-10 * max(1.0, np.abs(m).max())


@given(st.integers(0, 100), st.integers(1, 7), st.integers(1, 7))
@settings(max_examples=40, deadline=None)
def test_range_perp_is_adjoint_kernel(seed, rows, cols):
    m = random_complex(rows, cols, seed)
    perp = complement(range_space(m))
    ker = nullspace(adjoint(m))
    assert perp.dim == ker.dim
    assert subspace_angle(perp, ker) <= 10 * ANGLE_TOL


def test_complement_dimensions_and_orthogonality():
    s = Subspace(3, np.eye(3, dtype=complex)[:, :1])
    c = complement(s)
    assert c.dim == 2
    assert np.abs(s.basis.conj().T @ c.basis).max() < 1e-14
    # complement of the trivial subspace is everything
    empty = Subspace(3, np.zeros((3, 0), dtype=complex))
    assert complement(empty).dim == 3


def test_subspace_angle_oracles():
    e1 = Subspace(2, np.eye(2, dtype=complex)[:, :1])
    e2 = Subspace(2, np.eye(2, dtype=complex)[:, 1:])
    mid = Subspace(2, np.array([[1], [1]], dtype=complex) / np.sqrt(2))
    assert subspace_angle(e1, e1) == 0.0
    assert subspace_angle(e1, e2) == pytest.approx(np.pi / 2)
    assert subspace_angle(e1, mid) == pytest.approx(np.pi / 4)


def test_subspace_angle_unequal_dimensions_is_maximal():
    one = Subspace(3, np.eye(3, dtype=complex)[:, :1])
    two = Subspace(3, np.eye(3, dtype=complex)[:, :2])
    assert subspace_angle(one, two) == pytest.approx(np.pi / 2)


def _projector_gap_angle(s1, s2):
    gap = np.linalg.norm(s1.projector() - s2.projector(), 2)
    return float(np.arcsin(min(1.0, gap)))


def _orthonormal_basis(m):
    q, _ = np.linalg.qr(m)
    return q


@given(
    st.integers(0, 10_000),
    st.integers(2, 9),
    st.integers(1, 4),
    st.integers(0, 2),
    st.sampled_from([0.0, 1e-8, 1e-6, 1e-3, 0.1, 1.0, 10.0]),
)
@settings(max_examples=80, deadline=None)
def test_subspace_angle_matches_projector_gap(seed, n, k1, extra, tilt):
    k1 = min(k1, n - 1)
    k2 = min(k1 + extra, n)
    rng = np.random.default_rng(seed)
    b1 = _orthonormal_basis(random_complex(n, k1, seed))
    # the second subspace is the first, tilted and possibly widened
    b2 = np.hstack([b1 + tilt * random_complex(n, k1, seed + 1),
                    random_complex(n, k2 - k1, seed + 2)])
    s1 = Subspace(n, b1)
    s2 = Subspace(n, _orthonormal_basis(b2 @ np.diag(np.exp(1j * rng.uniform(0, 6, k2)))))
    expected = _projector_gap_angle(s1, s2)
    assert subspace_angle(s1, s2) == pytest.approx(expected, rel=1e-6, abs=1e-14)
    assert subspace_angle(s2, s1) == pytest.approx(expected, rel=1e-6, abs=1e-14)
    if k1 != k2:
        assert subspace_angle(s1, s2) == np.pi / 2


def test_subspace_angle_resolves_small_angles():
    for theta in (1e-8, 1e-6, 1e-3):
        s1 = Subspace(3, np.eye(3, dtype=complex)[:, :1])
        s2 = Subspace(3, np.array([[np.cos(theta)], [0.0], [np.sin(theta)]], dtype=complex))
        assert subspace_angle(s1, s2) == pytest.approx(theta, rel=1e-9)


def test_subspace_angle_ambient_mismatch():
    s2 = Subspace(2, np.eye(2, dtype=complex)[:, :1])
    s3 = Subspace(3, np.eye(3, dtype=complex)[:, :1])
    with pytest.raises(ValueError):
        subspace_angle(s2, s3)


def test_subspace_rejects_skewed_basis():
    with pytest.raises(ValueError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))
    with pytest.raises(ValueError):
        Subspace(2, np.eye(3, dtype=complex))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_subspace_rejects_a_non_finite_basis(bad):
    # a NaN in the Gram matrix compares False against any bound, so it
    # must fail the orthonormality check rather than slip past it
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(3, np.full((3, 2), bad))
    basis = np.eye(3, dtype=complex)[:, :2]
    basis[2, 1] = bad
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(3, basis)


def test_condition_number_oracles():
    assert condition_number(np.eye(4)) == 1.0
    assert condition_number(np.diag([2.0, 1.0])) == pytest.approx(2.0)
    # sigma_min 1e-12 sits below the cutoff rank_eps * sigma_max * n
    assert condition_number([[1, 1], [0, 1e-12]]) == float("inf")
    with pytest.raises(ValueError):
        condition_number(np.ones((2, 3)))


@given(st.integers(0, 50), st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_condition_number_scale_invariant(seed, n):
    m = random_complex(n, None, seed) + 2 * np.eye(n)
    k1 = condition_number(m)
    k2 = condition_number(1e6 * m)
    if np.isfinite(k1):
        assert k2 == pytest.approx(k1, rel=1e-9)
