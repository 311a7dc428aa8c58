import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biortho import (
    BiorthoError,
    FamilySpec,
    Subspace,
    Tolerance,
    as_matrix,
    biorthonormalize,
    check_conditions,
    condition_number,
    generate,
    nullspace,
    phase_normalize,
    range_space,
    root_space,
    subspace_angle,
)
from biortho.linalg import _Blocks, subspace_pairs

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


def test_as_matrix_returns_a_c_ordered_complex_matrix_itself():
    x = np.arange(6, dtype=complex).reshape(2, 3)
    assert as_matrix(x) is x


@pytest.mark.parametrize("x", [np.arange(6).reshape(2, 3), np.arange(6.0).reshape(2, 3),
                               np.asfortranarray(np.arange(6, dtype=complex).reshape(2, 3))],
                         ids=["int", "real", "fortran"])
def test_as_matrix_copies_any_other_input(x):
    m = as_matrix(x)
    assert not np.shares_memory(m, x)
    assert m.dtype == complex and m.flags.c_contiguous and np.array_equal(m, x)


@pytest.mark.parametrize("spec, tol", [
    (FamilySpec("random_gaussian", 6, {}, seed=3), Tolerance()),
    # certified and defective clusters together: framed climbs, then a full-size one per root_space
    (FamilySpec("block_jordan", 8, {"blocks": ((0.0, (2, 1)), (1.0, (1, 1)), (2.0, (3,))), "cond": 10.0}, seed=1),
     Tolerance(cluster_eps=1e-2)),
], ids=["gaussian", "block_jordan"])
def test_no_path_writes_into_its_input(spec, tol):
    # as_matrix hands a complex C-ordered input on uncopied, so a write anywhere would raise here
    a = np.array(generate(spec), dtype=complex)
    a.setflags(write=False)
    before = a.copy()
    report = check_conditions(a, tol)
    if report.biorthonormal_basis_exists:
        biorthonormalize(a, tol=tol)
    else:
        with pytest.raises(BiorthoError):
            biorthonormalize(a, tol=tol)
    for c in report.spectrum.clusters:
        root_space(a, c, tol)
    assert np.array_equal(a, before)


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


def _phase_normalize_by_column(basis):
    # the per-column rotation phase_normalize replaced, kept as its reference
    basis = np.array(basis, dtype=complex)
    for j in range(basis.shape[1]):
        col = basis[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 1e-8 * top))
        pivot = col[lead]
        basis[:, j] = col * (pivot.conjugate() / abs(pivot))
    return basis


_COLUMN_KINDS = ("complex", "zero", "real", "lead-above", "lead-below", "zero-head")


@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.data())
@settings(max_examples=200, deadline=None)
def test_phase_normalize_matches_the_per_column_rotation_bit_for_bit(seed, rows, data):
    kinds = data.draw(st.lists(st.sampled_from(_COLUMN_KINDS), max_size=rows))
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((rows, len(kinds))) + 1j * rng.standard_normal((rows, len(kinds)))
    basis *= 10.0 ** rng.uniform(-6, 6, len(kinds))
    for j, kind in enumerate(kinds):
        col = basis[:, j]
        if kind == "zero":
            col[:] = 0.0
        elif kind == "real":
            col.imag = 0.0
        elif kind.startswith("lead"):
            # the first entry sits just above or just below the 1e-8 threshold
            top = np.abs(col[1:]).max()
            side = 1.0 + 1e-12 if kind == "lead-above" else 1.0 - 1e-12
            col[0] = np.exp(1j * rng.uniform(0, 2 * np.pi)) * 1e-8 * top * side
        elif kind == "zero-head":
            col[: rows // 2] = 0.0
    got = phase_normalize(basis)
    assert got.shape == basis.shape
    assert got.tobytes() == _phase_normalize_by_column(basis).tobytes()


def test_phase_normalize_one_row_is_the_modulus():
    # on one row the rotation leaves |x| up to roundoff, which can differ
    # from the per-column rotation's in the last bits; 1 stays exactly 1
    rng = np.random.default_rng(4)
    b = (rng.standard_normal((1, 12)) + 1j * rng.standard_normal((1, 12))) * 10.0 ** rng.uniform(-8, 8, 12)
    got = phase_normalize(b)
    h = np.hypot(b.real, b.imag)
    assert np.all(np.abs(got.real - h) <= 4 * np.spacing(h))
    assert np.all(np.abs(got.imag) <= np.finfo(float).eps * h)
    assert phase_normalize(np.eye(1, dtype=complex)).tobytes() == np.eye(1, dtype=complex).tobytes()


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
    ran = range_space(m)
    # the complement of the range: everything, or the kernel of its basis' adjoint
    perp = nullspace(ran.basis.conj().T) if ran.dim else Subspace(rows, np.eye(rows, dtype=complex))
    ker = nullspace(m.conj().T)
    assert perp.dim == ker.dim
    assert subspace_angle(perp, ker) <= 10 * ANGLE_TOL


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


def _projector(s):
    return s.basis @ s.basis.conj().T


def _projector_gap_angle(s1, s2):
    gap = np.linalg.norm(_projector(s1) - _projector(s2), 2)
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


def _tilted_pair(n, d, theta, seed):
    # B2 turns B1's first column by theta towards a unit vector orthogonal
    # to B1 and mixes its columns, so the largest principal angle is theta
    rng = np.random.default_rng(seed)
    q = _orthonormal_basis(random_complex(n, d + 1, seed))
    b1, away = q[:, :d], q[:, d]
    turned = b1.copy()
    turned[:, 0] = np.cos(theta) * b1[:, 0] + np.sin(theta) * away
    mix = _orthonormal_basis(random_complex(d, d, seed + 1)) @ np.diag(np.exp(1j * rng.uniform(0, 6, d)))
    return b1, turned @ mix


@given(
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.sampled_from([None, 1e-9, 1e-7, 1e-4, 0.5])),
             min_size=1, max_size=10),
)
@settings(max_examples=60, deadline=None)
def test_subspace_pairs_match_the_cross_gram_and_the_projector_gap(seed, n, specs):
    # one batch of mixed shapes; a spec with a tilt is a pair of equal
    # dimension d < n at that exact largest principal angle
    firsts, seconds, tilts = [], [], []
    for k, (d1, d2, tilt) in enumerate(specs):
        d1, d2 = min(d1, n), min(d2, n)
        if tilt is not None and 0 < d1 < n:
            b1, b2 = _tilted_pair(n, d1, tilt, seed + 3 * k)
        else:
            b1 = _orthonormal_basis(random_complex(n, d1, seed + 3 * k))
            b2 = _orthonormal_basis(random_complex(n, d2, seed + 3 * k + 1))
            tilt = None
        firsts.append(b1)
        seconds.append(b2)
        tilts.append(tilt)
    sigmas, angles = subspace_pairs(_Blocks.of(firsts), _Blocks.of(seconds))
    assert len(sigmas) == len(angles) == len(specs)
    for b1, b2, tilt, sigma, angle in zip(firsts, seconds, tilts, sigmas, angles):
        d1, d2 = b1.shape[1], b2.shape[1]
        expected = np.linalg.svd(b2.conj().T @ b1, compute_uv=False) if min(d1, d2) else np.zeros(0)
        np.testing.assert_allclose(sigma, expected, rtol=0, atol=1e-14)
        assert angle == pytest.approx(_projector_gap_angle(Subspace(n, b1), Subspace(n, b2)), rel=1e-6, abs=1e-14)
        if tilt is not None:
            assert angle == pytest.approx(tilt, rel=1e-6)
        if d1 != d2:
            assert angle == np.pi / 2
        elif d1 == 0:
            assert angle == 0.0
        # a pair alone gives what it gives inside the mixed batch
        (alone,), alone_angle = subspace_pairs(_Blocks.of([b1]), _Blocks.of([b2]))
        assert np.array_equal(alone, sigma) and alone_angle[0] == angle


@given(st.integers(0, 10_000), st.integers(1, 12), st.lists(st.integers(1, 4), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_a_stacked_qr_is_one_qr_per_block_bit_for_bit(seed, n, widths):
    # what the certificate and the residual identity rely on: one np.linalg.qr
    # over the (k, n, d) stack of a width's blocks, read off one matrix by a
    # reshape, gives each block the Q its own call gives, after one norm over
    # the whole matrix scales every column
    widths = [min(w, n) for w in widths]
    m = random_complex(n, sum(widths), seed)
    blocks = _Blocks(m, widths)
    out = blocks.orthonormalized()
    assert out.matrix is not m and np.array_equal(out.widths, blocks.widths)
    for i, b in enumerate(_Blocks(m / np.linalg.norm(m, axis=0), widths)):
        expected = np.linalg.qr(b)[0] if b.shape[1] > 1 else b
        assert np.array_equal(out[i], expected)
    for d in set(widths):
        idx = np.flatnonzero(np.array(widths) == d)
        q = np.linalg.qr(blocks.stack(idx))[0]
        assert all(np.array_equal(q[k], np.linalg.qr(blocks[i])[0]) for k, i in enumerate(idx))


@given(
    st.integers(0, 10_000),
    st.integers(1, 8),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=10),
)
@settings(max_examples=40, deadline=None)
def test_subspace_pairs_on_stacked_bases_match_the_per_pair_lists(seed, n, shapes):
    # the diagnosis pairs the blocks of two stacked kernel matrices; the
    # singular values and angles are those of one pair alone, bit for bit
    firsts = [_orthonormal_basis(random_complex(n, min(d1, n), seed + 2 * k)) for k, (d1, _) in enumerate(shapes)]
    seconds = [_orthonormal_basis(random_complex(n, min(d2, n), seed + 2 * k + 1)) for k, (_, d2) in enumerate(shapes)]
    for bases in (firsts, seconds):
        blocks = _Blocks.of(bases)
        for d in set(blocks.widths.tolist()):
            idx = np.flatnonzero(blocks.widths == d)
            # a reshape of one matrix gives the array np.stack builds, in its layout
            stack, reference = blocks.stack(idx), np.stack([bases[i] for i in idx])
            assert np.array_equal(stack, reference) and stack.flags.c_contiguous and reference.flags.c_contiguous
    stacked, stacked_angles = subspace_pairs(_Blocks.of(firsts), _Blocks.of(seconds))
    assert isinstance(stacked, _Blocks) and len(stacked) == len(stacked_angles) == len(shapes)
    for b1, b2, sigma, angle in zip(firsts, seconds, stacked, stacked_angles):
        (alone,), alone_angle = subspace_pairs(_Blocks.of([b1]), _Blocks.of([b2]))
        assert np.array_equal(alone, sigma) and alone_angle[0] == angle


def test_subspace_pairs_of_nothing_is_empty():
    sigmas, angles = subspace_pairs(_Blocks.of([]), _Blocks.of([]))
    assert len(sigmas) == 0 and sigmas.matrix.shape == (0,) and angles.shape == (0,)


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
    with pytest.raises(ValueError, match="exceeds ambient"):
        Subspace(2, np.eye(2, 3, dtype=complex))


@pytest.mark.parametrize("norm, ok", [(1 + 2e-6, False), (1 - 2e-6, False), (1 + 2e-7, True), (1 - 2e-7, True)])
def test_one_column_subspace_checks_its_norm_to_1e_6(norm, ok):
    col = np.array([[0.6], [0.8j], [0.0]]) * norm
    if ok:
        assert Subspace(3, col).dim == 1
    else:
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(3, col)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(np.inf, np.inf), complex(0.0, np.nan)],
                         ids=["nan", "inf", "-inf", "inf+infj", "nanj"])
def test_one_column_subspace_rejects_non_finite_entries(bad):
    col = np.array([[1.0], [0.0], [0.0]], dtype=complex)
    for row in range(3):
        spoiled = col.copy()
        spoiled[row, 0] = bad
        with pytest.raises(ValueError, match="not orthonormal"):
            Subspace(3, spoiled)


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
