"""Defective clusters climbing in a frame that shrinks past every resolved cluster, against full-size climbs.

When some cluster fails the eig certificate and another cluster is
resolved first, point_spectrum builds Z_R, an orthonormal basis of the
resolved left root spaces' complement, and Z_L, the same for the right
ones, with A compressed onto each.  The certified clusters are resolved
before any climb; a failing cluster is resolved once its climb reaches
its root spaces.  Each later climb, whose level 1 gives its right kernel
and Ran-perp, and its left split run at n_d, n less the multiplicities
of every cluster resolved before it.  Only a single cluster and the first
climb of an input with no certified cluster run unframed, at n.  The
references here are the full-size routes: root_space without the
spectrum, and kernel_split of A and of A^*.
"""

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    Tolerance,
    check_conditions,
    generate,
    point_spectrum,
    root_space,
    subspace_angle,
)
from biortho import spectral
from biortho.spectral import Climb, kernel_split
from conftest import Calls

WIDE = Tolerance(cluster_eps=1e-2)
POINTS = Tolerance(cluster_eps=1e-3)


def _mixed(count, cond, seed):
    # blocks at 0, 1, 2, ... cycling through (2, 1), (1), (3), (1, 1)
    blocks = tuple((float(k), ((2, 1), (1,), (3,), (1, 1))[k % 4]) for k in range(count))
    return FamilySpec("block_jordan", sum(sum(s) for _, s in blocks), {"blocks": blocks, "cond": cond}, seed)


def _exceptional(simple, points, seed):
    # a few 2 x 2 Jordan blocks among simple eigenvalues on a square grid
    side = int(np.ceil(np.sqrt(simple + points)))
    blocks = tuple((complex(k % side, k // side), (2,) if k < points else (1,)) for k in range(simple + points))
    return FamilySpec("block_jordan", simple + 2 * points, {"blocks": blocks, "cond": 10.0}, seed)


def _real_similarity():
    # a real A: S J S^-1 with a real Gaussian S
    j = np.zeros((9, 9))
    for lo, width, lam in ((0, 2, 0.0), (2, 1, 0.0), (3, 1, 1.0), (4, 3, 2.0), (7, 1, 3.0), (8, 1, 3.0)):
        j[lo:lo + width, lo:lo + width] = lam * np.eye(width) + np.eye(width, k=1)
    s = np.random.default_rng(9).standard_normal((9, 9))
    return s @ j @ np.linalg.inv(s)


def _uneven(seed):
    # failing clusters of multiplicity 4 and 3, heights 2 to 4 and four Segres, among simple eigenvalues
    shapes = ((1,), (4,), (1,), (2, 2), (1,), (3, 1), (1,), (2, 1), (1,), (1,))
    blocks = tuple((float(k), shape) for k, shape in enumerate(shapes))
    return FamilySpec("block_jordan", sum(sum(s) for _, s in blocks), {"blocks": blocks, "cond": 10.0}, seed)


def _segre21(count, seed):
    # every cluster a (2, 1) block pair, so none passes the certificate
    blocks = tuple((float(k), (2, 1)) for k in range(count))
    return FamilySpec("block_jordan", 3 * count, {"blocks": blocks, "cond": 10.0}, seed)


NONE_CERTIFIED = FamilySpec("block_jordan", 6, {"blocks": ((0.0, (2,)), (1.0, (3, 1))), "cond": 10.0}, 3)

CASES = (
    [pytest.param(_mixed(count, cond, seed), WIDE, id="mixed%d-cond%g" % (count, cond))
     for count, cond, seed in ((4, 10.0, 1), (8, 30.0, 2), (12, 100.0, 3), (28, 10.0, 4))]
    + [pytest.param(_exceptional(simple, points, seed), POINTS, id="points%d-of-%d" % (points, simple))
       for simple, points, seed in ((20, 2, 5), (30, 3, 6), (60, 2, 7))]
    + [pytest.param(_real_similarity(), WIDE, id="real9")]
    + [pytest.param(_uneven(8), WIDE, id="uneven")]
    + [pytest.param(_segre21(16, 1), WIDE, id="segre21x16")]
    + [pytest.param(NONE_CERTIFIED, WIDE, id="none-certified")]
)


def _matrix(source):
    return source if isinstance(source, np.ndarray) else generate(source)


def _climbing(spectrum):
    return [c for c in spectrum.clusters if not c.kernels_are_root_spaces]


def _framed(spectrum):
    # a frame is built when more than one cluster climbs (unless a climb stops short)
    return sum(c.climb is not None for c in spectrum.clusters) > 1


def _frame_sizes(made, n):
    # the size of the frame each climb ran in; an unframed climb runs in all of C^n
    return [n if frame is None else frame[1].shape[0] for _, _, frame, _ in made]


def _climbs(monkeypatch, stop_short=()):
    """(lambda, m_a, frame, climb) of each climb point_spectrum makes, in climb order.

    The climbs whose index is in stop_short report no root spaces, as a
    staircase that stops short of m_a does.
    """
    made = []
    original = spectral._climb

    def recorded(a, lam, scatter, tol, m_a=None, frame=None, with_left=False, **switches):
        right, left, climb = original(a, lam, scatter, tol, m_a, frame, with_left, **switches)
        if len(made) in stop_short:
            climb = Climb(climb.levels, climb.cutoff, climb.range_perp)
        made.append((lam, m_a, frame, climb))
        return right, left, climb

    monkeypatch.setattr(spectral, "_climb", recorded)
    return made


def _expected_svds(made, n_d):
    """The frame size of each climb and the SVD shapes of them all, in climb order.

    Each climb runs level 1 and its left split at the frame's size; a
    defective one then takes one SVD per further level at n_d - d_k, and
    one more that finds the top unless the root space fills the frame.  A
    climb that reaches its root spaces takes its m_a off the frame of every
    later one.
    """
    sizes, shapes = [], []
    for _, m_a, _, climb in made:
        sizes.append(n_d)
        shapes += [(n_d, n_d)] * 2
        if climb.levels[0] < m_a:
            shapes += [(n_d - d, n_d - d) for d in climb.levels if d < n_d]
        if climb.space is not None:
            n_d -= m_a
    return sizes, shapes


@pytest.mark.parametrize("source, tol", CASES)
def test_framed_climbs_match_the_full_size_ones(source, tol):
    a = _matrix(source)
    report = check_conditions(a, tol)
    ps = report.spectrum
    assert _framed(ps) and _climbing(ps)
    # check_conditions reads the root bases its own spectrum stacked: each
    # cluster whose kernels are not its root spaces has its climb's there
    spaces, adjoints = vars(ps)["_roots"]
    for i in (~ps._kernels_are_root_spaces).nonzero()[0]:
        assert np.array_equal(spaces[i], ps._climbed[i].space.basis)
        assert np.array_equal(adjoints[i], ps._climbed[i].adjoint_space.basis)
    for c in _climbing(ps):
        framed = root_space(a, c, tol, ps)
        full = root_space(a, c, tol)
        assert framed.staircase == full.staircase and framed.segre == full.segre
        assert subspace_angle(framed.space, full.space) <= 1e-10
        assert subspace_angle(framed.adjoint_space, full.adjoint_space) <= 1e-10
        perp, right = kernel_split(a, c.value, c.scatter, tol)
        left = kernel_split(a.conj().T, np.conj(c.value), c.scatter, tol)[1]
        assert c.right_kernel.dim == right.dim and subspace_angle(c.right_kernel, right) <= 1e-10
        assert c.range_perp.dim == perp.dim and subspace_angle(c.range_perp, perp) <= 1e-10
        assert c.left_kernel.dim == left.dim and subspace_angle(c.left_kernel, left) <= 1e-10


@pytest.mark.parametrize("source, tol", CASES)
def test_only_the_right_split_is_full_size(source, tol, monkeypatch):
    # the right split is the climb's level 1 and runs in the frame like the
    # rest, so no SVD of a failing cluster is n x n unless it climbs first
    # with no certified cluster, and each climb's frame is n less the m_a of
    # every certified cluster and every cluster climbed before it
    a = _matrix(source)
    n = a.shape[0]
    made = _climbs(monkeypatch)
    calls = Calls(monkeypatch, names=("svd",))
    ps = point_spectrum(a, tol)
    assert _framed(ps)
    n_d = n - sum(c.algebraic_multiplicity for c in ps.clusters if c.climb is None)
    assert 0 < n_d <= n
    assert (made[0][2] is None) == (n_d == n)
    sizes, shapes = _expected_svds(made, n_d)
    assert _frame_sizes(made, n) == sizes
    assert calls.shapes["svd"] == shapes
    # every climb reached its root spaces, so the last one fills its frame:
    # its adjoint root space is Z_L itself
    _, m_a, frame, climb = made[-1]
    assert all(c.space is not None for *_, c in made) and m_a == sizes[-1]
    assert np.array_equal(climb.adjoint_space.basis, spectral.phase_normalize(frame[2]))
    calls.shapes["svd"].clear()
    for c in _climbing(ps):
        rs = root_space(a, c, tol, ps)
        assert rs.staircase == c.climb.levels
    # root_space reads what point_spectrum climbed
    assert calls.shapes["svd"] == []


def test_a_climb_that_stops_short_leaves_the_frame_as_it_was(monkeypatch):
    a = generate(_mixed(8, 30.0, 2))
    n = a.shape[0]
    made = _climbs(monkeypatch, stop_short=(0,))
    calls = Calls(monkeypatch, names=("svd",))
    ps = point_spectrum(a, WIDE)
    assert len(made) > 2 and made[0][3].space is None
    # the second climb takes the first one's frame itself
    assert made[1][2] is made[0][2]
    assert made[2][2][1].shape[0] < made[1][2][1].shape[0]
    n_d = n - sum(c.algebraic_multiplicity for c in ps.clusters if c.climb is None)
    sizes, shapes = _expected_svds(made, n_d)
    assert sizes[1] == sizes[0] == n_d
    assert calls.shapes["svd"] == shapes


def test_a_climb_that_stops_short_before_any_frame_leaves_the_next_one_unframed(monkeypatch):
    a = generate(_segre21(6, 2))
    n = a.shape[0]
    made = _climbs(monkeypatch, stop_short=(0,))
    calls = Calls(monkeypatch, names=("svd",))
    ps = point_spectrum(a, WIDE)
    assert all(c.climb is not None for c in ps.clusters)
    assert len(made) == 6 and made[0][3].space is None
    # no frame is built: the second climb runs at n too, and every later one
    # in a frame past the clusters climbed since
    assert made[0][2] is None and made[1][2] is None
    sizes, shapes = _expected_svds(made, n)
    assert _frame_sizes(made, n) == sizes == [n, n, n - 3, n - 6, n - 9, n - 12]
    assert calls.shapes["svd"] == shapes


def _verdicts(a, tol, monkeypatch):
    # the report's decisions, Segres included, and the centroids in climb order
    made = _climbs(monkeypatch)
    report = check_conditions(a, tol)
    monkeypatch.undo()
    ps = report.spectrum
    clusters = [(round(c.value.real, 6), round(c.value.imag, 6), c.algebraic_multiplicity,
                 c.geometric_multiplicity, root_space(a, c, tol, ps).segre) for c in ps.clusters]
    decided = ([(v.id, v.status, v.witnesses) for v in report.conditions], report.sigma_set,
               [(v.cluster_index, v.linked, v.defect_dim) for v in report.skew_links],
               report.diagonalizable, report.biorthonormal_basis_exists, clusters)
    assert report.residual_identity_angle <= 1e-10
    return decided, [(round(lam.real, 6), round(lam.imag, 6)) for lam, *_ in made]


@pytest.mark.parametrize("source, tol", [CASES[2], CASES[3]])
def test_every_permutation_climbs_in_report_order_to_the_same_verdicts(source, tol, monkeypatch):
    # P A P^T reorders eig's output, but the clusters take their report order,
    # by centroid (Re, Im), as they form: the climbs, and so the frame each
    # cluster climbs in, come in one order whatever the permutation
    a = _matrix(source)
    decided, order = _verdicts(a, tol, monkeypatch)
    assert len(order) > 1 and order == sorted(order)
    for seed in range(4):
        perm = np.random.default_rng(seed).permutation(a.shape[0])
        assert _verdicts(a[perm][:, perm], tol, monkeypatch) == (decided, order)


@pytest.mark.parametrize("spec, tol", [
    pytest.param(FamilySpec("jordan", 12, {"eigenvalue": 0.0, "segre": (8, 4)}), Tolerance(), id="one-cluster"),
    pytest.param(NONE_CERTIFIED, WIDE, id="none-certified"),
])
def test_without_a_certified_cluster_the_first_climb_is_unframed(spec, tol, monkeypatch):
    a = generate(spec)
    n = a.shape[0]
    made = _climbs(monkeypatch)
    ps = point_spectrum(a, tol)
    monkeypatch.undo()
    assert all(c.climb is not None for c in ps.clusters)
    # the first climb runs in all of C^n, the second past the first's root spaces
    assert _frame_sizes(made, n) == [n, n - made[0][1]][:len(ps.clusters)]
    for k, (_, _, frame, climb) in enumerate(made):
        (c,) = [c for c in ps.clusters if c.climb is climb]
        framed, full = root_space(a, c, tol, ps), root_space(a, c, tol)
        perp, right = kernel_split(a, c.value, c.scatter, tol)
        left = kernel_split(a.conj().T, np.conj(c.value), c.scatter, tol)[1]
        assert framed.staircase == full.staircase and framed.segre == full.segre
        pairs = ((framed.space, full.space), (framed.adjoint_space, full.adjoint_space),
                 (c.right_kernel, right), (c.range_perp, perp), (c.left_kernel, left))
        if frame is None:
            # unframed kernels, Ran-perp and root spaces are the full-size routes' bit for bit
            assert k == 0
            assert all(np.array_equal(mine.basis, theirs.basis) for mine, theirs in pairs)
        else:
            assert all(mine.dim == theirs.dim and subspace_angle(mine, theirs) <= 1e-10 for mine, theirs in pairs)


def test_a_semi_simple_spectrum_takes_no_frame():
    a = generate(FamilySpec("block_jordan", 8, {"blocks": tuple((float(k), (1, 1)) for k in range(4)), "cond": 10.0}, 2))
    assert all(c.climb is None for c in point_spectrum(a, WIDE).clusters)
