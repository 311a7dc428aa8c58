"""Defective clusters climbing in the frame past the certified clusters, against full-size climbs.

When some clusters pass the eig certificate and others fail it,
point_spectrum builds Z_R, an orthonormal basis of the certified left
kernels' complement, and Z_L, the same for the right kernels, with A and
A^* compressed onto them.  Each failing cluster then takes no n x n SVD:
its climb, whose level 1 gives its right kernel and Ran-perp, and its
left split run at n_d = n minus the certified multiplicities.  The
references here are the full-size routes: root_space without the
spectrum, and kernel_split of A and of A^*.
"""

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    Tolerance,
    check_conditions,
    conditions,
    generate,
    point_spectrum,
    root_space,
    subspace_angle,
)
from biortho.spectral import kernel_split
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


CASES = (
    [pytest.param(_mixed(count, cond, seed), WIDE, id="mixed%d-cond%g" % (count, cond))
     for count, cond, seed in ((4, 10.0, 1), (8, 30.0, 2), (12, 100.0, 3), (28, 10.0, 4))]
    + [pytest.param(_exceptional(simple, points, seed), POINTS, id="points%d-of-%d" % (points, simple))
       for simple, points, seed in ((20, 2, 5), (30, 3, 6), (60, 2, 7))]
    + [pytest.param(_real_similarity(), WIDE, id="real9")]
)


def _matrix(source):
    return source if isinstance(source, np.ndarray) else generate(source)


def _climbing(spectrum):
    return [c for c in spectrum.clusters if not c.kernels_are_root_spaces]


def _framed(spectrum):
    # a frame is built when some clusters are certified (they climb nothing) and others are not
    return 0 < sum(c.climb is None for c in spectrum.clusters) < len(spectrum.clusters)


@pytest.mark.parametrize("source, tol", CASES)
def test_framed_climbs_match_the_full_size_ones(source, tol, monkeypatch):
    a = _matrix(source)
    used = []
    original = conditions.root_space

    def recorded(*args, **kwargs):
        used.append((args, kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(conditions, "root_space", recorded)
    report = check_conditions(a, tol)
    monkeypatch.undo()
    ps = report.spectrum
    assert _framed(ps) and _climbing(ps)
    # check_conditions reads each cluster's root spaces once, from its own spectrum
    assert [args[1] for args, _ in used] == list(ps.clusters)
    assert all(args[3] is ps for args, _ in used)
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
    # the right split is the climb's level 1 and runs at n_d like the rest,
    # so no SVD of a failing cluster is n x n
    a = _matrix(source)
    n = a.shape[0]
    calls = Calls(monkeypatch, names=("svd",))
    ps = point_spectrum(a, tol)
    assert _framed(ps)
    n_d = n - sum(c.algebraic_multiplicity for c in ps.clusters if c.climb is None)
    assert 0 < n_d < n
    # each failing cluster: level 1 and its left split at n_d; a defective
    # one then takes one SVD per further level at n_d - d_k, and one more
    # that finds the top unless the root space fills the frame
    expected = []
    for c in ps.clusters:
        if c.climb is not None:
            expected += [(n_d, n_d)] * 2
            if not c.semi_simple:
                expected += [(n_d - d, n_d - d) for d in c.climb.levels if d < n_d]
    assert sorted(calls.shapes["svd"]) == sorted(expected)
    calls.shapes["svd"].clear()
    for c in _climbing(ps):
        rs = root_space(a, c, tol, ps)
        assert rs.staircase == c.climb.levels
    # root_space reads what point_spectrum climbed
    assert calls.shapes["svd"] == []


@pytest.mark.parametrize("spec, tol", [
    pytest.param(FamilySpec("jordan", 12, {"eigenvalue": 0.0, "segre": (8, 4)}), Tolerance(), id="one-cluster"),
    pytest.param(FamilySpec("block_jordan", 6, {"blocks": ((0.0, (2,)), (1.0, (3, 1))), "cond": 10.0}, 3), WIDE,
                 id="none-certified"),
])
def test_without_a_certified_cluster_there_is_no_frame(spec, tol):
    a = generate(spec)
    ps = point_spectrum(a, tol)
    assert not _framed(ps)
    for c in ps.clusters:
        framed, full = root_space(a, c, tol, ps), root_space(a, c, tol)
        assert framed.staircase == full.staircase
        assert np.array_equal(framed.space.basis, full.space.basis)
        assert np.array_equal(framed.adjoint_space.basis, full.adjoint_space.basis)
        # unframed kernels and Ran-perp are the full-size splits' bit for bit
        perp, right = kernel_split(a, c.value, c.scatter, tol)
        left = kernel_split(a.conj().T, np.conj(c.value), c.scatter, tol)[1]
        assert np.array_equal(c.right_kernel.basis, right.basis)
        assert np.array_equal(c.range_perp.basis, perp.basis)
        assert np.array_equal(c.left_kernel.basis, left.basis)


def test_a_semi_simple_spectrum_takes_no_frame():
    a = generate(FamilySpec("block_jordan", 8, {"blocks": tuple((float(k), (1, 1)) for k in range(4)), "cond": 10.0}, 2))
    assert all(c.climb is None for c in point_spectrum(a, WIDE).clusters)
