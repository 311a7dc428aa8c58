"""Defective clusters climbing in the frame past the certified clusters, against full-size climbs.

When some clusters pass the eig certificate and others fail it,
point_spectrum keeps Z_R, an orthonormal basis of the certified left
kernels' complement, and Z_L, the same for the right kernels, with A and
A^* compressed onto them.  Each failing cluster then takes one n x n SVD, its right
split; its left split and every staircase level run at n_d = n minus the
certified multiplicities.  The references here are the full-size routes:
root_space without the spectrum, and kernel_split of A^*.
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
    assert ps.frame is not None and _climbing(ps)
    # check_conditions climbs each cluster once, in the frame of its own spectrum
    assert [args[1] for args, _ in used] == list(ps.clusters)
    assert all(args[3] is ps for args, _ in used)
    for c in _climbing(ps):
        framed = root_space(a, c, tol, ps)
        full = root_space(a, c, tol)
        assert framed.staircase == full.staircase and framed.segre == full.segre
        assert subspace_angle(framed.space, full.space) <= 1e-10
        assert subspace_angle(framed.adjoint_space, full.adjoint_space) <= 1e-10
        left = kernel_split(a.conj().T, np.conj(c.value), c.scatter, tol)[1]
        assert c.left_kernel.dim == left.dim and subspace_angle(c.left_kernel, left) <= 1e-10


@pytest.mark.parametrize("source, tol", CASES)
def test_only_the_right_split_is_full_size(source, tol, monkeypatch):
    a = _matrix(source)
    n = a.shape[0]
    calls = Calls(monkeypatch, names=("svd",))
    ps = point_spectrum(a, tol)
    certified = [c for c in ps.clusters if c.range_perp is None]
    z_r, compressed, z_l, adjoint = ps.frame
    n_d = n - sum(c.algebraic_multiplicity for c in certified)
    assert z_r.shape == z_l.shape == (n, n_d) and compressed.shape == adjoint.shape == (n_d, n_d)
    # each failing cluster: its right split at n, its left split at n_d
    failing = len(ps.clusters) - len(certified)
    assert sorted(calls.shapes["svd"]) == sorted([(n, n), (n_d, n_d)] * failing)
    for c in _climbing(ps):
        calls.shapes["svd"].clear()
        rs = root_space(a, c, tol, ps)
        # one SVD per level at n_d - d_k, and one more that finds the top
        # unless the root space fills the frame
        assert calls.shapes["svd"] == [(n_d - d, n_d - d) for d in (0, *rs.staircase) if d < n_d]


@pytest.mark.parametrize("spec, tol", [
    pytest.param(FamilySpec("jordan", 12, {"eigenvalue": 0.0, "segre": (8, 4)}), Tolerance(), id="one-cluster"),
    pytest.param(FamilySpec("block_jordan", 6, {"blocks": ((0.0, (2,)), (1.0, (3, 1))), "cond": 10.0}, 3), WIDE,
                 id="none-certified"),
])
def test_without_a_certified_cluster_there_is_no_frame(spec, tol):
    a = generate(spec)
    ps = point_spectrum(a, tol)
    assert ps.frame is None
    for c in ps.clusters:
        framed, full = root_space(a, c, tol, ps), root_space(a, c, tol)
        assert framed.staircase == full.staircase
        assert np.array_equal(framed.space.basis, full.space.basis)
        assert np.array_equal(framed.adjoint_space.basis, full.adjoint_space.basis)


def test_a_semi_simple_spectrum_takes_no_frame():
    a = generate(FamilySpec("block_jordan", 8, {"blocks": tuple((float(k), (1, 1)) for k in range(4)), "cond": 10.0}, 2))
    assert point_spectrum(a, WIDE).frame is None
