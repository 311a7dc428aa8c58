"""One Jordan block certified from level 1 of the staircase, against the full climb.

When a cluster of point_spectrum fills its frame (m_a = n_d), its level 1
has d_1 = 1, its scatter is at most the climb's cutoff and the smallest
kept singular value sigma of B exceeds cutoff + scatter, Weyl's inequality
gives the nilpotent part of B's Schur form rank m_a - 1: one block of size
m_a (Tolerance.single_block).  Its climb then stops after level 1 and
reports the staircase 1 .. m_a.  root_space without the spectrum keeps
climbing in full, so it is the reference here.  Every other cluster climbs
as before.
"""

import numpy as np
import pytest

from biortho import (
    EigenvalueCluster,
    FamilySpec,
    RootSpaceMismatchError,
    Subspace,
    Tolerance,
    generate,
    point_spectrum,
    root_space,
    subspace_angle,
)
from biortho import spectral
from conftest import Calls

DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)
DELTA = 1e-3
# eigenvalues -delta, 0 and delta: one cluster at cluster_eps 1e-2, scatter delta
SPREAD = np.array([[-DELTA, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, DELTA]], dtype=complex)


def _pinned(value):
    """A default Tolerance whose single_block returns value whatever its operands."""
    return type("Pinned", (Tolerance,), {"single_block": lambda self, *operands: value})()


def _spectrum_svds(monkeypatch, a, tol):
    with monkeypatch.context() as patched:
        calls = Calls(patched, names=("svd",))
        ps = point_spectrum(a, tol)
    return ps, calls


ONE_BLOCK = (
    [pytest.param(FamilySpec("shift_trunc", n), id="shift%d" % n) for n in (8, 24, 48, 112)]
    + [pytest.param(FamilySpec("jordan", 16, {"eigenvalue": lam, "segre": (16,)}), id="jordan16-%s" % lam)
       for lam in (0.0, 1 + 1j)]
    + [pytest.param(FamilySpec("weighted_shift_trunc", 6, {"ratio": 0.5}), id="weighted6")]
)


@pytest.mark.parametrize("spec", ONE_BLOCK)
def test_the_certified_block_is_the_full_climb(spec, monkeypatch):
    a = generate(spec)
    n = spec.size
    ps, calls = _spectrum_svds(monkeypatch, a, DEFAULT)
    (c,) = ps.clusters
    # level 1 and the left split only: the climb stopped after level 1
    assert calls.shapes["svd"] == [(n, n)] * 2
    short, full = root_space(a, c, DEFAULT, ps), root_space(a, c, DEFAULT)
    assert short.staircase == full.staircase == tuple(range(1, n + 1))
    assert short.segre == full.segre == (n,)
    assert c.climb.cutoff == spectral._climb(a, c.value, c.scatter, DEFAULT, n)[2].cutoff
    assert subspace_angle(short.space, full.space) <= 1e-12
    assert subspace_angle(short.adjoint_space, full.adjoint_space) <= 1e-12


def test_a_single_block_takes_two_real_svds_at_full_size(monkeypatch):
    a = generate(FamilySpec("shift_trunc", 64))
    _, calls = _spectrum_svds(monkeypatch, a, DEFAULT)
    # level 1 and the left split, both of the exactly real shifted matrix,
    # and no SVD of a trailing block
    assert calls.shapes["svd"] == [(64, 64)] * 2
    assert calls.dtypes["svd"] == [np.dtype(np.float64)] * 2


def test_the_site_reads_the_tolerance_method(monkeypatch):
    a = generate(FamilySpec("shift_trunc", 24))
    ps, calls = _spectrum_svds(monkeypatch, a, _pinned(False))
    # refused, the climb takes one SVD per level past level 1, and the left split
    assert calls.shapes["svd"] == [(24, 24)] * 2 + [(m, m) for m in range(23, 0, -1)]
    assert ps.clusters[0].climb.levels == tuple(range(1, 25))


def test_a_scatter_above_the_cutoff_keeps_climbing(monkeypatch):
    ps, calls = _spectrum_svds(monkeypatch, SPREAD, WIDE)
    (c,) = ps.clusters
    assert c.algebraic_multiplicity == 3 and c.geometric_multiplicity == 1
    assert c.scatter > c.climb.cutoff
    # level 1, the left split and the nonsingular 2 x 2 trailing block
    assert calls.shapes["svd"] == [(3, 3), (3, 3), (2, 2)]
    with pytest.raises(RootSpaceMismatchError) as err:
        root_space(SPREAD, c, WIDE, ps)
    assert err.value.staircase == (1,)


def test_a_cluster_with_several_eigenvectors_keeps_climbing(monkeypatch):
    spec = FamilySpec("jordan", 32, {"eigenvalue": 1 - 1j, "segre": (16, 8, 4, 2, 1, 1)})
    a = generate(spec)
    ps, calls = _spectrum_svds(monkeypatch, a, DEFAULT)
    (c,) = ps.clusters
    short, full = root_space(a, c, DEFAULT, ps), root_space(a, c, DEFAULT)
    assert short.staircase[0] == 6 and short.segre == full.segre == (16, 8, 4, 2, 1, 1)
    assert short.staircase == full.staircase
    assert calls.shapes["svd"] == [(32, 32)] * 2 + [(32 - d, 32 - d) for d in short.staircase[:-1]]


def test_a_cluster_without_its_spectrum_climbs_in_full(monkeypatch):
    # a hand-made cluster has no scatter or multiplicity from point_spectrum's
    # own clustering, so root_space climbs it level by level
    a = generate(FamilySpec("shift_trunc", 24))
    e = np.eye(24, dtype=complex)
    hand = EigenvalueCluster(value=0j, algebraic_multiplicity=24, right_kernel=Subspace(24, e[:, :1]),
                             left_kernel=Subspace(24, e[:, 23:]))
    calls = Calls(monkeypatch, names=("svd",))
    rs = root_space(a, hand)
    assert rs.staircase == tuple(range(1, 25))
    assert calls.shapes["svd"] == [(m, m) for m in range(24, 0, -1)]


def test_only_a_cluster_that_fills_its_frame_skips_its_climb(monkeypatch):
    # exact blocks (3) at 0 and (2) at 1: both fail the eig certificate, so the
    # first climbs unframed at n = 5 > m_a, the second fills its 2 x 2 frame
    j = np.zeros((5, 5), dtype=complex)
    j[:3, :3] = np.eye(3, k=1)
    j[3:, 3:] = np.eye(2) + np.eye(2, k=1)
    ps, calls = _spectrum_svds(monkeypatch, j, DEFAULT)
    assert [c.scatter for c in ps.clusters] == [0.0, 0.0]
    # level 1, the left split and one SVD per further level down to T at 0,
    # then level 1 and the left split alone in the frame at 1
    assert calls.shapes["svd"] == [(5, 5), (5, 5), (4, 4), (3, 3), (2, 2), (2, 2), (2, 2)]
    for c, segre in zip(ps.clusters, ((3,), (2,))):
        short, full = root_space(j, c, DEFAULT, ps), root_space(j, c, DEFAULT)
        assert short.staircase == full.staircase and short.segre == full.segre == segre
        assert subspace_angle(short.space, full.space) <= 1e-12
        assert subspace_angle(short.adjoint_space, full.adjoint_space) <= 1e-12
