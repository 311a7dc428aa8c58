"""Root staircases by unitary deflation, against the power route they replace.

root_space climbs by SVDs of the shrinking trailing blocks of Q*(A -
lambda I)Q.  The reference below climbs by SVDs of the normalized powers
(A - lambda I)^k and reads the adjoint's root space off the left singular
vectors of the last power; both routes must find the same staircases and
the same subspaces.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import (
    BiorthoError,
    EigenIterationError,
    FamilySpec,
    RootSpaceMismatchError,
    Subspace,
    Tolerance,
    check_conditions,
    generate,
    point_spectrum,
    read_matrix,
    root_space,
    subspace_angle,
)
from biortho.rootspace import _segre_from_staircase
from conftest import Calls, count_norm2

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)
# 28 blocks at 0, 1, ..., 27 cycling through four Segre patterns: n = 63
MIXED = tuple((float(k), ((2, 1), (1,), (3,), (1, 1))[k % 4]) for k in range(28))


def _power_root_space(a, lam, tol):
    """Staircase, root space and adjoint root space from the powers of A - lam I.

    Each power is rescaled by its operator norm before the next
    multiplication, and its rank cutoff is relative to the power itself,
    floored at rank_eps.
    """
    n = a.shape[0]
    shifted = a - lam * np.eye(n)
    base = shifted / np.linalg.norm(shifted, 2)
    power = base
    staircase = []
    for _ in range(n):
        u, s, vh = np.linalg.svd(power)
        rank = int(np.count_nonzero(s > tol.rank_eps * max(n * float(s[0]), 1.0)))
        if staircase and n - rank <= staircase[-1]:
            break
        staircase.append(n - rank)
        stable = (u, vh, rank)
        if rank == 0:
            break
        power = (power / s[0]) @ base
    u, vh, rank = stable
    return tuple(staircase), Subspace(n, vh[rank:].conj().T), Subspace(n, u[:, rank:])


REFERENCE_CASES = (
    [pytest.param(str(p), tol, id="%s-%g" % (p.name, tol.cluster_eps)) for p in CORPUS for tol in (DEFAULT, WIDE)]
    + [
        pytest.param(FamilySpec("block_jordan", 63, {"blocks": MIXED, "cond": cond}, 5), WIDE, id="mixed63-cond%g" % cond)
        for cond in (10.0, 100.0)
    ]
    + [
        pytest.param(FamilySpec("jordan", 32, {"eigenvalue": 1 - 1j, "segre": (16, 8, 4, 2, 1, 1)}), DEFAULT,
                     id="jordan32"),
        pytest.param(FamilySpec("shift_trunc", 48), DEFAULT, id="shift48"),
    ]
)


@pytest.mark.parametrize("source, tol", REFERENCE_CASES)
def test_deflation_matches_the_power_route(source, tol):
    a = read_matrix(source) if isinstance(source, str) else generate(source)
    climbing = [c for c in point_spectrum(a, tol).clusters if not c.kernels_are_root_spaces]
    if not isinstance(source, str):
        assert climbing
    for c in climbing:
        rs = root_space(a, c, tol)
        staircase, space, adjoint = _power_root_space(a, complex(c.value), tol)
        assert rs.staircase == staircase
        assert rs.segre == _segre_from_staircase(staircase, c.value)
        assert subspace_angle(rs.space, space) <= 1e-9
        assert subspace_angle(rs.adjoint_space, adjoint) <= 1e-9


def test_deflation_takes_shrinking_svds_and_no_powers(monkeypatch):
    a = generate(FamilySpec("shift_trunc", 24))
    (c,) = point_spectrum(a).clusters
    calls = Calls(monkeypatch, names=("svd", "qr", "solve", "inv"))
    norms = count_norm2(monkeypatch)
    rs = root_space(a, c)
    assert rs.staircase == tuple(range(1, 25))
    # one SVD per level, of the trailing block only; a power of the
    # shifted matrix would take an SVD of the full 24 x 24 size
    assert calls.shapes["svd"] == [(m, m) for m in range(24, 0, -1)]
    # the cutoff comes from the first SVD, and d = n needs no adjoint sum
    assert norms == []
    assert calls.shapes["qr"] == calls.shapes["solve"] == calls.shapes["inv"] == []


@pytest.mark.parametrize("spec", [FamilySpec("shift_trunc", 24),
                                  FamilySpec("jordan", 7, {"eigenvalue": 1j, "segre": (3, 2, 1, 1)})],
                         ids=["shift24", "jordan7"])
def test_a_cluster_of_the_whole_spectrum_keeps_no_rotation(spec):
    # its root spaces are all of C^n, so the identity spans both, and the
    # kernels that the deflation rotates to the front are not kept
    a = generate(spec)
    (c,) = point_spectrum(a).clusters
    rs = root_space(a, c)
    assert np.array_equal(rs.space.basis, np.eye(spec.size)) and rs.adjoint_space is rs.space


def test_adjoint_side_factors_the_trailing_block_once(monkeypatch):
    spec = FamilySpec("block_jordan", 9, {"blocks": ((0.0, (2, 1)), (1.0, (1, 1)), (2.0, (3,)), (3.0, (1,))),
                                           "cond": 10.0}, 4)
    a = generate(spec)
    climbing = [c for c in point_spectrum(a, WIDE).clusters if not c.kernels_are_root_spaces]
    assert sorted(c.algebraic_multiplicity for c in climbing) == [3, 3]
    for c in climbing:
        with monkeypatch.context() as patched:
            calls = Calls(patched, names=("svd", "qr", "solve", "inv"))
            rs = root_space(a, c, WIDE)
        d = rs.space.dim
        assert d < 9
        # the last SVD, of the nonsingular T, is the only factorization of T
        assert calls.shapes["svd"] == [(9 - k, 9 - k) for k in (0,) + rs.staircase]
        assert calls.shapes["solve"] == calls.shapes["inv"] == []
        # and one complete QR of [Y; I] gives the complement of Ran(B^h)
        assert calls.shapes["qr"] == [(9, 9 - d)]


def test_unconverged_staircase_svd_names_the_eigenvalue(monkeypatch):
    a = generate(FamilySpec("shift_trunc", 12))
    (c,) = point_spectrum(a).clusters
    svd = np.linalg.svd

    def failing(m, *args, **kwargs):
        if np.shape(m) == (11, 11):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(m, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing)
    # the second level of the staircase is the first 11 x 11 SVD
    with pytest.raises(EigenIterationError, match=r"SVD did not converge at 0\+0j") as err:
        root_space(a, c)
    assert isinstance(err.value, BiorthoError)


def test_ill_posed_weighted_shift_is_still_refused():
    # the weights' product 0.9^496 ~ 2e-23 puts every eigenvalue of a
    # 1e-16 perturbation at modulus ~0.06; where the staircase stops is
    # roundoff, so only the refusal and the multiplicity are pinned
    a = generate(FamilySpec("weighted_shift_trunc", 32, {"ratio": 0.9}))
    with pytest.raises(RootSpaceMismatchError) as err:
        check_conditions(a)
    assert err.value.algebraic_multiplicity == 32
