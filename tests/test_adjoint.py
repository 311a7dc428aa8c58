"""The adjoint side derived from A's own staircase, against a second pass over A*.

check_conditions takes the adjoint's root spaces from the deflation of
A - lambda I, as Q[I; S*] = Ran((A - lambda I)^h)-perp off its final
form Q*(A - lambda I)Q = [[N, X], [0, T]], and decides
biorthonormal_basis_exists from the skew links it has already computed.
The references here take the long way round: a full point spectrum and
root staircase of A*, an actual construction, and the defining
properties of a root space of A*.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    NotDiagonalizableError,
    SkewLinkFailureError,
    Tolerance,
    adjoint_point_spectrum,
    biorthonormalize,
    check_conditions,
    generate,
    point_spectrum,
    read_matrix,
    root_space,
    subspace_angle,
)

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)

CASES = [pytest.param(str(p), DEFAULT, id=p.name) for p in CORPUS] + [
    pytest.param(FamilySpec("random_gaussian", 12, {}, 5), DEFAULT, id="gaussian12"),
    pytest.param(
        FamilySpec("block_jordan", 7, {"blocks": ((0.0, (2, 1)), (1.0, (3,)), (2.0, (1,))), "cond": 10.0}, 4),
        WIDE,
        id="block_jordan7",
    ),
    pytest.param(FamilySpec("shift_trunc", 10), DEFAULT, id="shift10"),
]
# 28 blocks at 0, 1, ..., 27 cycling through four Segre patterns: n = 63
MIXED = tuple((float(k), ((2, 1), (1,), (3,), (1, 1))[k % 4]) for k in range(28))


def _chain_into(size, gap):
    """A Jordan chain at 0 that runs into one eigenvalue gap away.

    S in Q[I; S*] grows like gap^-size, past what [I; S*] can hold
    accurately, and at (61, 1e-6) past the largest double.
    """
    a = np.diag(np.ones(size - 1), 1).astype(complex)
    a[-1, -1] = gap
    return a


def _matrix(source):
    if isinstance(source, np.ndarray):
        return source
    return read_matrix(source) if isinstance(source, str) else generate(source)


@pytest.mark.parametrize("source, tol", CASES)
def test_derived_adjoint_root_space_matches_adjoint_staircase(source, tol):
    a = _matrix(source)
    adjoint_clusters = adjoint_point_spectrum(a, tol).clusters
    for c in point_spectrum(a, tol).clusters:
        partner = min(adjoint_clusters, key=lambda d: abs(d.value - np.conj(c.value)))
        derived = root_space(a, c, tol)
        reference = root_space(a.conj().T, partner, tol)
        assert derived.staircase == reference.staircase
        assert subspace_angle(derived.adjoint_space, reference.space) <= 1e-10


@pytest.mark.parametrize("source, tol", CASES)
def test_existence_verdict_matches_construction(source, tol):
    a = _matrix(source)
    try:
        biorthonormalize(a, tol=tol)
        constructed = True
    except (SkewLinkFailureError, NotDiagonalizableError):
        constructed = False
    assert check_conditions(a, tol).biorthonormal_basis_exists == constructed


@pytest.mark.parametrize("source, tol", CASES)
def test_adjoint_swaps_sides_but_keeps_statuses(source, tol):
    a = _matrix(source)
    mine = {v.id: v.status for v in check_conditions(a, tol).conditions}
    theirs = {v.id: v.status for v in check_conditions(a.conj().T, tol).conditions}
    assert mine == theirs


@pytest.mark.parametrize("source, tol", CASES + [
    pytest.param(FamilySpec("block_jordan", 63, {"blocks": MIXED, "cond": 100.0}, 5), WIDE, id="mixed63"),
    pytest.param(_chain_into(12, 1e-3), DEFAULT, id="chain12"),
    pytest.param(_chain_into(61, 1e-6), DEFAULT, id="chain61"),
])
def test_adjoint_root_space_is_invariant_and_orthogonal_to_the_other_root_spaces(source, tol):
    # no staircase of A* here: W must be invariant under A*, and
    # Ker((A^* - conj(lambda) I)^h) is orthogonal to every root space of
    # A at another eigenvalue
    a = _matrix(source)
    scale = np.linalg.norm(a, 2)
    clusters = point_spectrum(a, tol).clusters
    roots = [root_space(a, c, tol) for c in clusters]
    for i, c in enumerate(clusters):
        if c.kernels_are_root_spaces:
            continue
        w = roots[i].adjoint_space.basis
        image = a.conj().T @ w
        assert np.linalg.norm(image - w @ (w.conj().T @ image), 2) <= 1e-10 * scale
        for j, other in enumerate(roots):
            if j != i:
                assert np.linalg.norm(w.conj().T @ other.space.basis, 2) <= 1e-10
