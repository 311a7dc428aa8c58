"""The adjoint side derived from A's own SVDs, against a second pass over A*.

check_conditions reads the adjoint's root spaces off the staircase SVDs
of A and decides biorthonormal_basis_exists from the skew links it has
already computed.  The references here take the long way round: a full
point spectrum and root staircase of A*, and an actual construction.
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


def _matrix(source):
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
