"""The result types compare by value.

Subspace and BiorthoPair, the two types that hold arrays, compare them
entry for entry (np.array_equal), so every result built from them (a
cluster, a spectrum, a root space, a diagnosis, a system) compares by
value with ==, where the generated comparison of an array field would ask
numpy for one truth value of many.
"""

import numpy as np
import pytest

from biortho import (
    BiorthoPair,
    FamilySpec,
    Subspace,
    Tolerance,
    biorthonormalize,
    check_conditions,
    generate,
    point_spectrum,
    root_space,
)
from conftest import random_complex

CASES = [
    (random_complex(6, None, 1), Tolerance()),
    # (2, 1) at 0 and (3,) at 2 climb; (1, 1) at 1 and (1,) at 3 do not
    (generate(FamilySpec("block_jordan", 9, {"blocks": ((0.0, (2, 1)), (1.0, (1, 1)), (2.0, (3,)), (3.0, (1,))),
                                             "cond": 10.0}, 4)), Tolerance(cluster_eps=1e-2)),
    (generate(FamilySpec("block_jordan", 8, {"blocks": tuple((float(k), (1, 1)) for k in range(4)), "cond": 10.0}, 3)),
     Tolerance(cluster_eps=1e-2)),
]


def _results(a, tol):
    report = check_conditions(a, tol)
    spectrum = point_spectrum(a, tol)
    roots = tuple(root_space(a, c, tol, spectrum) for c in spectrum.clusters)
    system = biorthonormalize(a, tol=tol) if report.biorthonormal_basis_exists else None
    return report, spectrum, roots, system


@pytest.mark.parametrize("a, tol", CASES, ids=["gaussian6", "mixed9", "semisimple8"])
def test_results_of_one_matrix_are_equal_and_of_a_scaled_one_are_not(a, tol):
    first, second, scaled = _results(a, tol), _results(a, tol), _results(a * (1 + 1e-7), tol)
    for one, two, other in zip(first, second, scaled):
        if one is None:
            continue
        assert one == two and not one != two
        assert one != other and not one == other
    # a diagnosis's spectrum and its clusters are point_spectrum's
    assert first[0].spectrum == first[1] and first[0].spectrum.clusters == first[1].clusters


def test_subspaces_and_pairs_compare_their_arrays_entry_for_entry():
    basis = np.eye(3, dtype=complex)[:, :2]
    nudged = basis.copy()
    nudged[0, 0] = np.nextafter(1.0, 2.0)
    assert Subspace(3, basis) == Subspace(3, basis.copy())
    assert Subspace(3, basis) != Subspace(3, nudged)
    assert Subspace(3, basis) != Subspace(3, basis[:, :1])
    assert Subspace(3, basis) != "Subspace" and Subspace(3, basis) != None
    psi, chi = np.ones(2, dtype=complex), np.array([1.0, -1.0], dtype=complex)
    pair = BiorthoPair(psi, chi, 0)
    assert pair == BiorthoPair(psi.copy(), chi.copy(), 0)
    assert pair != BiorthoPair(psi, chi, 1)
    assert pair != BiorthoPair(chi, psi, 0)
    assert pair != BiorthoPair(psi, np.append(chi, 0.0), 0)


def test_the_result_types_refuse_hash_by_their_own_name():
    # they compare by value, so none hashes; the TypeError names the type that
    # holds the arrays, not a numpy type inside it
    a, tol = CASES[1]
    report, spectrum, roots, _ = _results(a, tol)
    climbed = next(c for c in spectrum.clusters if c.climb is not None)
    system = biorthonormalize(CASES[0][0])
    results = {"Subspace": climbed.right_kernel, "Climb": climbed.climb, "EigenvalueCluster": climbed,
               "PointSpectrum": spectrum, "RootSpace": root_space(a, climbed, tol, spectrum),
               "DiagnosisReport": report, "BiorthoPair": system.pairs[0], "BiorthonormalSystem": system}
    for name, result in results.items():
        assert type(result).__name__ == name
        with pytest.raises(TypeError) as caught:
            hash(result)
        message = str(caught.value)
        assert message in ("unhashable type: 'Subspace'", "unhashable type: 'BiorthoPair'")
        assert "numpy" not in message and "ndarray" not in message
        assert result == result and not result != result
    # a pair against another type defers to it, and so is unequal
    pair = system.pairs[0]
    assert pair.__eq__(pair.psi.tolist()) is NotImplemented
    assert pair != "BiorthoPair" and not pair == (pair.psi, pair.chi, pair.cluster_index)
