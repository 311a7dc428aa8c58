"""check_conditions' reused verdicts against a pass that decides everything afresh.

Where a cluster's kernels are its root spaces, check_conditions takes
C2's skew link and sigma-set verdict for C2' and the root sigma set, and
span_report takes kappa_v and the root spans from the eigenvector SVDs.
The reference here judges every root_space pair with its own
subspace_angle and skew_link_check, ranks every stacked basis with its
own SVD, and takes kappa_v from condition_number.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    Tolerance,
    check_conditions,
    condition_number,
    generate,
    point_spectrum,
    read_matrix,
    root_space,
    skew_link_check,
    subspace_angle,
)
from biortho.conditions import _check_skew

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)
SEMI_SIMPLE = FamilySpec("block_jordan", 6, {"blocks": ((0.0, (1, 1)), (1.0, (1, 1, 1)), (2.0, (1,))),
                                             "cond": 10.0}, 3)

CASES = [pytest.param(str(p), tol, id="%s-%s" % (p.name, name))
         for p in CORPUS for tol, name in ((DEFAULT, "default"), (WIDE, "wide"))] + [
    pytest.param(FamilySpec("random_gaussian", 12, {}, 5), DEFAULT, id="gaussian12"),
    pytest.param(SEMI_SIMPLE, WIDE, id="semi_simple_block_jordan6"),
    pytest.param(
        FamilySpec("block_jordan", 7, {"blocks": ((0.0, (2, 1)), (1.0, (3,)), (2.0, (1,))), "cond": 10.0}, 4),
        WIDE,
        id="defective_block_jordan7",
    ),
]


def _rank(blocks, tol):
    basis = np.hstack(blocks)
    s = np.linalg.svd(basis, compute_uv=False)
    return int(np.count_nonzero(s > tol.rank_eps * s[0] * max(basis.shape)))


def _reference(a, tol):
    ps = point_spectrum(a, tol)
    roots = [root_space(a, c, tol) for c in ps.clusters]
    differing = [i for i, r in enumerate(roots)
                 if subspace_angle(r.space, r.adjoint_space) > 10.0 * tol.residual_eps]
    c2p = _check_skew(
        "C2'",
        {i: skew_link_check(roots[i].space, roots[i].adjoint_space, tol, i) for i in differing},
        "no cluster distinguishes its root subspace from the adjoint's",
    )
    n = a.shape[0]
    c4 = "eigenvectors span %d/%d dimensions (adjoint side %d/%d)" % (
        _rank([c.right_kernel.basis for c in ps.clusters], tol), n,
        _rank([c.left_kernel.basis for c in ps.clusters], tol), n)
    c4p = "root subspaces span %d/%d dimensions (adjoint side %d/%d)" % (
        _rank([r.space.basis for r in roots], tol), n,
        _rank([r.adjoint_space.basis for r in roots], tol), n)
    v = np.hstack([c.right_kernel.basis for c in ps.clusters])
    kappa = condition_number(v, tol) if v.shape[1] == n else float("inf")
    return c2p, c4, c4p, kappa


@pytest.mark.parametrize("source, tol", CASES)
def test_reused_verdicts_match_a_fresh_pass(source, tol):
    a = read_matrix(source) if isinstance(source, str) else generate(source)
    report = check_conditions(a, tol)
    c2p, c4, c4p, kappa = _reference(a, tol)
    got = report.condition("C2'")
    assert (got.status, got.witnesses, got.detail) == (c2p.status, c2p.witnesses, c2p.detail)
    assert report.condition("C4").detail == c4
    assert report.condition("C4'").detail == c4p
    assert report.kappa_v == kappa


def test_semi_simple_multiple_clusters_reuse_their_kernel_verdicts():
    # the reference above must see reuse on multiple clusters, not only
    # on simple ones: every cluster here is oblique and semi-simple
    a = generate(SEMI_SIMPLE)
    report = check_conditions(a, WIDE)
    multiple = [i for i, c in enumerate(report.spectrum.clusters) if c.algebraic_multiplicity > 1]
    assert multiple and all(report.spectrum.clusters[i].kernels_are_root_spaces for i in multiple)
    assert set(multiple) <= set(report.sigma_set)
    assert report.condition("C2'").witnesses == report.condition("C2").witnesses
