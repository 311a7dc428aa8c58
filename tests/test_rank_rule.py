"""One rank decision per level: a cluster's kernel is its staircase's first level.

Kublanovskaya's staircase d_k = dim Ker(B^k), B = A - lambda I, starts at
the eigenspace (Kagstrom & Ruhe, ACM TOMS 6(3), 1980), so the geometric
multiplicity m_g of every cluster is d_1, and the Weyr characteristic
counts d_1 Jordan blocks.  Every report must say so of every cluster:
a non-certified cluster climbs once, and its level 1 gives its right
kernel and sets the one cutoff rank_eps * n * max(sigma_1, |lambda|) that
every later level and its left split read.
"""

from pathlib import Path

import numpy as np
import pytest

from biortho import FamilySpec, Tolerance, check_conditions, generate, point_spectrum, read_matrix, root_space
from conftest import Calls
from test_frame import CASES as FRAME_CASES, _matrix

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
WIDE = Tolerance(cluster_eps=1e-2)
MIXED = tuple((float(k), ((2, 1), (1,), (3,), (1, 1))[k % 4]) for k in range(28))


def _reproducer():
    # |lambda| = 1e6 far above ||A - lambda I||_2 = 1: only the cutoff anchored
    # to |lambda| counts the 1e-5 coupling as zero, on every level alike
    a = 1e6 * np.eye(3)
    a[0, 1], a[1, 2] = 1.0, 1e-5
    return a


DEFECTIVE = [
    pytest.param(FamilySpec("block_jordan", 63, {"blocks": MIXED, "cond": cond}, seed), WIDE,
                 id="bj_mixed-cond%g" % cond)
    for cond, seed in ((10.0, 11), (100.0, 12))
] + [
    pytest.param(FamilySpec("block_jordan", 12, {"blocks": ((0.0, (2, 2)), (1.0, (3, 1)), (2.0, (1, 1, 1, 1))),
                                                 "cond": 30.0}, 13), WIDE, id="bj_repeated"),
    pytest.param(FamilySpec("jordan", 128, {"eigenvalue": 0j, "segre": (64, 32, 16, 8, 4, 2, 1, 1)}), Tolerance(),
                 id="jordan_deep"),
    pytest.param(FamilySpec("shift_trunc", 48), Tolerance(), id="shift48"),
]

CASES = (
    [pytest.param(str(p), Tolerance(cluster_eps=eps), id="%s-%g" % (p.name, eps))
     for p in CORPUS for eps in (1e-8, 1e-2)]
    + [pytest.param(*param.values, id="frame-" + param.id) for param in FRAME_CASES]
    + DEFECTIVE
    + [pytest.param(_reproducer(), Tolerance(), id="anchored")]
)


def _source(source):
    if isinstance(source, str):
        return read_matrix(source)
    return generate(source) if isinstance(source, FamilySpec) else _matrix(source)


@pytest.mark.parametrize("source, tol", CASES)
def test_geometric_multiplicity_is_the_first_level_and_the_block_count(source, tol):
    a = _source(source)
    report = check_conditions(a, tol)
    for c in report.spectrum.clusters:
        rs = root_space(a, c, tol, report.spectrum)
        assert c.geometric_multiplicity == rs.staircase[0] == len(rs.segre)
        assert rs.space.dim == c.algebraic_multiplicity == sum(rs.segre)


def test_an_anchored_cutoff_decides_every_level():
    a = _reproducer()
    tol = Tolerance()
    ps = point_spectrum(a, tol)
    (c,) = ps.clusters
    assert (c.algebraic_multiplicity, c.geometric_multiplicity) == (3, 2)
    # the one cutoff: rank_eps * n * |lambda| = 3e-4, above sigma_1 = 1's share
    assert c.climb.cutoff == pytest.approx(1e-10 * 3 * 1e6)
    for rs in (root_space(a, c, tol, ps), root_space(a, c, tol)):
        assert (rs.staircase, rs.segre) == ((2, 3), (2, 1))
    report = check_conditions(a, tol)
    assert report.condition("C4").detail.startswith("eigenvectors span 2/3")


def test_a_framed_defective_input_takes_no_full_size_svd_but_the_spans(monkeypatch):
    a = generate(FamilySpec("block_jordan", 63, {"blocks": MIXED, "cond": 30.0}, 14))
    calls = Calls(monkeypatch, names=("svd",))
    report = check_conditions(a, WIDE)
    monkeypatch.undo()
    assert not report.diagonalizable
    # span_report's ranks of the stacked root bases of A and of A^*; the
    # eigenvector stacks are short of 63 columns and every climb runs in the frame
    assert sum(1 for shape in calls.shapes["svd"] if shape[-1] == 63) == 2


def test_a_one_cluster_input_takes_two_full_size_svds(monkeypatch):
    a = generate(FamilySpec("jordan", 12, {"eigenvalue": 0.0, "segre": (8, 4)}))
    calls = Calls(monkeypatch, names=("svd",))
    (c,) = point_spectrum(a).clusters
    # level 1 of the climb and the left split; the later levels shrink
    assert calls.square("svd", 12) == 2
    assert c.climb.levels == (2, 4, 6, 8, 9, 10, 11, 12)


def test_a_one_cluster_diagnosis_takes_two_full_size_svds(monkeypatch):
    # the root spaces of A and A^* are all of C^n, one orthonormal block
    # each, so span_report takes their ranks from their width n
    a = generate(FamilySpec("jordan", 32, {"eigenvalue": 0.0, "segre": (16, 8, 4, 2, 1, 1)}))
    calls = Calls(monkeypatch, names=("svd",))
    report = check_conditions(a)
    monkeypatch.undo()
    assert report.condition("C4").status == "FAIL" and report.condition("C4'").status == "PASS"
    # level 1 of the climb and the left split; V and W have 6 columns
    assert sum(1 for shape in calls.shapes["svd"] if shape[-1] == 32) == 2
