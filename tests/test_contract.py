"""The paper's implications between verdicts, asserted as a contract over the gallery.

The paper illustrates its conditions on normal operators.  In exact
arithmetic every report satisfies:

(i)   is_normal => normality marks (a)-(e) all PASS;
(ii)  marks (a)-(e) all PASS => is_normal;
(iii) biorthonormal_basis_exists => no FAIL among C1-C4 (VACUOUS is no FAIL);
(iv)  diagonalizable => C2', C3' and C4' read as C2, C3 and C4;
(v)   C4 PASS => C4' PASS;
(vi)  diagonalizable <=> mark (b) PASS.

A shift A + cI has the commutator of A, so it keeps is_normal too.  The
inputs are every gallery family at n <= 32, three seeds where a family
draws from one, each under the shifts c in {0, 1e3, 1e6}.  block_jordan
members are semi-simple: a defective block under a cond-10 similarity
splits into a ring of simple eigenvalues at the default cluster radius.
Near-scalar members I + 1e-12 X, X a Jordan block or a Gaussian, have a
commutator far above residual_eps ||B||_F^2, but every climb collapses
them to one semi-simple cluster (Tolerance.collapse_bound): the marks
PASS, and is_normal must read B as 0 too.
"""

import numpy as np
import pytest

from biortho import PASS, FamilySpec, check_conditions, generate

SIZES = (2, 3, 4, 8, 16, 32)
SEEDS = (0, 1, 2)
SHIFTS = (0.0, 1e3, 1e6)


def _semi_simple_pairs(n):
    # 2 x 2 identity blocks at 0, 1, 2, ..., and one simple eigenvalue when n is odd
    return tuple((float(k), (1, 1)) for k in range(n // 2)) + ((float(n // 2), (1,)),) * (n % 2)


MEMBERS = (
    [FamilySpec(name, n) for n in (1,) + SIZES for name in ("jordan", "diag", "shift_trunc", "weighted_shift_trunc")]
    + [FamilySpec(name, n, seed=seed) for seed in SEEDS for n in SIZES
       for name in ("random_gaussian", "random_normal")]
    + [FamilySpec("block_jordan", n, {"blocks": _semi_simple_pairs(n), "cond": 10.0}, seed)
       for seed in SEEDS for n in SIZES]
    + [FamilySpec("pt_dimer", 2, {"a": a}) for a in (0.5, 1.0, 2.0)]
    + [FamilySpec("ep_family", 2, {"t": t}) for t in (0.0, 0.5, 1.0)]
)
IDS = ["%s%d-seed%d%s" % (m.name, m.size, m.seed, "".join("-%s%g" % kv for kv in m.params.items() if kv[0] in "at"))
       for m in MEMBERS]
NEAR_SCALAR = [FamilySpec(name, n, seed=1) for name in ("jordan", "random_gaussian") for n in (2, 8, 32)]


def _broken_rules(report):
    """The names of the implications (i)-(vi) this report contradicts."""
    marks = all(mark == PASS for mark in report.normality.properties.values())
    status = {v.id: v.status for v in report.conditions}
    holds = {
        "i": not report.normality.is_normal or marks,
        "ii": not marks or report.normality.is_normal,
        "iii": not report.biorthonormal_basis_exists or all(status[c] != "FAIL" for c in ("C1", "C2", "C3", "C4")),
        "iv": not report.diagonalizable or all(status[c + "'"] == status[c] for c in ("C2", "C3", "C4")),
        "v": status["C4"] != PASS or status["C4'"] == PASS,
        "vi": report.diagonalizable == (report.normality.properties["b"] == PASS),
    }
    return [rule for rule, ok in holds.items() if not ok]


def _shifts_keep_the_implications(a):
    """is_normal of A + cI at each shift, after asserting (i)-(vi) there."""
    eye = np.eye(len(a))
    normal = []
    for c in SHIFTS:
        report = check_conditions(a + c * eye)
        assert _broken_rules(report) == [], "shift %g" % c
        normal.append(report.normality.is_normal)
    assert normal == [normal[0]] * len(SHIFTS)
    return normal[0]


@pytest.mark.parametrize("spec", MEMBERS, ids=IDS)
def test_every_report_keeps_the_papers_implications_under_shifts(spec):
    _shifts_keep_the_implications(generate(spec))


@pytest.mark.parametrize("spec", NEAR_SCALAR, ids=["%s%d" % (m.name, m.size) for m in NEAR_SCALAR])
def test_a_near_scalar_matrix_is_normal_as_its_marks_say(spec):
    assert _shifts_keep_the_implications(np.eye(spec.size) + 1e-12 * generate(spec))
