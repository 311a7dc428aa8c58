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
One Jordan block of size 4 beside four simple eigenvalues raises
ClusteringError unshifted, so those members are checked at c in
{1e3, 1e6} only.  is_normal reads the marks, so (i) and (ii) hold by
construction.  The near-scalar members I + 1e-12 X (X a Jordan block or
a Gaussian), which every climb collapses to one semi-simple cluster, and
the near-normal members, each a normal matrix plus a small off-diagonal
part, are inputs on which a commutator threshold and the marks disagree.

A unitary similarity Q A Q^* keeps every verdict, multiplicity and the
sigma set.  It is checked on each member above without a defective
cluster, under two Haar unitaries.
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
# a normal matrix plus a small off-diagonal part, which the marks may read either way
NEAR_NORMAL = {
    "normal32+gaussian": generate(FamilySpec("random_normal", 32, seed=3))
    + 3e-9 * generate(FamilySpec("random_gaussian", 32, seed=4)),
    "diag2+1e-8": np.array([[1.0, 1e-8], [0.0, 2.0]]),
    "diag2+3e-8": np.array([[1.0, 3e-8], [0.0, 2.0]]),
    # a double eigenvalue whose cluster collapses in its frame under |lambda| = 1e6
    "framed-collapse": np.array([[1e6, 0.0, 0.0], [0.0, 1e6 + 0.1, 3e-5], [0.0, 0.0, 1e6 + 0.1]]),
}
# one Jordan block of size 4 beside four simple eigenvalues; unshifted it raises ClusteringError
JORDAN4 = ((0.0, (4,)),) + tuple((float(k), (1,)) for k in (1, 2, 3, 4))
DEFECTIVE_SHIFTED = [FamilySpec("block_jordan", 8, {"blocks": JORDAN4, "cond": 10.0}, seed) for seed in (0, 1)]
# the members with no defective cluster: exceptional points and truncated shifts left out
DIAGONALIZABLE = [(m, i) for m, i in zip(MEMBERS, IDS)
                  if not (m.name in ("jordan", "shift_trunc", "weighted_shift_trunc") and m.size >= 2
                          or m.name == "pt_dimer" and m.params["a"] == 1.0
                          or m.name == "ep_family" and m.params["t"] == 0.0)]
UNITARY_SEEDS = (11, 12)


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


def _shifts_keep_the_implications(a, shifts=SHIFTS):
    """is_normal of A + cI at each shift, after asserting (i)-(vi) there."""
    eye = np.eye(len(a))
    normal = []
    for c in shifts:
        report = check_conditions(a + c * eye)
        assert _broken_rules(report) == [], "shift %g" % c
        normal.append(report.normality.is_normal)
    assert normal == [normal[0]] * len(shifts)
    return normal[0]


def _haar_unitary(n, seed):
    """The Q of a complex Gaussian's QR, its columns phase-fixed so that Q is Haar distributed."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _invariants(report):
    """What a unitary similarity keeps: statuses, flags, multiplicities, kernel widths and the sigma set."""
    ps = report.spectrum
    return ([v.status for v in report.conditions], report.normality.is_normal, report.diagonalizable,
            report.biorthonormal_basis_exists, ps._algebraic.tolist(), ps._right.widths.tolist(),
            ps._left.widths.tolist(), report.sigma_set)


@pytest.mark.parametrize("spec", MEMBERS, ids=IDS)
def test_every_report_keeps_the_papers_implications_under_shifts(spec):
    _shifts_keep_the_implications(generate(spec))


@pytest.mark.parametrize("spec", NEAR_SCALAR, ids=["%s%d" % (m.name, m.size) for m in NEAR_SCALAR])
def test_a_near_scalar_matrix_is_normal_as_its_marks_say(spec):
    assert _shifts_keep_the_implications(np.eye(spec.size) + 1e-12 * generate(spec))


@pytest.mark.parametrize("name", NEAR_NORMAL)
def test_a_near_normal_matrix_is_normal_as_its_marks_say(name):
    _shifts_keep_the_implications(NEAR_NORMAL[name])


@pytest.mark.parametrize("spec", DEFECTIVE_SHIFTED, ids=["seed%d" % m.seed for m in DEFECTIVE_SHIFTED])
def test_a_shifted_jordan_block_among_simple_eigenvalues_keeps_the_implications(spec):
    _shifts_keep_the_implications(generate(spec), shifts=SHIFTS[1:])


@pytest.mark.parametrize("seed", UNITARY_SEEDS)
@pytest.mark.parametrize("spec", [m for m, _ in DIAGONALIZABLE], ids=[i for _, i in DIAGONALIZABLE])
def test_a_unitary_similarity_keeps_the_verdicts(spec, seed):
    a = generate(spec)
    q = _haar_unitary(len(a), seed)
    assert _invariants(check_conditions(q @ a @ q.conj().T)) == _invariants(check_conditions(a))
