"""The tolerance policy in one place: every cutoff, radius and threshold is a Tolerance method.

Three kinds of test.  A source guard: outside linalg, no module of the
package reads a Tolerance field, except report (which serializes and
prints them) and cli (which builds the Tolerance).  Boundary tests: a
value exactly at each threshold is decided as it always was; where the
comparison sits outside the method, the test runs its site with a
Tolerance whose one method returns the measured value.  And each
method's float against the formula it stands for.  Normality has no
threshold of its own: is_normal reads the five marks, so their
boundaries are its.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import biortho
from biortho import Tolerance, check_conditions, point_spectrum, sigma_set, span_report
from biortho import spectral
from biortho.biorthogonal import _links, _pair_links
from biortho.linalg import _Blocks
from biortho.spectral import _clustered, kernel_split

FIELDS = ("rank_eps", "cluster_eps", "residual_eps")
# report serializes and prints the fields, cli builds the Tolerance from flags
READERS = ("linalg.py", "report.py", "cli.py")
ODD = Tolerance(rank_eps=3e-11, cluster_eps=2e-3, residual_eps=7e-9)
NON_NORMAL = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)


def _field_reads(source):
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in FIELDS]


def _pinned(name, value):
    """A default Tolerance whose method (or property) name returns value whatever its operands."""
    rule = property(lambda self: value) if name == "angle_threshold" else (lambda self, *operands: value)
    return type("Pinned", (Tolerance,), {name: rule})()


def test_only_linalg_reads_the_tolerance_fields():
    package = Path(biortho.__file__).parent
    reads = {path.name: _field_reads(path.read_text()) for path in sorted(package.glob("*.py"))
             if path.name not in READERS}
    assert reads and not any(reads.values()), reads
    # the guard sees a read where there is one
    assert _field_reads((package / "linalg.py").read_text())
    assert _field_reads("cutoff = tol.rank_eps * n") == [(1, "rank_eps")]


# boundaries: a value exactly at its threshold, decided at its site


def test_a_stacked_singular_value_at_the_cutoff_counts_as_zero():
    at = 3e-11 * 2.0 * 4
    assert ODD.stacked_rank(np.array([2.0, at, 0.0]), (4, 3)) == 1
    assert ODD.stacked_rank(np.array([2.0, np.nextafter(at, np.inf), 0.0]), (4, 3)) == 2
    assert ODD.stacked_rank(np.zeros(0), (4, 0)) == 0


def test_a_climb_singular_value_at_the_cutoff_counts_as_zero():
    a = np.diag([1.0, 0.5]).astype(complex)
    # the same call _svd makes on a real shifted matrix, so the same bits
    s = np.linalg.svd(a.real)[1]
    assert kernel_split(a, 0j, 0.0, _pinned("climb_cutoff", s[1]))[1].dim == 1
    assert kernel_split(a, 0j, 0.0, _pinned("climb_cutoff", np.nextafter(s[1], 0.0)))[1].dim == 0


def test_a_sigma_max_at_the_collapse_bound_collapses():
    a = np.diag([1.0, 0.5]).astype(complex)
    s = np.linalg.svd(a.real)[1]
    assert kernel_split(a, 0j, 0.0, _pinned("collapse_bound", s[0]))[1].dim == 2
    assert kernel_split(a, 0j, 0.0, _pinned("collapse_bound", np.nextafter(s[0], 0.0)))[1].dim == 0


def test_a_single_block_needs_sigma_above_cutoff_plus_scatter():
    cutoff, scatter = 3e-9, 1e-9
    at = cutoff + scatter
    assert not ODD.single_block(at, cutoff, scatter)
    assert ODD.single_block(np.nextafter(at, np.inf), cutoff, scatter)
    # a scatter exactly at the cutoff may certify, one above it never does
    assert ODD.single_block(1.0, cutoff, cutoff)
    assert not ODD.single_block(1.0, cutoff, np.nextafter(cutoff, np.inf))


def test_a_certificate_residual_at_the_cutoff_passes(monkeypatch):
    a = np.array([[1.0, 2.0, 0.5j], [0.0, 2.0, 1.0], [0.3, 0.0, 3.5]], dtype=complex)
    residuals = []

    def recorded(r, starts):
        residuals.append(block_norms(r, starts))
        return residuals[-1]

    block_norms = spectral._block_norms
    monkeypatch.setattr(spectral, "_block_norms", recorded)
    assert all(c.climb is None for c in point_spectrum(a).clusters)
    # right then left residuals; at the larger one both sides pass
    worst = np.maximum(*residuals[:2])
    assert worst.min() > 0.0
    assert all(c.climb is None for c in point_spectrum(a, _pinned("certificate_cutoff", worst)).clusters)
    below = _pinned("certificate_cutoff", np.nextafter(worst, 0.0))
    assert all(c.climb is not None for c in point_spectrum(a, below).clusters)


def test_two_eigenvalues_at_the_radius_are_one_cluster():
    tol = Tolerance(cluster_eps=1e-8)
    assert tol.cluster_radius(np.array([0.0, 1e-8])) == 1e-8
    # _clustered's third result holds one block of member indices per cluster
    assert len(_clustered(np.array([0.0, 1e-8], dtype=complex), tol)[2]) == 1
    assert len(_clustered(np.array([0.0, np.nextafter(1e-8, 1.0)], dtype=complex), tol)[2]) == 2


def test_a_cross_gram_singular_value_at_the_link_cutoff_counts_as_zero():
    at = ODD.link_cutoff(2)
    (link,) = _links(_Blocks(np.array([1.0, at]), [2]), [2], [2], ODD)
    assert not link.linked and link.defect_dim == 1 and link.self_orthogonality == at
    assert _links(_Blocks(np.array([1.0, np.nextafter(at, 1.0)]), [2]), [2], [2], ODD)[0].linked


def test_kernels_at_the_angle_threshold_count_as_equal():
    ps = point_spectrum(NON_NORMAL)
    top = _pair_links(ps._right, ps._left, Tolerance())[1].max()
    assert top > 0.0
    at, below = _pinned("angle_threshold", top), _pinned("angle_threshold", np.nextafter(top, 0.0))
    assert sigma_set(ps, at) == check_conditions(NON_NORMAL, at).sigma_set == ()
    assert sigma_set(ps, below) == check_conditions(NON_NORMAL, below).sigma_set != ()


def test_eigenspaces_overlapping_at_the_angle_threshold_count_as_orthogonal():
    defect = span_report(NON_NORMAL).eigen_gram_defect
    assert defect > 0.0
    for threshold, mark in ((defect, "PASS"), (np.nextafter(defect, 0.0), "FAIL")):
        assert check_conditions(NON_NORMAL, _pinned("angle_threshold", threshold)).normality.properties["a"] == mark


# each method against the formula it stands for, bit for bit


@pytest.mark.parametrize("tol", [Tolerance(), ODD], ids=["default", "odd"])
def test_each_method_is_its_formula(tol):
    s = np.array([7.5, 2.0, 3e-9, 1e-10, 0.0])
    for shape in ((5, 5), (9, 5), (5, 2)):
        assert tol.stacked_rank(s, shape) == int(np.count_nonzero(s > tol.rank_eps * float(s[0]) * max(shape)))
    for n, sigma, lam in ((3, 1.0, 0j), (32, 0.25, 1e6 + 0j), (7, 5.0, 3 - 4j), (128, 2.5e3, -2e3j)):
        assert tol.climb_cutoff(n, sigma, lam) == tol.rank_eps * n * max(sigma, abs(lam))
        assert tol.collapse_bound(n, sigma / 3, lam) == 1.25 * (sigma / 3) + tol.rank_eps * n * abs(lam)
    for sigma, cutoff, scatter in ((1.0, 3e-9, 0.0), (4e-9, 3e-9, 1e-9), (0.5, 3e-9, 3e-9), (0.5, 3e-9, 4e-9)):
        assert tol.single_block(sigma, cutoff, scatter) == (scatter <= cutoff and sigma > cutoff + scatter)
    fro = np.array([1.0, 12.5, 3e4, 0.0])
    lam = np.array([0j, 3 - 4j, 2e2 + 1j, -1e5j])
    for n in (4, 17):
        want = tol.rank_eps * n * np.maximum(fro / np.sqrt(n), np.abs(lam))
        assert np.array_equal(tol.certificate_cutoff(n, fro, lam), want)
    for values in (np.array([0.5j, -0.25]), np.array([3 + 4j, -1.0, 0.5j]), np.array([1e7 - 2e6j])):
        assert tol.cluster_radius(values) == tol.cluster_eps * max(1.0, float(np.abs(values).max()))
    for k in (1, 2, 64):
        assert tol.link_cutoff(k) == tol.rank_eps * k
    assert tol.angle_threshold == 10.0 * tol.residual_eps
