"""Existence conditions for biorthonormal eigensystems, checked one by one.

The eigenvector-level checks ask whether the spectrum is conjugation
symmetric (C1), whether left and right kernels pair up skewly wherever
they differ (C2), whether geometric multiplicities match across the
adjoint (C3) and whether eigenvectors span the whole space on both sides
(C4).  The primed checks C2'/C3'/C4' ask the same questions of root
subspaces.  Every verdict carries the witnesses that decided it, so a
FAIL names the clusters responsible.

A^* has no kernel, staircase or span of its own.  Its eigenvectors at
conj(lambda) are the clusters' left kernels: for a certified cluster
its columns of V^-* when every cluster certified, else its eig vectors
of A^* (see spectral), otherwise the left null vectors of A - lambda I
at the cutoff of the cluster's climb.  Its root vectors come from the deflation that
climbs A's staircase, as Q[I; S*] = Ran((A - lambda I)^h)-perp off its
final form Q*(A - lambda I)Q = [[N, X], [0, T]] (see spectral._climb), or are
the left kernel again where a cluster's kernels are its root subspaces,
and C2' then reuses its C2 verdict.
Its spectrum comes from a separate computation, so that C1 and C3'
compare independent results: the eig(A^*) call point_spectrum made when
some cluster failed its certificate, else one eigvals(A^*) call, with a
single cluster or when every cluster certified with its dual left block
from V^-*, a solve that yields no adjoint eigenvalues.

The residual identity takes no SVD of its own when the root bases span:
Ran(A - lambda I)-perp comes from level 1 of each non-certified cluster's
climb, or from the root bases' inverse (residual_identity_check).  One pairing of
the kernels gives both the sigma set and the C2 links; C2' and the
residual identity pair their subspaces in one call each.  The kernels,
the root bases (stacked once, PointSpectrum._roots) and the
multiplicities are read off the spectrum's arrays, so a diagnosis builds
no per-cluster object but its SkewLinkVerdicts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biorthogonal import _pair_links
from .linalg import DEFAULT_TOL, _Blocks, as_matrix, subspace_pairs
from .rootspace import span_report
from .spectral import _clustered, _lapack, _shift, kernel_split, point_spectrum

__all__ = [
    "PASS",
    "FAIL",
    "VACUOUS",
    "STRUCTURAL_NOTES",
    "ConditionVerdict",
    "NormalityReport",
    "DiagnosisReport",
    "sigma_set",
    "residual_identity_check",
    "check_conditions",
]

PASS = "PASS"
FAIL = "FAIL"
VACUOUS = "VACUOUS"

# facts of finite dimension that hold for every input, stated once
STRUCTURAL_NOTES = (
    "residual spectrum is empty in finite dimensions; the point spectrum "
    "decides everything checked here",
    "eigenvector-span completeness needs no condensation-point proviso in "
    "finite dimensions",
)


@dataclass(frozen=True)
class ConditionVerdict:
    """One condition's outcome with the clusters that decided it."""

    id: str
    status: str
    detail: str
    witnesses: tuple


@dataclass(frozen=True)
class NormalityReport:
    """Commutator norm plus the five textbook marks of normality.

    properties maps the labels a..e to PASS/FAIL: (a) eigenspaces
    mutually orthogonal, ||V^*V - I||_2 <= Tolerance.angle_threshold for
    V their orthonormal bases side by side (SpanReport.eigen_gram_defect),
    (b) every cluster semi-simple, (c) spectrum conjugation symmetric,
    (d) eigenvectors span, (e) left kernels equal right kernels
    everywhere.  A matrix is normal exactly when it has an orthonormal
    eigenbasis, (a), (b) and (d) together, which imply (c) and (e); so
    is_normal is true exactly when all five PASS.  commutator_norm is
    ||[B, B^*]||_F for the centred B = A - (tr A / n) I, whose commutator
    is A's but rounds at B's scale.
    """

    commutator_norm: float
    properties: dict

    @property
    def is_normal(self):
        return all(mark == PASS for mark in self.properties.values())


@dataclass(frozen=True)
class DiagnosisReport:
    """Everything the checker found out about one matrix; skew_links is per cluster."""

    ambient_dim: int
    spectrum: object
    sigma_set: tuple
    conditions: tuple
    normality: NormalityReport
    kappa_v: float
    diagonalizable: bool
    biorthonormal_basis_exists: bool
    residual_identity_angle: float
    skew_links: tuple

    def condition(self, cid):
        for v in self.conditions:
            if v.id == cid:
                return v
        raise KeyError(cid)


def sigma_set(spectrum, tol=DEFAULT_TOL):
    """Indices of clusters whose left and right kernels differ.

    A cluster enters the set when its kernels sit at an angle above
    Tolerance.angle_threshold, as kernels of unequal dimension always do (pi/2).
    """
    angles = _pair_links(spectrum._right, spectrum._left, tol)[1]
    return tuple(int(i) for i in np.flatnonzero(angles > tol.angle_threshold))


def residual_identity_check(a, spectrum=None, tol=DEFAULT_TOL, roots_span=False):
    """Largest angle between Ran(A - lambda I)-perp and Ker(A* - conj(lambda) I).

    The two subspaces coincide for every lambda in exact arithmetic, so
    the returned angle measures how consistently the ranks were decided.
    Ran(A - lambda I)-perp must come from A's own right side, apart from
    the left kernel it is compared with; reading both off one
    factorization would make the angle zero by construction.  A cluster
    that climbed reads the space its level 1 kept (Climb.range_perp).  A
    certified cluster took no SVD; with roots_span, which the caller sets
    only if the spectrum's stacked root bases R (PointSpectrum._roots)
    span C^n (R = V when all kernels are root spaces), A = R J R^-1 with J
    block diagonal and one solve gives every such cluster its rows of
    R^-1, orthonormalized as the certificate's kernels are
    (_Blocks.orthonormalized) before the climbed clusters' Ran-perps
    replace theirs.  Else it takes one SVD of its shifted matrix.
    Where the left kernels came from eig(A^*) or a climb's left split,
    the angle compares independent computations.  Where they came from
    V^-* (every cluster certified), R is V blockwise orthonormalized and
    its rows of R^-1 span what the dual left block spans, so the angle is
    a rounding-level bookkeeping check; there the left certificate on A^*
    is the independent test.
    """
    a = as_matrix(a)
    if spectrum is None:
        spectrum = point_spectrum(a, tol)
    n = a.shape[0]
    climbed = {i: climb.range_perp.basis for i, climb in spectrum._climbed.items()}
    k = len(spectrum._algebraic)
    if len(climbed) < k and roots_span:
        # the columns of (R^-1)^* = (R^*)^-1, one block of m_a per cluster
        basis = spectrum._roots[0].matrix
        dual = np.linalg.solve(basis.conj().T, np.eye(n, dtype=complex))
        perps = _Blocks(dual, spectrum._algebraic).orthonormalized().replaced(climbed)
    else:
        perps = _Blocks.of([climbed[i] if i in climbed else kernel_split(
            a, complex(spectrum._values[i]), float(spectrum._scatter[i]), tol)[0].basis for i in range(k)])
    _, angles = subspace_pairs(perps, spectrum._left)
    return float(angles.max())


def _check_c1(ps, adjoint_values, radius):
    pvals = ps.values()
    qvals = np.conj(adjoint_values)
    dist = np.abs(pvals[:, None] - qvals[None, :])
    match = dist.argmin(axis=1)
    nearest = dist.min(axis=1)
    # the Hausdorff distance of the two spectra
    haus = float(max(nearest.max(), dist.min(axis=0).max()))
    bad = tuple(int(i) for i in np.flatnonzero(nearest > radius))
    status = PASS if haus <= radius else FAIL
    detail = (
        "spectra of the matrix and its adjoint match under conjugation to "
        "within %.3e (allowed %.3e)" % (haus, radius)
    )
    return ConditionVerdict("C1", status, detail, bad), match


def _check_skew(cid, verdicts, empty_detail):
    """Verdict over the differing clusters, given as {cluster index: SkewLinkVerdict}."""
    if not verdicts:
        return ConditionVerdict(cid, VACUOUS, empty_detail, ())
    fails = [i for i, v in verdicts.items() if not v.linked]
    worst = min(v.self_orthogonality for v in verdicts.values())
    if fails:
        detail = (
            "cross-Gram singular for cluster(s) %s; smallest "
            "self-orthogonality %.3e" % (list(fails), worst)
        )
        return ConditionVerdict(cid, FAIL, detail, tuple(fails))
    detail = "all %d differing cluster(s) pair skewly; smallest self-orthogonality %.3e" % (
        len(verdicts),
        worst,
    )
    return ConditionVerdict(cid, PASS, detail, tuple(verdicts))


def _check_dims(cid, mismatched, detail, agree):
    """FAIL on the clusters the boolean array mismatched flags, else PASS; detail's %s names them or says agree."""
    bad = tuple(mismatched.nonzero()[0].tolist())
    how = "differ for cluster(s) %s" % (list(bad),) if bad else agree
    return ConditionVerdict(cid, FAIL if bad else PASS, detail % how, bad)


def _check_span(cid, what, dim, adjoint_dim, n, witnesses):
    status = PASS if dim == adjoint_dim == n else FAIL
    detail = "%s span %d/%d dimensions (adjoint side %d/%d)" % (what, dim, n, adjoint_dim, n)
    return ConditionVerdict(cid, status, detail, witnesses)


def check_conditions(a, tol=DEFAULT_TOL):
    """Run the full battery of existence checks on one square matrix.

    Returns a DiagnosisReport.  Propagates EigenIterationError,
    ClusteringError and RootSpaceMismatchError when the underlying
    decompositions come out internally inconsistent at this tolerance.
    """
    a = as_matrix(a)
    ps = point_spectrum(a, tol)
    n = ps.ambient_dim
    adj_values = ps.adjoint_eigenvalues
    if adj_values is None:
        adj_values = _lapack(np.linalg.eigvals, a.conj().T)
    adj_centroids, _, adj_members = _clustered(adj_values, tol)
    c1, match = _check_c1(ps, adj_centroids, tol.cluster_radius(ps.values()))

    # one pairing of the kernels gives the sigma set and the C2 links
    links, kernel_angles = _pair_links(ps._right, ps._left, tol)
    sig = tuple((kernel_angles > tol.angle_threshold).nonzero()[0].tolist())
    c2 = _check_skew(
        "C2",
        {i: links[i] for i in sig},
        "no cluster distinguishes its left kernel from its right kernel",
    )

    c3 = _check_dims("C3", ps._right.widths != ps._left.widths, "left and right kernel dimensions %s",
                     "agree on every cluster")

    # C2' verdicts: a cluster whose kernels are its root spaces reuses its C2
    # one, and a root space of all of C^n (one cluster) is its adjoint's, at angle 0
    spaces, adjoints = ps._roots
    own = ps._kernels_are_root_spaces
    climbing = (~own & (ps._algebraic < n)).nonzero()[0]
    root_links = {link.cluster_index: link for link, angle in zip(*_pair_links(
        spaces.take(climbing), adjoints.take(climbing), tol, climbing.tolist())) if angle > tol.angle_threshold}
    root_links.update({i: links[i] for i in sig if own[i]})
    root_links = dict(sorted(root_links.items()))
    c3p = _check_dims("C3'", ps._algebraic != adj_members.widths[match],
                      "root-space dimensions %s under conjugation of the spectrum", "match")

    c2p = _check_skew(
        "C2'",
        root_links,
        "no cluster distinguishes its root subspace from the adjoint's",
    )

    spans = span_report(a, tol, spectrum=ps)
    defective = tuple((ps._right.widths != ps._algebraic).nonzero()[0].tolist())
    c4 = _check_span("C4", "eigenvectors", spans.eigen_span_dim, spans.adjoint_eigen_span_dim, n, defective)
    c4p = _check_span("C4'", "root subspaces", spans.root_span_dim, spans.adjoint_root_span_dim, n, ())

    # the centred B, whose commutator is A's (see NormalityReport), in real
    # arithmetic when its entries are all real
    centred = _shift(a.copy(), np.trace(a) / n)
    if not centred.imag.any():
        centred = centred.real
    commutator = centred @ centred.conj().T - centred.conj().T @ centred
    properties = {
        "a": PASS if spans.eigen_gram_defect <= tol.angle_threshold else FAIL,
        "b": FAIL if defective else PASS,
        "c": c1.status,
        "d": PASS if spans.eigen_span_dim == n else FAIL,
        "e": PASS if not sig else FAIL,
    }
    normality = NormalityReport(float(np.linalg.norm(commutator, "fro")), properties)

    # read off the verdicts; with no FAIL in C2 and C3 every cluster links, so
    # this holds only if biorthonormalize(a, ps, tol) succeeds
    exists = not defective and FAIL not in (c1.status, c2.status, c3.status, c4.status)
    angle = residual_identity_check(a, ps, tol, roots_span=spans.root_span_dim == n)

    return DiagnosisReport(
        ambient_dim=n,
        spectrum=ps,
        sigma_set=sig,
        conditions=(c1, c2, c3, c4, c2p, c3p, c4p),
        normality=normality,
        kappa_v=spans.kappa_v,
        diagonalizable=not defective,
        biorthonormal_basis_exists=exists,
        residual_identity_angle=angle,
        skew_links=links,
    )
