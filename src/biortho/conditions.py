"""Existence conditions for biorthonormal eigensystems, checked one by one.

The eigenvector-level checks ask whether the spectrum is conjugation
symmetric (C1), whether left and right kernels pair up skewly wherever
they differ (C2), whether geometric multiplicities match across the
adjoint (C3) and whether eigenvectors span the whole space on both sides
(C4).  The primed checks C2'/C3'/C4' ask the same questions of root
subspaces.  Every verdict carries the witnesses that decided it, so a
FAIL names the clusters responsible.

A^* has no kernel, staircase or span of its own.  Its eigenvectors at
conj(lambda) are the clusters' left kernels: for a simple cluster the
certified eig vector of A^* (see spectral), otherwise the left null
vectors of A - lambda I.  Its root vectors come from the deflation that
climbs A's staircase, as Q[I; S*] = Ran((A - lambda I)^h)-perp off its
final form Q*(A - lambda I)Q = [[N, X], [0, T]] (see rootspace), or are
the left kernel again where a cluster's kernels are its root subspaces,
and C2' then reuses its C2 verdict.
Its spectrum comes from a separate computation, so that C1 and C3'
compare independent results: the eig(A^*) call point_spectrum already
made when some cluster is simple, else one eigvals call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .biorthogonal import multiplicity_match, skew_link_check
from .linalg import DEFAULT_TOL, Subspace, as_matrix, condition_number, subspace_angle
from .rootspace import root_space, span_report
from .spectral import eigenvalue_groups, eigenvalues, eigvec_matrix, kernel_split, point_spectrum

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
    mutually orthogonal, (b) every cluster semi-simple, (c) spectrum
    conjugation symmetric, (d) eigenvectors span, (e) left kernels equal
    right kernels everywhere.  is_normal is decided directly from the
    commutator, relative to the squared operator norm.
    """

    is_normal: bool
    commutator_norm: float
    properties: dict


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
    10 * residual_eps, as kernels of unequal dimension always do (pi/2).
    """
    return tuple(i for i, c in enumerate(spectrum.clusters)
                 if subspace_angle(c.right_kernel, c.left_kernel) > 10.0 * tol.residual_eps)


def _orthonormal(block):
    if block.shape[1] == 1:
        return block / np.linalg.norm(block)
    return np.linalg.qr(block)[0]


def residual_identity_check(a, spectrum=None, tol=DEFAULT_TOL, kappa_v=None):
    """Largest angle between Ran(A - lambda I)-perp and Ker(A* - conj(lambda) I).

    The two subspaces coincide for every lambda in exact arithmetic, so
    the returned angle measures how consistently the ranks were decided.
    Ran(A - lambda I)-perp must come from A's own right side, apart from
    the left kernel it is compared with; reading both off one
    factorization would make the angle zero by construction.  When the
    eigenvector matrix V is square with finite condition number kappa_v
    (computed here unless given), A = V D V^-1 and a cluster's rows of
    V^-1 span Ran(A - lambda I)-perp, so one solve serves every cluster.
    Otherwise each cluster takes one SVD of its shifted matrix and reads
    Ran(A - lambda I)-perp off its left singular vectors (kernel_split).
    """
    a = as_matrix(a)
    if spectrum is None:
        spectrum = point_spectrum(a, tol)
    n = a.shape[0]
    v = eigvec_matrix(spectrum)
    if v.shape[1] == n and kappa_v is None:
        kappa_v = condition_number(v, tol)
    if v.shape[1] == n and np.isfinite(kappa_v):
        # the columns of (V^-1)^* = (V^*)^-1, one block per cluster
        dual = np.linalg.solve(v.conj().T, np.eye(n, dtype=complex))
        dims = [c.geometric_multiplicity for c in spectrum.clusters]
        perps = [Subspace(n, _orthonormal(dual[:, end - d:end])) for d, end in zip(dims, np.cumsum(dims))]
    else:
        perps = [kernel_split(a, c.value, c.scatter, tol)[0] for c in spectrum.clusters]
    return max(subspace_angle(p, c.left_kernel) for p, c in zip(perps, spectrum.clusters))


def _eigenspace_overlap(v, dims):
    """Largest 2-norm of a block V_i^* V_j (i != j) of the eigenvector Gram.

    dims lists the clusters' kernel dimensions in the column order of v.
    A block with a side of length 1 is a vector, whose 2-norm is its
    Euclidean length: 1x1 blocks are read off the Gram at once, and only
    blocks between two multiple kernels take an SVD.
    """
    gram = v.conj().T @ v
    dims = np.array(dims)
    owner = np.repeat(np.arange(len(dims)), dims)
    single = dims[owner] == 1
    pairs = (owner[:, None] != owner[None, :]) & single[:, None] & single[None, :]
    overlap = float(np.abs(gram[pairs]).max(initial=0.0))
    cols = [slice(end - d, end) for d, end in zip(dims, np.cumsum(dims))]
    for i in np.flatnonzero(dims > 1):
        for j in range(len(dims)):
            if j != i and (dims[j] == 1 or j > i):
                block = gram[cols[i], cols[j]]
                overlap = max(overlap, float(np.linalg.norm(block, 2) if dims[j] > 1 else np.linalg.norm(block)))
    return overlap


def _hausdorff(p, q):
    if len(p) == 0 and len(q) == 0:
        return 0.0
    d = np.abs(np.asarray(p)[:, None] - np.asarray(q)[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _check_c1(ps, adjoint_values, radius):
    pvals = ps.values()
    qvals = np.conj(np.array(adjoint_values))
    dist = np.abs(pvals[:, None] - qvals[None, :])
    match = dist.argmin(axis=1)
    haus = _hausdorff(pvals, qvals)
    bad = tuple(i for i in range(len(pvals)) if dist[i].min() > radius)
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
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("diagnosis requires a square matrix")
    ps = point_spectrum(a, tol)
    adj = a.conj().T
    adj_values = ps.adjoint_eigenvalues
    if adj_values is None:
        adj_values = eigenvalues(adj)
    adj_groups = eigenvalue_groups(adj_values, tol)
    radius = tol.cluster_eps * ps.scale

    c1, match = _check_c1(ps, [lam for lam, _, _ in adj_groups], radius)

    sig = sigma_set(ps, tol)
    links = tuple(skew_link_check(c.right_kernel, c.left_kernel, tol, i) for i, c in enumerate(ps.clusters))
    c2 = _check_skew(
        "C2",
        {i: links[i] for i in sig},
        "no cluster distinguishes its left kernel from its right kernel",
    )

    mismatched = tuple(
        i for i, c in enumerate(ps.clusters) if not multiplicity_match(c)
    )
    c3 = ConditionVerdict(
        "C3",
        FAIL if mismatched else PASS,
        "left and right kernel dimensions %s"
        % ("differ for cluster(s) %s" % (list(mismatched),) if mismatched else "agree on every cluster"),
        mismatched,
    )

    roots = [root_space(a, c, tol) for c in ps.clusters]

    c3_bad = []
    root_links = {}  # C2' verdicts of the root sigma set
    for i, (c, r) in enumerate(zip(ps.clusters, roots)):
        if c.algebraic_multiplicity != len(adj_groups[match[i]][2]):
            c3_bad.append(i)
        if c.kernels_are_root_spaces:
            if i in sig:
                root_links[i] = links[i]
        elif subspace_angle(r.space, r.adjoint_space) > 10.0 * tol.residual_eps:
            root_links[i] = skew_link_check(r.space, r.adjoint_space, tol, i)
    c3p = ConditionVerdict(
        "C3'",
        FAIL if c3_bad else PASS,
        "root-space dimensions %s under conjugation of the spectrum"
        % ("differ for cluster(s) %s" % (list(c3_bad),) if c3_bad else "match"),
        tuple(c3_bad),
    )

    c2p = _check_skew(
        "C2'",
        root_links,
        "no cluster distinguishes its root subspace from the adjoint's",
    )

    spans = span_report(a, tol, spectrum=ps, root_spaces=roots)
    defective = tuple(i for i, c in enumerate(ps.clusters) if not c.semi_simple)
    c4 = _check_span("C4", "eigenvectors", spans.eigen_span_dim, spans.adjoint_eigen_span_dim, n, defective)
    c4p = _check_span("C4'", "root subspaces", spans.root_span_dim, spans.adjoint_root_span_dim, n, ())

    commutator = a @ adj - adj @ a
    commutator_norm = float(np.linalg.norm(commutator, "fro"))
    norm_a = float(np.linalg.norm(a, 2))
    is_normal = commutator_norm <= tol.residual_eps * max(1.0, norm_a * norm_a)
    overlap = _eigenspace_overlap(eigvec_matrix(ps), [c.geometric_multiplicity for c in ps.clusters])
    properties = {
        "a": PASS if overlap <= 10.0 * tol.residual_eps else FAIL,
        "b": FAIL if defective else PASS,
        "c": c1.status,
        "d": PASS if spans.eigen_span_dim == n else FAIL,
        "e": PASS if not sig else FAIL,
    }
    normality = NormalityReport(is_normal, commutator_norm, properties)

    # exactly when biorthonormalize(a, ps, tol) succeeds
    exists = not defective and all(link.linked for link in links)
    angle = residual_identity_check(a, ps, tol, kappa_v=spans.kappa_v)

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
