"""Clustered point spectrum with right and left kernel bases.

Eigenvalues and right eigenvectors come from one ``np.linalg.eig`` call
and are grouped by single linkage with radius ``cluster_eps * max(1, max
|lambda|)``: two eigenvalues land in the same cluster whenever a chain of
pairwise-close eigenvalues connects them.  The closure is order
independent.  Each cluster carries the kernels of ``A - lambda I`` and
``A^* - conj(lambda) I`` at the cluster centroid.

A simple cluster (one raw eigenvalue) needs no rank decision, since
1 <= m_g <= m_a forces m_g = 1.  Its right kernel is the eig vector of
``A`` and its left kernel the eig vector of ``A^*`` (one more eig call)
at the nearest conjugate eigenvalue.  When every cluster is simple, each
side's vectors first take one correction against their own residuals
(see _refined).  Each unit vector v must then certify itself: its
residual ||(A - lambda I) v|| must lie at or below ``rank_eps * n *
max(||A - lambda I||_F / sqrt(n), |lambda|)``.  The Frobenius norm over
sqrt(n) bounds sigma_max from below, so this never exceeds the SVD rank
cutoff, and a certified v proves the SVD would find a kernel there too.
When either side fails, the cluster takes the SVD route that every
multiple cluster takes: the kernels of the shifted matrix and of its
adjoint, computed independently.

The rule that decides Ker(A - lambda I) and Ran(A - lambda I)-perp
lives in kernel_split alone: one SVD of the shifted matrix, the collapse
test on its sigma_max and the |lambda|-anchored rank cutoff.  The SVD
route and the per-cluster residual identity of conditions both call it.

For a simple cluster the self-orthogonality |(chi, psi)| of the unit
left and right vectors is Wilkinson's reciprocal condition number of the
eigenvalue (The Algebraic Eigenvalue Problem, 1965): a perturbation E
moves the eigenvalue by about ||E|| / |(chi, psi)|, and the value tends
to 0 as the eigenvalue nears a defective coalescence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ClusteringError, EigenIterationError
from .linalg import DEFAULT_TOL, Subspace, as_matrix, phase_normalize

__all__ = [
    "EigenvalueCluster",
    "PointSpectrum",
    "point_spectrum",
    "adjoint_point_spectrum",
    "eigenvalues",
    "eigenvalue_groups",
    "eigvec_matrix",
    "kernel_split",
]

# headroom over the exact scatter so a singular value computed through a
# different route (SVD vs eigenvalue subtraction) cannot straddle the line
_SCATTER_MARGIN = 1.25


@dataclass(frozen=True)
class EigenvalueCluster:
    """One clustered eigenvalue with its kernel data.

    value is the cluster centroid; algebraic_multiplicity the number of
    raw eigenvalues merged into it; geometric_multiplicity the dimension
    of the right kernel; semi_simple is their equality.  scatter is the
    largest distance of a merged raw eigenvalue from the centroid, the
    resolution below which this cluster cannot distinguish eigenvalues.
    """

    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    semi_simple: bool
    right_kernel: Subspace
    left_kernel: Subspace
    scatter: float = 0.0

    def __post_init__(self):
        m_a = self.algebraic_multiplicity
        m_g = self.geometric_multiplicity
        if not 1 <= m_g <= m_a:
            raise ClusteringError(
                "cluster at %.6g%+.6gj has geometric multiplicity %d outside "
                "[1, %d]; the cluster and rank resolutions disagree, retry "
                "with a larger cluster_eps (to merge coalescing eigenvalues) "
                "or a larger rank_eps (to blur kernel ranks to the cluster "
                "radius)" % (self.value.real, self.value.imag, m_g, m_a)
            )
        if self.right_kernel.dim != m_g:
            raise ClusteringError("right kernel dimension disagrees with m_g")
        if self.semi_simple != (m_a == m_g):
            raise ClusteringError("semi_simple flag disagrees with multiplicities")

    @property
    def kernels_are_root_spaces(self):
        """True when both kernels have dimension m_a, so they are the root subspaces."""
        return self.right_kernel.dim == self.algebraic_multiplicity == self.left_kernel.dim


@dataclass(frozen=True)
class PointSpectrum:
    """All eigenvalue clusters of one matrix, sorted by (Re, Im).

    adjoint_eigenvalues holds the raw eigenvalues of the adjoint when the
    simple-cluster fast path computed them, and is None otherwise.
    """

    ambient_dim: int
    clusters: tuple
    adjoint_eigenvalues: np.ndarray = field(default=None, compare=False, repr=False)

    @property
    def scale(self):
        """Spectral scale max(1, max |lambda|) used for relative radii."""
        return max(1.0, max(abs(c.value) for c in self.clusters))

    def values(self):
        return np.array([c.value for c in self.clusters])


def _single_linkage_groups(values, radius):
    """Connected components of the graph linking values within radius.

    Groups come in order of their smallest index, members in increasing
    index order.  Every value repeatedly takes the smallest label among
    its neighbours and then that label's own label; the labels settle on
    each component's smallest index.
    """
    n = len(values)
    linked = np.abs(values[:, None] - values[None, :]) <= radius
    labels = np.arange(n)
    while True:
        lowest = np.where(linked, labels[None, :], n).min(axis=1)
        lowest = lowest[lowest]
        if np.array_equal(lowest, labels):
            break
        labels = lowest
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return [group.tolist() for group in np.split(order, cuts)]


def _lapack(solver, a, lam=None):
    # lam, when given, names the eigenvalue whose shifted matrix failed
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        where = "" if lam is None else " at %.6g%+.6gj" % (lam.real, lam.imag)
        raise EigenIterationError(str(exc) + where) from exc


def kernel_split(a, lam, scatter, tol=DEFAULT_TOL):
    """Ran(a - lam I)-perp and Ker(a - lam I) from one SVD, as two Subspaces.

    A merged cluster cannot distinguish eigenvalues closer to lam than
    its scatter, and cancellation noise in the shift itself reaches
    ``rank_eps * n * |lam|``.  When sigma_max sits at or below that
    scale the shifted matrix is zero at the cluster's resolution and
    both spaces are everything: one Subspace spanned by the identity,
    returned twice, so its basis carries no rounding of the SVD.
    Otherwise |lam| anchors the rank cutoff: when a is close to lam * I
    the shifted matrix is pure cancellation noise and its own sigma_max
    is no trustworthy scale.
    Raises EigenIterationError if the SVD fails to converge.
    """
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    u, s, vh = _lapack(np.linalg.svd, a - lam * eye, lam)
    if s[0] <= _SCATTER_MARGIN * scatter + tol.rank_eps * n * abs(lam):
        full = Subspace(n, phase_normalize(eye))
        return full, full
    rank = int(np.count_nonzero(s > tol.rank_eps * max(float(s[0]), abs(lam)) * n))
    return Subspace(n, phase_normalize(u[:, rank:])), Subspace(n, phase_normalize(vh[rank:].conj().T))


def eigenvalues(a):
    """Raw eigenvalues of a square matrix by one eigvals call.

    Raises EigenIterationError if the QR iteration fails to converge.
    """
    return _lapack(np.linalg.eigvals, a)


def eigenvalue_groups(values, tol=DEFAULT_TOL):
    """Raw eigenvalues grouped by single linkage.

    Returns one (centroid, scatter, member indices) triple per group.
    """
    radius = tol.cluster_eps * max(1.0, float(np.abs(values).max()))
    groups = []
    for idx in _single_linkage_groups(values, radius):
        lam = complex(values[idx].mean())
        scatter = float(np.abs(values[idx] - lam).max()) if len(idx) > 1 else 0.0
        groups.append((lam, scatter, idx))
    return groups


def _refined(a, values, vectors):
    """Unit eigenvectors after one first-order correction by their residuals.

    eig's vectors are exact for a matrix some multiple of eps ||A|| away,
    so each leans towards the eigenvectors of nearby eigenvalues by about
    that much over the gap, several times more than an SVD null vector
    does.  With the residuals expanded in the eigenvector basis,
    D = V^-1 (A V - V diag(values)), the lean of v_i towards v_j is
    D_ji / (lambda_j - lambda_i), which is taken off.  The values must be
    distinct; a singular V leaves the vectors as they are.
    """
    residual = a @ vectors - vectors * values
    try:
        lean = np.linalg.solve(vectors, residual)
    except np.linalg.LinAlgError:
        return vectors
    gaps = values[:, None] - values[None, :]
    np.fill_diagonal(gaps, np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        refined = vectors - vectors @ (lean / gaps)
        return refined / np.linalg.norm(refined, axis=0)


def _simple_kernels(a, raw, vecs, adj_raw, adj_vecs, simple, tol):
    """Certified right and left kernels of simple clusters, by raw index.

    When every cluster is simple, each side's vectors are first refined
    against that side's own residuals.  An index is left out when either
    unit vector's residual exceeds the cutoff (or is not finite), so the
    caller falls back to the SVD route for it.
    """
    n = a.shape[0]
    adj = a.conj().T
    if len(simple) == n:
        vecs = _refined(a, raw, vecs)
        adj_vecs = _refined(adj, adj_raw, adj_vecs)
    lam = raw[simple]
    partner = np.abs(adj_raw[None, :] - lam.conj()[:, None]).argmin(axis=1)
    right = vecs[:, simple]
    left = adj_vecs[:, partner]
    right = right / np.linalg.norm(right, axis=0)
    left = left / np.linalg.norm(left, axis=0)
    right_res = np.linalg.norm(a @ right - right * lam, axis=0)
    left_res = np.linalg.norm(adj @ left - left * lam.conj(), axis=0)
    diag = np.diag(a)
    off = a - np.diag(diag)
    fro = np.sqrt(np.vdot(off, off).real + (np.abs(diag[None, :] - lam[:, None]) ** 2).sum(axis=1))
    cutoff = tol.rank_eps * n * np.maximum(fro / np.sqrt(n), np.abs(lam))
    certified = (right_res <= cutoff) & (left_res <= cutoff)
    return {
        i: (Subspace(n, phase_normalize(right[:, [k]])), Subspace(n, phase_normalize(left[:, [k]])))
        for k, i in enumerate(simple)
        if certified[k]
    }


def point_spectrum(a, tol=DEFAULT_TOL):
    """Compute the clustered point spectrum of a square matrix.

    Raises EigenIterationError if the QR iteration fails to converge and
    ClusteringError if a cluster's kernel dimension is inconsistent with
    its cardinality (a sign the tolerances cut a coalescing group apart).
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError("point spectrum requires a square matrix")
    raw, vecs = _lapack(np.linalg.eig, a)
    groups = eigenvalue_groups(raw, tol)
    simple = [idx[0] for _, _, idx in groups if len(idx) == 1]
    adj_raw = None
    fast = {}
    if simple:
        adj_raw, adj_vecs = _lapack(np.linalg.eig, a.conj().T)
        fast = _simple_kernels(a, raw, vecs, adj_raw, adj_vecs, simple, tol)
    clusters = []
    for lam, scatter, idx in groups:
        if len(idx) == 1 and idx[0] in fast:
            right, left = fast[idx[0]]
        else:
            _, right = kernel_split(a, lam, scatter, tol)
            # a full right kernel means A - lam I is zero at this
            # resolution; otherwise the left side takes its own SVD
            left = right if right.dim == n else kernel_split(a.conj().T, lam.conjugate(), scatter, tol)[1]
        m_a = len(idx)
        m_g = right.dim
        clusters.append(
            EigenvalueCluster(
                value=lam,
                algebraic_multiplicity=m_a,
                geometric_multiplicity=m_g,
                semi_simple=(m_a == m_g),
                right_kernel=right,
                left_kernel=left,
                scatter=scatter,
            )
        )
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return PointSpectrum(ambient_dim=n, clusters=tuple(clusters), adjoint_eigenvalues=adj_raw)


def adjoint_point_spectrum(a, tol=DEFAULT_TOL):
    """Clustered point spectrum of the conjugate transpose of ``a``."""
    return point_spectrum(as_matrix(a).conj().T, tol)


def eigvec_matrix(spectrum):
    """Right kernel bases stacked as columns, grouped in cluster order.

    Columns are unit norm with the deterministic phase convention.  The
    matrix is square iff the matrix was diagonalizable at the working
    tolerance.
    """
    blocks = [c.right_kernel.basis for c in spectrum.clusters]
    return np.hstack(blocks)
