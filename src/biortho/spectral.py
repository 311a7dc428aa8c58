"""Clustered point spectrum with right and left kernel bases.

Eigenvalues and right eigenvectors come from one ``np.linalg.eig`` call
and are grouped by single linkage with radius ``cluster_eps * max(1, max
|lambda|)``: two eigenvalues land in the same cluster whenever a chain of
pairwise-close eigenvalues connects them.  The closure is order
independent.  Each cluster carries the kernels of ``A - lambda I`` and
``A^* - conj(lambda) I`` at the cluster centroid.

When there is more than one cluster, eig(A^*) runs too, and every
cluster first tries a residual certificate.  A cluster of m raw
eigenvalues takes its members' eig(A) columns as its right block and
the eig(A^*) columns at the m adjoint eigenvalues nearest conj(lambda)
as its left block; each block is orthonormalized (a unit column, else a
thin QR).  When every cluster is simple, each side's vectors first take
one correction against their own residuals (see _refined).  Both blocks
Q must then pass ||(A - lambda I) Q||_F <= ``rank_eps * n * max(||A -
lambda I||_F / sqrt(n), |lambda|)``.  By Courant-Fischer,
sigma_(n-m+1)(A - lambda I) <= ||(A - lambda I) Q||_2 <= ||.||_F, and
the Frobenius norm over sqrt(n) bounds sigma_max from below, so a
certified Q proves the SVD would find a kernel of dimension at least m
there too.  A defective cluster fails: its eig vectors are nearly
parallel, and the QR keeps a noise direction with a large residual.  A
cluster that fails on either side, and the one cluster of an input
whose spectrum is a single cluster, take the SVD route: the kernels of
the shifted matrix and of its adjoint, computed independently.

When some clusters are certified and others are not, the others work
in a frame (_frame) of dimension n_d, n less the certified multiplicities:
each keeps one n x n SVD, its right split, takes its left kernel from one
n_d x n_d SVD cut at that split's sigma_max, and climbs at n_d (rootspace).

The rule that decides Ker(A - lambda I) and Ran(A - lambda I)-perp
lives in kernel_split alone: one SVD of the shifted matrix, the collapse
test on its sigma_max and the |lambda|-anchored rank cutoff.  The SVD
route keeps both: the kernel as the cluster's right kernel, Ran-perp as
its range_perp, which the residual identity of conditions reads back.
That SVD, like every staircase SVD of rootspace, goes through _svd: a
shifted matrix whose entries are all real (a real A at a real lambda)
is factored in real arithmetic, and phase_normalize makes every basis
complex again.

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
    range_perp is Ran(A - value I)-perp from the same SVD as the right
    kernel, kept for the residual identity, and sigma_max that SVD's
    ||A - value I||_2, which scales the framed left split's and the
    staircase's cutoffs; both None for a certified cluster, which took no SVD.
    """

    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    semi_simple: bool
    right_kernel: Subspace
    left_kernel: Subspace
    scatter: float = 0.0
    range_perp: Subspace = field(default=None, compare=False, repr=False)
    sigma_max: float = field(default=None, compare=False, repr=False)

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

    adjoint_eigenvalues holds the raw eigenvalues of the adjoint from the
    eig(A^*) call of the certificate, which runs whenever there is more
    than one cluster, and is None otherwise.  frame is _frame's result when
    some clusters were certified and others were not, else None.
    """

    ambient_dim: int
    clusters: tuple
    adjoint_eigenvalues: np.ndarray = field(default=None, compare=False, repr=False)
    frame: tuple = field(default=None, compare=False, repr=False)

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
    groups = {}
    for i, label in enumerate(labels.tolist()):
        groups.setdefault(label, []).append(i)
    return list(groups.values())


def _lapack(solver, a, lam=None):
    # lam, when given, names the eigenvalue whose shifted matrix failed
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        where = "" if lam is None else " at %.6g%+.6gj" % (lam.real, lam.imag)
        raise EigenIterationError(str(exc) + where) from exc


def _svd(b, lam=None):
    # a shifted matrix whose entries are all real is factored in real
    # arithmetic (dgesdd, not zgesdd); its singular vectors come out real
    return _lapack(np.linalg.svd, b if b.imag.any() else b.real, lam)


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
    return _split(a, lam, scatter, tol)[:2]


def _split(a, lam, scatter, tol):
    # kernel_split's two Subspaces and the shifted matrix's sigma_max
    n = a.shape[0]
    eye = np.eye(n, dtype=complex)
    u, s, vh = _svd(a - lam * eye, lam)
    if s[0] <= _SCATTER_MARGIN * scatter + tol.rank_eps * n * abs(lam):
        full = Subspace(n, phase_normalize(eye))
        return full, full, float(s[0])
    rank = int(np.count_nonzero(s > tol.rank_eps * max(float(s[0]), abs(lam)) * n))
    return Subspace(n, phase_normalize(u[:, rank:])), Subspace(n, phase_normalize(vh[rank:].conj().T)), float(s[0])


def eigenvalue_groups(values, tol=DEFAULT_TOL):
    """Raw eigenvalues grouped by single linkage.

    Returns one (centroid, scatter, member indices) triple per group.
    """
    radius = tol.cluster_eps * max(1.0, float(np.abs(values).max()))
    groups = []
    for idx in _single_linkage_groups(values, radius):
        if len(idx) == 1:
            # the mean of one value is that value, bit for bit
            groups.append((complex(values[idx[0]]), 0.0, idx))
            continue
        lam = complex(values[idx].mean())
        groups.append((lam, float(np.abs(values[idx] - lam).max()), idx))
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


def _block_norms(r, starts):
    # Frobenius norm of each column block of r, the blocks starting at starts
    return np.sqrt(np.add.reduceat((r.conj() * r).real.sum(axis=0), starts))


def _certified_kernels(a, raw, vecs, adj_raw, adj_vecs, groups, tol):
    """Certified right and left kernels of eigenvalue groups, by group index.

    A group of m raw eigenvalues at centroid lam takes its members' eig(A)
    columns as its right block, and the eig(A^*) columns at the m adjoint
    eigenvalues nearest conj(lam) as its left block, each orthonormalized.
    When every group is simple, each side's vectors are first refined
    against that side's own residuals.  A group is left out when either
    block's residual ||(A - lam I) Q||_F exceeds the cutoff (or is not
    finite), so the caller falls back to the SVD route for it.
    """
    n = a.shape[0]
    adj = a.conj().T
    if len(groups) == n:
        vecs = _refined(a, raw, vecs)
        adj_vecs = _refined(adj, adj_raw, adj_vecs)
    lam = np.array([g[0] for g in groups])
    sizes = np.array([len(g[2]) for g in groups])
    starts = np.cumsum(sizes) - sizes
    shift = np.repeat(lam, sizes)
    # one sort gives every group's nearest adjoint eigenvalues, m of them
    nearest = np.argsort(np.abs(adj_raw[None, :] - lam.conj()[:, None]), axis=1, kind="stable")
    right = vecs[:, [i for g in groups for i in g[2]]]
    left = adj_vecs[:, nearest[np.arange(n)[None, :] < sizes[:, None]]]
    right = right / np.linalg.norm(right, axis=0)
    left = left / np.linalg.norm(left, axis=0)
    for k in np.flatnonzero(sizes > 1):
        cols = slice(starts[k], starts[k] + sizes[k])
        right[:, cols] = np.linalg.qr(right[:, cols])[0]
        left[:, cols] = np.linalg.qr(left[:, cols])[0]
    right_res = _block_norms(a @ right - right * shift, starts)
    left_res = _block_norms(adj @ left - left * shift.conj(), starts)
    diag = np.diag(a)
    off = a - np.diag(diag)
    fro = np.sqrt(np.vdot(off, off).real + (np.abs(diag[None, :] - lam[:, None]) ** 2).sum(axis=1))
    cutoff = tol.rank_eps * n * np.maximum(fro / np.sqrt(n), np.abs(lam))
    certified = (right_res <= cutoff) & (left_res <= cutoff)
    # each column takes its own phase, so one call per side serves every block
    right, left = phase_normalize(right), phase_normalize(left)
    return {
        k: (Subspace(n, right[:, lo:lo + m]), Subspace(n, left[:, lo:lo + m]))
        for k, (lo, m) in enumerate(zip(starts, sizes))
        if certified[k]
    }


def _frame(a, certified):
    """(Z_R, Z_R^* A Z_R, Z_L, Z_L^* A^* Z_L), Z_R and Z_L past the certified kernels.

    Z_R and Z_L are orthonormal bases of the certified left and right kernels'
    complements, each from one complete QR.  A left eigenvector at lambda is
    orthogonal to every root vector at mu != lambda, so Z_R spans the sum of
    the other clusters' root spaces, and Z_L that of their root spaces of A^*.
    """
    k = sum(right.dim for right, _ in certified.values())
    z_r, z_l = (np.linalg.qr(np.hstack([pair[side].basis for pair in certified.values()]), mode="complete")[0][:, k:]
                for side in (1, 0))
    return z_r, z_r.conj().T @ a @ z_r, z_l, (z_l.conj().T @ a @ z_l).conj().T


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
    adj_raw = None
    certified = {}
    if len(groups) > 1:
        adj_raw, adj_vecs = _lapack(np.linalg.eig, a.conj().T)
        certified = _certified_kernels(a, raw, vecs, adj_raw, adj_vecs, groups, tol)
    frame = _frame(a, certified) if 0 < len(certified) < len(groups) else None
    clusters = []
    for k, (lam, scatter, idx) in enumerate(groups):
        perp = sigma_max = None
        if k in certified:
            right, left = certified[k]
        else:
            perp, right, sigma_max = _split(a, lam, scatter, tol)
            # a full right kernel means A - lam I is zero at this resolution;
            # otherwise the left side takes its own SVD, in the frame if any
            if right.dim == n or frame is None:
                left = right if right.dim == n else kernel_split(a.conj().T, lam.conjugate(), scatter, tol)[1]
            else:
                _, s, vh = _svd(frame[3] - lam.conjugate() * np.eye(len(frame[3])), lam.conjugate())
                rank = int(np.count_nonzero(s > tol.rank_eps * n * max(sigma_max, abs(lam))))
                left = Subspace(n, phase_normalize(frame[2] @ vh[rank:].conj().T))
        m_a, m_g = len(idx), right.dim
        clusters.append(EigenvalueCluster(
            value=lam, algebraic_multiplicity=m_a, geometric_multiplicity=m_g, semi_simple=(m_a == m_g),
            right_kernel=right, left_kernel=left, scatter=scatter, range_perp=perp, sigma_max=sigma_max))
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return PointSpectrum(ambient_dim=n, clusters=tuple(clusters), adjoint_eigenvalues=adj_raw, frame=frame)


def eigvec_matrix(spectrum):
    """Right kernel bases stacked as columns, grouped in cluster order.

    Columns are unit norm with the deterministic phase convention.  The
    matrix is square iff the matrix was diagonalizable at the working
    tolerance.
    """
    blocks = [c.right_kernel.basis for c in spectrum.clusters]
    return np.hstack(blocks)
