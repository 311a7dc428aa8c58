"""Clustered point spectrum with right and left kernel bases.

Eigenvalues and right eigenvectors come from one ``np.linalg.eig`` call
and are grouped by single linkage within Tolerance.cluster_radius: two
eigenvalues land in the same cluster whenever a chain of pairwise-close
eigenvalues connects them.  The closure is order independent.  Each
cluster carries the kernels of ``A - lambda I`` and
``A^* - conj(lambda) I`` at the cluster centroid.

When there is more than one cluster, eig(A^*) runs too, and every
cluster first tries a residual certificate.  A cluster of m raw
eigenvalues takes its members' eig(A) columns as its right block and
the eig(A^*) columns at the m adjoint eigenvalues nearest conj(lambda)
as its left block; each block is orthonormalized (a unit column, else a
thin QR).  When every cluster is simple, each side's vectors first take
one correction against their own residuals (see _refined).  Both blocks
Q must then pass ||(A - lambda I) Q||_F <= Tolerance.certificate_cutoff,
scaled by max(||A - lambda I||_F / sqrt(n), |lambda|).  By Courant-Fischer,
sigma_(n-m+1)(A - lambda I) <= ||(A - lambda I) Q||_2 <= ||.||_F, and
the Frobenius norm over sqrt(n) bounds sigma_max from below, so a
certified Q proves the SVD would find a kernel of dimension at least m
there too.  A defective cluster fails: its eig vectors are nearly
parallel, and the QR keeps a noise direction with a large residual.  A
cluster that fails on either side, and the one cluster of an input
whose spectrum is a single cluster, climb Kublanovskaya's staircase
once (_climb), and one rank rule decides every level.  Level 1 factors
the shifted matrix: its kernel is the right kernel, so m_g = d_1 by
construction, and the complement of its range is Ran(A - lambda I)-perp,
which the residual identity of conditions reads back.  Its sigma_max
sets the cluster's one cutoff (Tolerance.climb_cutoff), which every
later level and the left split (one SVD of the shifted adjoint) read.
The climb keeps only its levels, the cutoff and the finished root bases
(EigenvalueCluster.climb), which rootspace returns.  A cluster that fills
its frame with d_1 = 1 skips the later levels when level 1 certifies one
Jordan block (Tolerance.single_block): its scatter is at most the cutoff
and the smallest kept singular value of B exceeds cutoff + scatter, so by
Weyl's inequality the nilpotent part of B's Schur form has rank m_a - 1,
and the staircase is 1 .. m_a.  A truncated shift thus takes two SVDs
(level 1 and the left split), not one per level.

While some cluster fails, every resolved cluster leaves the frame
(_shrunk): the certified ones before any climb, and each failing one once
its climb reaches its root spaces.  A cluster then climbs in a frame of
dimension n_d, n less the multiplicities resolved before it: it climbs
Z_R^* A Z_R and takes its left kernel from (Z_L^* A Z_L)^*, so it takes no
n x n SVD.  Only a single cluster, and the first climb when no cluster is
certified, climb unframed, at n.  The collapse test of kernel_split runs
only without a frame.  Every SVD goes through
_svd: a shifted matrix whose entries are all real (a real A at a real
lambda) is factored in real arithmetic, and phase_normalize makes every
basis complex again.

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
    "kernel_split",
]


@dataclass(frozen=True)
class Climb:
    """A staircase climb's levels d_1 .. d_h, its one rank cutoff, and the root
    spaces of A and A^* when d_h is the algebraic multiplicity, else None."""

    levels: tuple
    cutoff: float
    space: Subspace = None
    adjoint_space: Subspace = None


@dataclass(frozen=True)
class EigenvalueCluster:
    """One clustered eigenvalue with its kernel data.

    value is the cluster centroid; algebraic_multiplicity the number of
    raw eigenvalues merged into it; geometric_multiplicity the dimension
    of the right kernel; semi_simple is their equality.  scatter is the
    largest distance of a merged raw eigenvalue from the centroid, the
    resolution below which this cluster cannot distinguish eigenvalues.
    range_perp is Ran(A - value I)-perp from level 1 of the same climb as
    the right kernel, kept for the residual identity, and climb that climb's
    levels, cutoff and root spaces (see _climb); both None for a certified
    cluster, which took no SVD.
    """

    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    semi_simple: bool
    right_kernel: Subspace
    left_kernel: Subspace
    scatter: float = 0.0
    range_perp: Subspace = field(default=None, compare=False, repr=False)
    climb: Climb = field(default=None, compare=False, repr=False)

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
    than one cluster, and is None otherwise.
    """

    ambient_dim: int
    clusters: tuple
    adjoint_eigenvalues: np.ndarray = field(default=None, compare=False, repr=False)

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


def _shift(m, lam):
    # m - lam I in place in a new complex m: the bits of m - lam * np.eye(n, dtype=complex)
    # without that expression's two further n x n temporaries
    m -= lam * np.eye(len(m))
    return m


def _svd(b, lam=None):
    # a shifted matrix whose entries are all real is factored in real
    # arithmetic (dgesdd, not zgesdd); its singular vectors come out real
    return _lapack(np.linalg.svd, b if b.imag.any() else b.real, lam)


def kernel_split(a, lam, scatter, tol=DEFAULT_TOL):
    """Ran(a - lam I)-perp and Ker(a - lam I) as two Subspaces: level 1 of _climb, unframed.

    Raises EigenIterationError if the SVD fails to converge.
    """
    return _climb(a, lam, scatter, tol)[:2]


def _climb(a, lam, scatter, tol, m_a=None, frame=None, with_left=False):
    """(Ran-perp, right kernel, left kernel, Climb): Kublanovskaya's staircase at lam, one cutoff for every level.

    B is a - lam I, or Z_R^* a Z_R - lam I in a frame (_shrunk).  Level 1
    factors B: its kernel is Ker(a - lam I) (times Z_R), the complement of
    its range Ran(a - lam I)-perp.  In a frame Ran(a - lam I) also holds the
    certified right kernels and the root spaces already climbed, which Ran(Z_L)
    is orthogonal to, so Ran-perp is Z_L times the complement of Z_L^* Z_R U_1,
    U_1 level 1's range; Ran(B^h) at the top likewise.
    A merged cluster cannot distinguish eigenvalues closer to lam than its
    scatter, and cancellation noise in the shift reaches rank_eps * n * |lam|.
    So without a frame, a sigma_max at or below their sum (Tolerance.collapse_bound)
    makes B zero at the cluster's resolution: both spaces are one Subspace spanned
    by the identity, free of SVD rounding.  Otherwise the cutoff is
    Tolerance.climb_cutoff, anchored on |lam| since near lam I the shifted matrix
    is cancellation noise and its sigma_max no scale; every later level reads it.
    With with_left, it also decides the left kernel (_left_kernel) before the
    later levels, so that the SVD's n x n temporaries precede theirs on the
    heap; a full right kernel is its own left one.  Else the left kernel is None.
    The climb stops at level 1 when m_a is None, d_1 = 0 or d_1 >= m_a; a d_1 =
    m_a kernel is the root space, with Ran-perp as the adjoint's.  With
    with_left (point_spectrum's own climbs, whose m_a and scatter are its own
    clustering of A's eigenvalues), it also stops there when the cluster
    fills the frame (m_a = n_d), d_1 = 1 and Tolerance.single_block certifies
    one block of size m_a from level 1's smallest kept singular value, and
    returns the levels 1 .. m_a and root spaces the full climb would.
    Otherwise each level rotates the kernel of the trailing block of Q^* B Q
    to the front, until that block is nonsingular or empty.
    """
    n = a.shape[0]
    z_r, b, z_l, _ = (None, a, None, None) if frame is None else frame
    n_d = b.shape[0]
    u, s, vh = _svd(_shift(np.array(b, dtype=complex), lam), lam)
    cutoff = tol.climb_cutoff(n, float(s[0]), lam)
    if z_r is None and s[0] <= tol.collapse_bound(n, scatter, lam):
        perp = right = Subspace(n, phase_normalize(np.eye(n, dtype=complex)))
        rank = 0
    else:
        rank = int(np.count_nonzero(s > cutoff))
        kernel, perp = vh[rank:].conj().T, u[:, rank:]
        if z_r is not None:
            kernel = z_r @ kernel
            perp = z_l @ np.linalg.qr(z_l.conj().T @ (z_r @ u[:, :rank]), mode="complete")[0][:, rank:] if rank else z_l
        right, perp = Subspace(n, phase_normalize(kernel)), Subspace(n, phase_normalize(perp))
    d = right.dim
    left = None if not with_left else right if d == n else _left_kernel(a, lam, cutoff, frame)
    if m_a is None or not 0 < d < m_a:
        top = d == m_a
        return perp, right, left, Climb((d,) if d else (), cutoff, right if top else None, perp if top else None)
    # a root space that fills the frame is spanned by Q = I, which is never rotated;
    # there level 1 of point_spectrum's own climb may certify one block of size m_a
    q = np.eye(n_d, dtype=complex) if m_a < n_d else None
    one_block = with_left and q is None and d == 1 and tol.single_block(float(s[rank - 1]), cutoff, scatter)
    d, levels = (n_d, list(range(1, n_d + 1))) if one_block else (0, [])
    while rank < n_d - d:
        if q is not None:
            q[:, d:] = q[:, d:] @ np.vstack([vh[rank:], vh[:rank]]).conj().T
        trailing = vh[:rank] @ (u[:, :rank] * s[:rank])
        d = n_d - rank
        levels.append(d)
        if d < n_d:
            u, s, vh = _svd(trailing, lam)
            rank = int(np.count_nonzero(s > cutoff))
    if d != m_a:
        return perp, right, left, Climb(tuple(levels), cutoff)
    top = np.eye(n_d, dtype=complex) if q is None else q[:, :d]
    space = adjoint = Subspace(n, phase_normalize(top if z_r is None else z_r @ top))
    if d < n_d:
        # Ran(B^h) = Q[Y; lead I] with Y = -S by Horner's rule, Y <- (X + N Y) T^-1,
        # kept at most 1 by exact powers of 2, since S may overflow; T^-1 comes
        # from the last level's SVD of the nonsingular trailing block T
        nil, x = np.hsplit(q[:, :d].conj().T @ _shift(np.array(b, dtype=complex), lam) @ q, [d])
        y, lead = np.zeros_like(x), 1.0
        for _ in levels:
            y = ((lead * x + nil @ y) @ vh.conj().T / s) @ u.conj().T
            k = 2.0 ** -max(0, int(np.frexp(np.abs(y).max())[1]))
            y, lead = y * k, lead * k
        ran = np.vstack([y, lead * np.eye(n_d - d)])
        ran, _ = np.linalg.qr(ran if z_r is None else z_l.conj().T @ (z_r @ (q @ ran)), mode="complete")
        adjoint = Subspace(n, phase_normalize((q if z_r is None else z_l) @ ran[:, n_d - d:]))
    elif z_l is not None:
        adjoint = Subspace(n, phase_normalize(z_l))
    return perp, right, left, Climb(tuple(levels), cutoff, space, adjoint)


def _left_kernel(a, lam, cutoff, frame):
    # Ker(a^* - conj(lam) I) at a climb's cutoff, from one SVD, in the frame if any
    _, s, vh = _svd(_shift((a if frame is None else frame[3]).conj().T, lam.conjugate()), lam.conjugate())
    left = vh[np.count_nonzero(s > cutoff):].conj().T
    return Subspace(a.shape[0], phase_normalize(left if frame is None else frame[2] @ left))


def eigenvalue_groups(values, tol=DEFAULT_TOL):
    """Raw eigenvalues grouped by single linkage.

    Returns one (centroid, scatter, member indices) triple per group.
    """
    groups = []
    for idx in _single_linkage_groups(values, tol.cluster_radius(values)):
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
    block's residual ||(A - lam I) Q||_F exceeds Tolerance.certificate_cutoff
    (or is not finite), so the caller falls back to the SVD route for it.
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
    cutoff = tol.certificate_cutoff(n, fro, lam)
    certified = (right_res <= cutoff) & (left_res <= cutoff)
    # each column takes its own phase, so one call per side serves every block
    right, left = phase_normalize(right), phase_normalize(left)
    return {
        k: (Subspace(n, right[:, lo:lo + m]), Subspace(n, left[:, lo:lo + m]))
        for k, (lo, m) in enumerate(zip(starts, sizes))
        if certified[k]
    }


def _shrunk(a, frame, rights, lefts):
    """(Z_R, Z_R^* A Z_R, Z_L, Z_L^* A Z_L), the frame past clusters just resolved.

    frame is the frame so far, None for all of C^n, and rights and lefts
    are the stacked root bases R_c and L_c of the clusters it leaves behind:
    the certified kernels, or the root spaces a climb reached.  A left root
    vector at lambda is orthogonal to every root vector at mu != lambda, so
    Ran(Z_R) holds R_c and the root spaces still to climb, which L_c is
    orthogonal to; Z_R Q_R spans those, Q_R the tail of a complete QR of
    Z_R^* L_c.  Likewise Z_L Q_L, with Q_L that of Z_L^* R_c.  Both
    subspaces are invariant, so the compressions are Q^* (Z^* A Z) Q, with
    no new product against A once a frame exists.
    """
    frame = (None, a, None, a) if frame is None else frame
    shrunk = ()
    for z, b, resolved in ((frame[0], frame[1], lefts), (frame[2], frame[3], rights)):
        q = np.linalg.qr(resolved if z is None else z.conj().T @ resolved, mode="complete")[0][:, resolved.shape[1]:]
        shrunk += (q if z is None else z @ q, q.conj().T @ b @ q)
    return shrunk


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
        del adj_vecs
    # the eig vectors are spent: the climbs below run without them in memory
    del vecs
    failing = len(groups) - len(certified)
    frame = None
    if certified and failing:
        frame = _shrunk(a, None, *(np.hstack([s.basis for s in side]) for side in zip(*certified.values())))
    clusters = []
    for k, (lam, scatter, idx) in enumerate(groups):
        perp = climb = None
        if k in certified:
            right, left = certified[k]
        else:
            perp, right, left, climb = _climb(a, lam, scatter, tol, len(idx), frame, with_left=True)
            failing -= 1
            if failing and climb.space is not None:
                frame = _shrunk(a, frame, climb.space.basis, climb.adjoint_space.basis)
        m_a, m_g = len(idx), right.dim
        clusters.append(EigenvalueCluster(
            value=lam, algebraic_multiplicity=m_a, geometric_multiplicity=m_g, semi_simple=(m_a == m_g),
            right_kernel=right, left_kernel=left, scatter=scatter, range_perp=perp, climb=climb))
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return PointSpectrum(ambient_dim=n, clusters=tuple(clusters), adjoint_eigenvalues=adj_raw)
