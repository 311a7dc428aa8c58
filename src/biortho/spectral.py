"""Clustered point spectrum with right and left kernel bases.

Eigenvalues and right eigenvectors come from one ``np.linalg.eig`` call
and are grouped by single linkage within Tolerance.cluster_radius: two
eigenvalues land in the same cluster whenever a chain of pairwise-close
eigenvalues connects them.  The closure is order independent.  Each
cluster carries the kernels of ``A - lambda I`` and
``A^* - conj(lambda) I`` at the cluster centroid.

Every factorization of A, of A^*, and of their shifts and compressions
goes through _lapack, which holds one rule: a matrix whose entries are
all real is factored in real arithmetic.  A real A so takes dgeev on
both sides, whose eigenvalues come in exact conjugate pairs, and a
cluster closed under conjugation keeps its real centroid (_clustered).
Its shifts at a real lambda take dgesdd; where every resolved eigenvalue
is real, the certified kernels, and so the frame and its compressions,
have zero imaginary parts, and a defective cluster's staircase takes
dgesdd framed or not.  The rule reads the matrix, not an option, and
the bases are complex again where they are stacked (phase_normalize).

When there is more than one cluster, every cluster first tries a
residual certificate.  A cluster of m raw eigenvalues takes its members'
eig(A) columns as its right block, and as its left block the same
members' columns of V^-*, V the eig vectors: one solve in place of a
second eig, with the left vectors dual to the right ones (Wilkinson's
view of left eigenvectors).  The construction (biorthonormalize) keeps
the dual left blocks whatever their certificates say, and takes eig(A^*)
only when the solve raises; a dual left block that fails climbs like any
other.  The diagnosis keeps them only when every block on both sides
passes, and check_conditions then takes the independent adjoint spectrum
of C1 and C3' from one eigvals(A^*).  Otherwise, when some right block
fails, some dual block fails or the solve raises, it runs eig(A^*) and
takes its columns at the m adjoint eigenvalues nearest conj(lambda),
whose eigenvalues are that spectrum.  Each side's blocks are
orthonormalized in one call (_Blocks.orthonormalized: unit columns, then
a thin QR of each multiple block, one stacked QR per block size).  When
every cluster is simple, V first takes one correction against its own
residuals (see _refined), before its dual basis is solved for, and so do
eig(A^*)'s vectors.  Both blocks Q must then pass
||(A - lambda I) Q||_F <= Tolerance.certificate_cutoff, scaled by
max(||A - lambda I||_F / sqrt(n), |lambda|).  By Courant-Fischer,
sigma_(n-m+1)(A - lambda I) <= ||(A - lambda I) Q||_2 <= ||.||_F, and
the Frobenius norm over sqrt(n) bounds sigma_max from below, so a
certified Q proves the SVD would find a kernel of dimension at least m
there too, whichever route gave it.  A defective cluster fails: its eig
vectors are nearly parallel, and the QR keeps a noise direction with a
large residual.  A cluster that fails on either side, and the one
cluster of an input whose spectrum is a single cluster, climb
Kublanovskaya's staircase once (_climb), and one rank rule decides every
level.  Level 1 factors
the shifted matrix: its kernel is the right kernel, so m_g = d_1 by
construction, and the complement of its range is Ran(A - lambda I)-perp,
which the residual identity of conditions reads back.  Its sigma_max
sets the cluster's one cutoff (Tolerance.climb_cutoff), which every
later level and the left split (one SVD of the shifted adjoint) read.
The climb keeps only its levels, the cutoff, level 1's Ran-perp and the
finished root bases (Climb, EigenvalueCluster.climb), which rootspace
returns and PointSpectrum._roots stacks.  A cluster that fills its frame with d_1 = 1 skips the later levels
when level 1 certifies one Jordan block (Tolerance.single_block): its scatter is at most the cutoff
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
only without a frame.

The spectrum is held as arrays (PointSpectrum): one right and one left
kernel basis matrix, n x sum(m_g), each cluster a column range of them,
with the clusters' values, algebraic multiplicities and scatters beside
them.  Every one of them is in report order, by centroid (Re, Im), from
the moment the clusters form: point_spectrum sorts the groups before the
certificate runs, so the certificate's stacks, the frame and the climbs
all run in that order and nothing is remapped after.  The certificate's
columns go into them as they are, after one orthonormality check per
block width of its certified blocks, and each climb its own block,
checked as the Subspace it built; the Climb itself is kept beside the
arrays, by cluster index.  The diagnosis reads these, and the root bases
the spectrum stacks from them once (PointSpectrum._roots); it builds no
cluster's view (PointSpectrum.clusters).  biorthonormalize sets
point_spectrum's _construction: the left blocks then come from V^-* even
where some block fails, and a failing cluster with 0 < d_1 < m_a, which
can never pair, stops after level 1 and the left split.

For a simple cluster the self-orthogonality |(chi, psi)| of the unit
left and right vectors is Wilkinson's reciprocal condition number of the
eigenvalue (The Algebraic Eigenvalue Problem, 1965): a perturbation E
moves the eigenvalue by about ||E|| / |(chi, psi)|, and the value tends
to 0 as the eigenvalue nears a defective coalescence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ClusteringError, EigenIterationError, RootSpaceMismatchError
from .linalg import DEFAULT_TOL, Subspace, _Blocks, as_matrix, phase_normalize

__all__ = [
    "EigenvalueCluster",
    "PointSpectrum",
    "point_spectrum",
    "kernel_split",
]


@dataclass(frozen=True)
class Climb:
    """A staircase climb's levels d_1 .. d_h, its one rank cutoff, level 1's
    Ran(A - lambda I)-perp, and the root spaces of A and A^* when d_h is the
    algebraic multiplicity, else None."""

    levels: tuple
    cutoff: float
    range_perp: Subspace
    space: Subspace = None
    adjoint_space: Subspace = None


def _check_multiplicity(value, m_a, m_g):
    if not 1 <= m_g <= m_a:
        raise ClusteringError(
            "cluster at %.6g%+.6gj has geometric multiplicity %d outside "
            "[1, %d]; the cluster and rank resolutions disagree, retry "
            "with a larger cluster_eps (to merge coalescing eigenvalues) "
            "or a larger rank_eps (to blur kernel ranks to the cluster "
            "radius)" % (value.real, value.imag, m_g, m_a)
        )


@dataclass(frozen=True)
class EigenvalueCluster:
    """One clustered eigenvalue with its kernel data.

    value is the cluster centroid; algebraic_multiplicity the number of
    raw eigenvalues merged into it.  The geometric multiplicity is read off
    the right kernel, dim Ker(A - value I), and the cluster is semi-simple
    when the two multiplicities are equal; neither is stored.  scatter is
    the largest distance of a merged raw eigenvalue from the centroid, the
    resolution below which this cluster cannot distinguish eigenvalues.
    climb is the staircase climb whose level 1 gave the right kernel (see
    _climb), None for a certified cluster, which took no SVD; range_perp
    reads its Ran(A - value I)-perp, kept for the residual identity.  A
    cluster of point_spectrum is a view (PointSpectrum.clusters), its
    kernels column ranges of the spectrum's stacked bases.
    """

    value: complex
    algebraic_multiplicity: int
    right_kernel: Subspace
    left_kernel: Subspace
    scatter: float = 0.0
    climb: Climb = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        _check_multiplicity(self.value, self.algebraic_multiplicity, self.right_kernel.dim)

    @property
    def geometric_multiplicity(self):
        return self.right_kernel.dim

    @property
    def semi_simple(self):
        return self.right_kernel.dim == self.algebraic_multiplicity

    @property
    def range_perp(self):
        """Ran(A - value I)-perp from level 1 of the cluster's climb, None for a certified cluster."""
        return None if self.climb is None else self.climb.range_perp

    @property
    def kernels_are_root_spaces(self):
        """True when both kernels have dimension m_a, so they are the root subspaces."""
        return self.right_kernel.dim == self.algebraic_multiplicity == self.left_kernel.dim


@dataclass(frozen=True)
class PointSpectrum:
    """All eigenvalue clusters of one matrix, sorted by centroid (Re, Im).

    adjoint_eigenvalues holds the raw eigenvalues of the adjoint from the
    eig(A^*) call of the certificate, and is None when no such call ran:
    with a single cluster, and when the left blocks came from V^-*.  A
    diagnosis's spectrum takes them from V^-* when every block of more
    than one cluster certifies, and runs eig(A^*) otherwise; a
    construction's always takes them from V^-* and runs eig(A^*) only when
    that solve raises.

    The clusters are also held as arrays, which the diagnosis reads: per
    cluster its value, algebraic multiplicity and scatter (_values,
    _algebraic, _scatter), and the right and left kernel bases side by side
    in one matrix per side (_right and _left, two _Blocks, whose widths are
    the kernel dimensions).  _climbed maps the index of each cluster that
    climbed to its Climb; _roots stacks the root bases from them when first
    read.  point_spectrum builds every array and record in report order as
    the clusters form, so a new one needs no remap.  It builds only the
    arrays; clusters builds every cluster's view from them when first read,
    its kernels views of the stacks.  A spectrum built from its clusters
    takes its arrays from them.
    """

    ambient_dim: int
    clusters: tuple
    adjoint_eigenvalues: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        clusters = self.clusters
        self._set(
            values=np.array([c.value for c in clusters], dtype=complex),
            algebraic=np.array([c.algebraic_multiplicity for c in clusters], dtype=int),
            scatter=np.array([c.scatter for c in clusters], dtype=float),
            right=_Blocks.of([c.right_kernel.basis for c in clusters]),
            left=_Blocks.of([c.left_kernel.basis for c in clusters]),
            climbed={i: c.climb for i, c in enumerate(clusters) if c.climb is not None},
        )

    def _set(self, **arrays):
        for name, value in arrays.items():
            object.__setattr__(self, "_" + name, value)

    @classmethod
    def _of_arrays(cls, ambient_dim, adjoint_eigenvalues, **arrays):
        """A spectrum from its arrays alone (see the class docstring), its clusters built when first read."""
        ps = object.__new__(cls)
        object.__setattr__(ps, "ambient_dim", ambient_dim)
        object.__setattr__(ps, "adjoint_eigenvalues", adjoint_eigenvalues)
        ps._set(**arrays)
        return ps

    def __getattr__(self, name):
        # only a spectrum made by _of_arrays lacks its clusters, until they are first read:
        # each cluster's view is built from the arrays, its kernels views of the stacks
        if name != "clusters" or "_right" not in vars(self):
            raise AttributeError(name)
        n = self.ambient_dim
        clusters = tuple(EigenvalueCluster(
            complex(self._values[i]), int(self._algebraic[i]), Subspace._checked(n, self._right[i]),
            Subspace._checked(n, self._left[i]), float(self._scatter[i]), self._climbed.get(i))
            for i in range(len(self._algebraic)))
        object.__setattr__(self, "clusters", clusters)
        return clusters

    def values(self):
        return self._values.copy()

    @property
    def _kernels_are_root_spaces(self):
        # per cluster, EigenvalueCluster.kernels_are_root_spaces
        return (self._right.widths == self._algebraic) & (self._left.widths == self._algebraic)

    @cached_property
    def _roots(self):
        """The stacked root bases of A and A^*, two _Blocks of widths m_a: a cluster's kernels where they are
        its root spaces, else its climb's; RootSpaceMismatchError for the first climb short of m_a."""
        spaces, adjoints = {}, {}
        for i in (~self._kernels_are_root_spaces).nonzero()[0].tolist():
            climb = self._climbed[i]
            if climb.space is None:
                raise RootSpaceMismatchError(complex(self._values[i]), climb.levels[-1] if climb.levels else 0,
                                             int(self._algebraic[i]), climb.cutoff, climb.levels)
            spaces[i], adjoints[i] = climb.space.basis, climb.adjoint_space.basis
        return self._right.replaced(spaces), self._left.replaced(adjoints)


def _single_linkage_groups(values, radius):
    """Connected components of the graph linking values within radius, as a _Blocks of member indices.

    Groups come in order of their smallest index, members in increasing
    index order.  Every value repeatedly takes the smallest label among
    its neighbours and then that label's own label; the labels settle on
    each component's smallest index, so a stable sort by label lists the
    groups in order.
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
    sizes = np.bincount(labels, minlength=n)
    return _Blocks(labels.argsort(kind="stable"), sizes[sizes > 0])


def _lapack(solver, m, lam=None, **options):
    """solver(m, **options), on m.real when no entry of m has an imaginary part.

    A matrix whose entries are all real (A or A^* of a real A, their
    shifts at a real lambda, and compressions onto real frames) is factored
    in real arithmetic: dgeev, not zgeev, whose eigenvalues come in exact
    conjugate pairs, and dgesdd, not zgesdd, whose singular vectors are
    real.  The results are complex again only where they are stacked.  A
    LinAlgError becomes EigenIterationError, naming lam, when given, as
    the eigenvalue whose shifted matrix failed.
    """
    try:
        return solver(m if m.imag.any() else m.real, **options)
    except np.linalg.LinAlgError as exc:
        where = "" if lam is None else " at %.6g%+.6gj" % (lam.real, lam.imag)
        raise EigenIterationError(str(exc) + where) from exc


def _shift(m, lam):
    # m - lam I in place in a new complex m: the bits of m - lam * np.eye(n, dtype=complex)
    # without that expression's two further n x n temporaries
    m -= lam * np.eye(len(m))
    return m


def kernel_split(a, lam, scatter, tol=DEFAULT_TOL):
    """Ran(a - lam I)-perp and Ker(a - lam I) as two Subspaces: level 1 of _climb, unframed.

    Raises EigenIterationError if the SVD fails to converge.
    """
    right, _, climb = _climb(a, lam, scatter, tol)
    return climb.range_perp, right


def _climb(a, lam, scatter, tol, m_a=None, frame=None, with_left=False, level_one=False):
    """(right kernel, left kernel, Climb): Kublanovskaya's staircase at lam, one cutoff for every level.

    B is a - lam I, or Z_R^* a Z_R - lam I in a frame (_shrunk).  Level 1
    factors B: its kernel is Ker(a - lam I) (times Z_R), the complement of
    its range Ran(a - lam I)-perp (Climb.range_perp).  In a frame
    Ran(a - lam I) also holds the certified right kernels and the root spaces already climbed, which Ran(Z_L)
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
    The climb stops at level 1 when m_a is None, d_1 = 0 or d_1 >= m_a, and
    with level_one when d_1 < m_a too; a d_1 = m_a kernel is the root space,
    with Ran-perp as the adjoint's.  With
    with_left (point_spectrum's own climbs, whose m_a and scatter are its own
    clustering of A's eigenvalues), it also stops there when the cluster
    fills the frame (m_a = n_d), d_1 = 1 and Tolerance.single_block certifies
    one block of size m_a from level 1's smallest kept singular value, and
    returns the levels 1 .. m_a and root spaces the full climb would.
    Otherwise each level rotates the kernel of the trailing block of Q^* B Q
    to the front, until that block is nonsingular or empty.  At the top
    Q^* B Q = [[N, X], [0, T]], N nilpotent, T nonsingular: the root space is
    Q[:, :m_a], and the complement of Ran(B^h) = Q[-S; I], S = -sum_(i<h)
    N^i X T^-(i+1), is the adjoint's, Ker((B^*)^h), so A^* climbs no
    staircase.  In a frame they are Z_R Q[:, :m_a] and Z_L times the
    complement of Z_L^* Z_R Q[-S; I].
    """
    n = a.shape[0]
    z_r, b, z_l, _ = (None, a, None, None) if frame is None else frame
    n_d = b.shape[0]
    u, s, vh = _lapack(np.linalg.svd, _shift(np.array(b, dtype=complex), lam), lam)
    cutoff = tol.climb_cutoff(n, float(s[0]), lam)
    if z_r is None and s[0] <= tol.collapse_bound(n, scatter, lam):
        perp = right = Subspace._checked(n, np.eye(n, dtype=complex))
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
    if m_a is None or not 0 < d < m_a or level_one:
        top = d == m_a
        return right, left, Climb((d,) if d else (), cutoff, perp, right if top else None, perp if top else None)
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
            u, s, vh = _lapack(np.linalg.svd, trailing, lam)
            rank = int(np.count_nonzero(s > cutoff))
    if d != m_a:
        return right, left, Climb(tuple(levels), cutoff, perp)
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
    return right, left, Climb(tuple(levels), cutoff, perp, space, adjoint)


def _left_kernel(a, lam, cutoff, frame):
    # Ker(a^* - conj(lam) I) at a climb's cutoff, from one SVD, in the frame if any
    _, s, vh = _lapack(np.linalg.svd, _shift((a if frame is None else frame[3]).conj().T, lam.conjugate()),
                        lam.conjugate())
    left = vh[np.count_nonzero(s > cutoff):].conj().T
    return Subspace(a.shape[0], phase_normalize(left if frame is None else frame[2] @ left))


def _clustered(values, tol):
    """Raw eigenvalues grouped by single linkage, as arrays: (centroids, scatters, members).

    members is a _Blocks over the member indices, one block per group, the
    groups in order of their smallest member (point_spectrum then sorts
    them into report order).  A group's centroid is its members' mean, a
    single value's own bits, and its scatter the largest distance of a
    member from the centroid.  The mean of a group closed under
    conjugation is real, and is kept real: the summation's rounding would
    leave an imaginary part on a real A's real cluster.  dgeev returns a
    real A's values in exact conjugate pairs, and linkage commutes with
    conjugation, so when the values are closed under it, so is every
    group that holds the conjugate of one of its members.
    """
    members = _single_linkage_groups(values, tol.cluster_radius(values))
    centroids = values[members.matrix[members.starts]].astype(complex, copy=False)
    scatters = np.zeros(len(members))
    multiple = (members.widths > 1).nonzero()[0].tolist()
    symmetric = bool(multiple) and values.dtype.kind == "c" and np.array_equal(
        np.sort(values), np.sort(values.conj()))
    for k in multiple:
        group = values[members[k]]
        centroid = group.mean()
        if centroid.imag and symmetric and (group == group[0].conjugate()).any():
            centroid = centroid.real
        centroids[k] = centroid
        scatters[k] = np.abs(group - centroid).max()
    return centroids, scatters, members


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


def _certified(b, blocks, shift, cutoff):
    """(blocks orthonormalized and phase-normalized, which pass): the residual certificate of one side.

    b is A or A^*, and blocks its candidate kernel columns, one block per
    group, with each column's eigenvalue in shift; each block is
    orthonormalized by one _Blocks.orthonormalized call and passes when
    ||(b - lambda I) Q||_F is at most its cutoff (and finite).
    """
    q = blocks.orthonormalized().matrix
    residual = _block_norms(b @ q - q * shift, blocks.starts)
    # each column takes its own phase, so one call serves every block
    return _Blocks(phase_normalize(q), blocks.widths), residual <= cutoff


def _certified_kernels(a, raw, vecs, lam, members, tol, dual=False):
    """(adjoint eigenvalues, right blocks, left blocks, certified): the kernel blocks of eigenvalue groups.

    A group of m raw eigenvalues (members, a _Blocks of their indices) at
    centroid lam takes its members' eig(A) columns as its right block.
    Its left block is the same members' columns of V^-* (V the eig
    vectors, refined when every group is simple), whose columns are the
    left eigenvectors dual to V's: (V^-* e_j)^* V e_i = delta_ij.  With
    dual they are kept whatever their certificates say.  Without it they
    are tried only when every right block passes, and kept only when
    every dual block passes too.  Otherwise, and when the solve raises, the
    left block is the eig(A^*) columns at the m adjoint eigenvalues nearest
    conj(lam), and the adjoint eigenvalues are returned (else None).
    Every block passes or fails the same residual certificate (_certified
    at Tolerance.certificate_cutoff).
    Both sides come as _Blocks, one block per group in the order of
    members (point_spectrum's report order); a group is certified when
    both its blocks pass, and the caller takes the SVD route for the others.
    """
    n = a.shape[0]
    adj = a.conj().T
    sizes = members.widths
    simple = len(sizes) == n
    if simple:
        vecs = _refined(a, raw, vecs)
    diag = np.diag(a)
    off = a - np.diag(diag)
    fro = np.sqrt(np.vdot(off, off).real + (np.abs(diag[None, :] - lam[:, None]) ** 2).sum(axis=1))
    cutoff = tol.certificate_cutoff(n, fro, lam)
    shift = lam.repeat(sizes)
    right, right_ok = _certified(a, _Blocks(vecs[:, members.matrix], sizes), shift, cutoff)
    if dual or right_ok.all():
        try:
            duals = np.linalg.solve(vecs.conj().T, np.eye(n))
        except np.linalg.LinAlgError:
            pass
        else:
            left, left_ok = _certified(adj, _Blocks(duals[:, members.matrix], sizes), shift.conj(), cutoff)
            if dual or left_ok.all():
                return None, right, left, right_ok & left_ok
    adj_raw, adj_vecs = _lapack(np.linalg.eig, adj)
    if simple:
        adj_vecs = _refined(adj, adj_raw, adj_vecs)
    # one stable sort gives every group's nearest adjoint eigenvalues, m of
    # them; when every group is simple, the first of each row is its argmin
    distance = np.abs(adj_raw[None, :] - lam.conj()[:, None])
    if simple:
        nearest = distance.argmin(axis=1)
    else:
        nearest = np.argsort(distance, axis=1, kind="stable")[np.arange(n)[None, :] < sizes[:, None]]
    left, left_ok = _certified(adj, _Blocks(adj_vecs[:, nearest], sizes), shift.conj(), cutoff)
    return adj_raw, right, left, right_ok & left_ok


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


def point_spectrum(a, tol=DEFAULT_TOL, *, _construction=False):
    """Compute the clustered point spectrum of a square matrix.

    Raises EigenIterationError if the QR iteration fails to converge and
    ClusteringError if a cluster's kernel dimension is inconsistent with
    its cardinality (a sign the tolerances cut a coalescing group apart).
    With more than one cluster, the certificate's left blocks come from the
    dual basis V^-* of the eig vectors when every block certifies, and
    adjoint_eigenvalues is then None; when some block fails, from eig(A^*)
    (_certified_kernels).  With _construction, which biorthonormalize sets,
    they come from V^-* whatever their certificates say, and
    adjoint_eigenvalues is None unless that solve raised and eig(A^*) ran
    instead; and a cluster whose climb finds 0 < d_1 < m_a, and so can
    never pair, climbs no further than level 1 and the left split (_climb's
    level_one).
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValueError("point spectrum requires a square matrix")
    raw, vecs = _lapack(np.linalg.eig, a)
    values, scatters, members = _clustered(raw, tol)
    # report order, by centroid (Re, Im), from here on: the certificate's
    # stacks, the frame and every climb run in it
    order = np.lexsort((values.imag, values.real))
    if (order != np.arange(len(order))).any():
        values, scatters, members = values[order], scatters[order], members.take(order)
    adj_raw = right = left = None
    certified = np.zeros(len(members), dtype=bool)
    if len(members) > 1:
        adj_raw, right, left, certified = _certified_kernels(a, raw, vecs, values, members, tol, _construction)
        right.check(certified)
        left.check(certified)
    # the eig vectors are spent: the climbs below run without them in memory
    del vecs
    failing = (~certified).nonzero()[0]
    frame = None
    if certified.any() and len(failing):
        kept = certified.repeat(right.widths)
        frame = _shrunk(a, None, right.matrix[:, kept], left.matrix[:, kept])
    climbed, rights, lefts = {}, {}, {}
    for k in failing.tolist():
        lam, m_a = complex(values[k]), int(members.widths[k])
        kernel, left_kernel, climb = _climb(a, lam, float(scatters[k]), tol, m_a, frame, with_left=True,
                                            level_one=_construction)
        _check_multiplicity(lam, m_a, kernel.dim)
        # each climb's kernels take its cluster's block of the certificate's stacks
        climbed[k], rights[k], lefts[k] = climb, kernel.basis, left_kernel.basis
        if k != failing[-1] and climb.space is not None:
            frame = _shrunk(a, frame, climb.space.basis, climb.adjoint_space.basis)
    if right is None:
        right, left = _Blocks.of([rights[0]]), _Blocks.of([lefts[0]])
    else:
        right, left = right.replaced(rights), left.replaced(lefts)
    if adj_raw is not None:
        adj_raw = adj_raw.astype(complex, copy=False)
    return PointSpectrum._of_arrays(n, adj_raw, values=values, algebraic=members.widths, scatter=scatters,
                                    right=right, left=left, climbed=climbed)
