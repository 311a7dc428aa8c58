"""Dense complex-matrix primitives with an explicit tolerance policy.

Subspaces are carried as orthonormal column bases: most from an SVD, a
certified cluster's kernels from eig columns and a thin QR (spectral).
Every cutoff, radius and threshold a verdict turns on is one Tolerance
method, which states its rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "Subspace",
    "as_matrix",
    "phase_normalize",
    "nullspace",
    "range_space",
    "subspace_pairs",
    "subspace_angle",
    "condition_number",
    "DEFAULT_TOL",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by all diagnostics.

    rank_eps
        Relative singular-value cutoff for rank decisions.
    cluster_eps
        Eigenvalue grouping radius, relative to the spectral scale.
    residual_eps
        Acceptance threshold for verification residuals.

    All three must lie strictly between 0 and 1.  Each method is the one rule
    behind one kind of decision.  A singular value at a rank cutoff counts as
    zero; a residual, distance, angle or norm at its threshold passes.
    """

    rank_eps: float = 1e-10
    cluster_eps: float = 1e-8
    residual_eps: float = 1e-8

    def __post_init__(self):
        for name in ("rank_eps", "cluster_eps", "residual_eps"):
            value = getattr(self, name)
            if not (0.0 < value < 1.0):
                raise ValueError(
                    "%s must lie strictly inside (0, 1), got %r" % (name, value)
                )

    def stacked_rank(self, s, shape):
        """Rank from the singular values s of a matrix of this shape: the count above rank_eps * s[0] * max(shape)."""
        return int(np.count_nonzero(s > self.rank_eps * float(s[0]) * max(shape))) if s.size else 0

    def climb_cutoff(self, n, sigma_max, lam):
        """A staircase climb's one cutoff, rank_eps * n * max(sigma_max, |lam|), for an n x n A."""
        return self.rank_eps * n * max(sigma_max, abs(lam))

    def collapse_bound(self, n, scatter, lam):
        """1.25 * scatter + rank_eps * n * |lam|, the 1.25 headroom over the exact scatter so
        that a singular value computed by another route cannot straddle the line."""
        return 1.25 * scatter + self.rank_eps * n * abs(lam)

    def single_block(self, sigma, cutoff, scatter):
        """Whether level 1 of a climb certifies one Jordan block: scatter <= cutoff and sigma > cutoff + scatter.

        sigma is the smallest kept singular value of the m x m shifted matrix B of
        a cluster that fills its frame with d_1 = 1, cutoff the climb's, scatter
        the cluster's.  In a Schur form B = Q(D + N)Q^*, ||D||_2 <= scatter, so by
        Weyl's inequality sigma_(m-1)(N) >= sigma - scatter > cutoff: the nilpotent
        N has rank m - 1, one block of size m.  So A lies within scatter of a
        matrix with Segre (m), a distance the climb's rank rule already discards.
        """
        return scatter <= cutoff and sigma > cutoff + scatter

    def certificate_cutoff(self, n, fro, lam):
        """The eig certificates' cutoffs rank_eps * n * max(||A - lam I||_F / sqrt(n), |lam|)."""
        return self.rank_eps * n * np.maximum(fro / np.sqrt(n), np.abs(lam))

    def cluster_radius(self, values):
        """The single-linkage and C1 radius cluster_eps * max(1, max |values|)."""
        return self.cluster_eps * max(1.0, float(np.abs(values).max()))

    def link_cutoff(self, k):
        """rank_eps * k, for the singular values of a k-column cross-Gram."""
        return self.rank_eps * k

    @property
    def angle_threshold(self):
        """10 * residual_eps, for subspace angles and the Gram defect of the eigenvector bases."""
        return 10.0 * self.residual_eps

    def normality_threshold(self, norm_a):
        """residual_eps * max(1, ||A||_2^2), for the commutator norm."""
        return self.residual_eps * max(1.0, norm_a * norm_a)


DEFAULT_TOL = Tolerance()


def as_matrix(a):
    """Coerce input to a finite complex128 matrix.

    Accepts anything ``np.asarray`` does, and returns a C-ordered complex128
    matrix itself, not a copy, so no caller writes into its result.  Raises
    ValueError for inputs that are not two-dimensional, are empty along an
    axis, or contain NaN or infinity.
    """
    m = np.asarray(a, dtype=complex, order="C")
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix, got ndim=%d" % m.ndim)
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix must be nonempty, got shape %r" % (m.shape,))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def phase_normalize(basis):
    """Rotate each column so its first significant entry is real positive.

    The significance threshold is 1e-8 times the column's largest entry,
    which keeps the choice stable against roundoff in entries that are
    structurally zero.  Norms are preserved; only unit phases are applied.
    All columns are rotated in one pass.  The pivot's modulus is taken by
    np.hypot, which rounds as the scalar abs() of a complex does; np.abs
    over an array can round differently.  So on two or more rows the result
    is a per-column rotation's bit for bit.  A zero column stays zero.
    """
    basis = np.array(basis, dtype=complex)
    mags = np.abs(basis)
    top = mags.max(axis=0, initial=0.0)
    pivot = basis[np.argmax(mags > 1e-8 * top, axis=0), np.arange(basis.shape[1])]
    pivot[top == 0.0] = 1.0
    basis *= pivot.conj() / np.hypot(pivot.real, pivot.imag)
    return basis


@dataclass(frozen=True)
class Subspace:
    """A subspace of C^n held as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, k)``; ``k == 0`` encodes the
    trivial subspace.  Construction refuses non-finite entries and checks
    orthonormality loosely (1e-6) to catch outright misuse; the tight
    residual bound is a property of the factory functions and is covered
    by their tests.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = self.basis
        if b.ndim != 2 or b.shape[0] != self.ambient_dim:
            raise ValueError(
                "basis shape %r does not match ambient dimension %d"
                % (b.shape, self.ambient_dim)
            )
        if b.shape[1] > self.ambient_dim:
            raise ValueError("subspace dimension exceeds ambient dimension")
        if b.shape[1] == 1:
            # a non-finite column has a NaN or infinite squared norm, and
            # NaN compares False against any bound
            if not abs(np.vdot(b, b).real - 1.0) <= 1e-6:
                raise ValueError("basis columns are not orthonormal")
        elif b.shape[1]:
            # a non-finite basis is refused before its Gram matrix is formed
            if not np.isfinite(b).all() or np.abs(b.conj().T @ b - np.eye(b.shape[1])).max() > 1e-6:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self):
        return self.basis.shape[1]


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of Ker(m) as a Subspace of the column space.

    Rank is decided by Tolerance.stacked_rank on the singular values of ``m``.
    """
    m = as_matrix(m)
    _, s, vh = np.linalg.svd(m)
    return Subspace(m.shape[1], phase_normalize(vh[tol.stacked_rank(s, m.shape):].conj().T))


def range_space(m, tol=DEFAULT_TOL):
    """Orthonormal basis of Ran(m) as a Subspace of the row space."""
    m = as_matrix(m)
    u, s, _ = np.linalg.svd(m)
    return Subspace(m.shape[0], phase_normalize(u[:, :tol.stacked_rank(s, m.shape)]))


def _stacked_by_shape(firsts, seconds):
    """Equal-length lists of bases grouped by shape, for batched products.

    Returns one (indices, stacked firsts, stacked seconds) triple per
    (d1, d2), in order of first appearance.  Raises ValueError when a pair's
    bases live in different ambient dimensions.
    """
    shapes = {}
    for i, (b1, b2) in enumerate(zip(firsts, seconds)):
        if b1.shape[0] != b2.shape[0]:
            raise ValueError("subspaces live in different ambient dimensions (%d vs %d)"
                             % (b1.shape[0], b2.shape[0]))
        shapes.setdefault((b1.shape[1], b2.shape[1]), []).append(i)
    return [(idx, np.stack([firsts[i] for i in idx]), np.stack([seconds[i] for i in idx]))
            for idx in shapes.values()]


def subspace_pairs(firsts, seconds):
    """Cross-Gram singular values and largest principal angle of each pair of bases.

    firsts and seconds are equal-length lists of orthonormal bases B1 and B2
    of one ambient space.  Returns, per pair, the singular values of
    C = B2^* B1 in non-increasing order, and an array of the largest principal
    angles: pi/2 for unequal dimensions, 0 when both bases are empty, else
    arcsin ||B2 - B1 C^*||_2, the gap of the orthogonal projectors.  The leak
    keeps small angles that sqrt(1 - sigma_min(C)^2) loses; its 2-norm is the
    root of its d x d Gram's largest singular value.  Pairs are batched by
    shape: one stacked product and one batched SVD per (d1, d2).
    """
    sigmas = {}
    angles = np.zeros(len(firsts))
    for idx, b1, b2 in _stacked_by_shape(firsts, seconds):
        d1, d2 = b1.shape[2], b2.shape[2]
        cross = b2.conj().transpose(0, 2, 1) @ b1
        angles[idx] = 0.0 if d1 == d2 else np.pi / 2
        if d1 == d2 > 0:
            leak = b2 - b1 @ cross.conj().transpose(0, 2, 1)
            re, im = leak.real, leak.imag
            # L^*L from real products: on one column, exactly the sum np.linalg.norm takes
            gram = re.transpose(0, 2, 1) @ re + im.transpose(0, 2, 1) @ im
            gram = gram + 1j * (re.transpose(0, 2, 1) @ im - im.transpose(0, 2, 1) @ re)
            cross = np.concatenate([cross, gram])
        s = np.linalg.svd(cross, compute_uv=False) if min(d1, d2) else np.zeros((len(idx), 0))
        if d1 == d2 > 0:
            angles[idx] = np.arcsin(np.minimum(1.0, np.sqrt(s[len(idx):, 0])))
        sigmas.update(zip(idx, s))
    return [sigmas[i] for i in range(len(firsts))], angles


def subspace_angle(s1, s2):
    """Largest principal angle between two subspaces, in [0, pi/2] (see subspace_pairs)."""
    return float(subspace_pairs([s1.basis], [s2.basis])[1][0])


def condition_number(m, tol=DEFAULT_TOL):
    """Spectral condition number sigma_max / sigma_min of a square matrix.

    Returns ``inf`` when sigma_min falls at or below the rank cutoff,
    i.e. when the matrix is numerically singular.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("condition number requires a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    return float(s[0] / s[-1]) if tol.stacked_rank(s, m.shape) == m.shape[0] else float("inf")
