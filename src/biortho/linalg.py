"""Dense complex-matrix primitives with an explicit tolerance policy.

Subspaces are carried as orthonormal column bases: most from an SVD, a
certified cluster's kernels from eig columns and a thin QR (spectral).
Many bases of one ambient space travel side by side in one matrix
(_Blocks), each a column range, one stack per block width reshaped from
it.  Blocks become orthonormal bases one way (_Blocks.orthonormalized),
and pairs of bases are compared one way (subspace_pairs).  Every cutoff,
radius and threshold a verdict turns on is one Tolerance method, which
states its rule.
"""

from __future__ import annotations

from collections.abc import Sequence
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


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^n held as an orthonormal column basis.

    ``basis`` has shape ``(ambient_dim, k)``; ``k == 0`` encodes the
    trivial subspace.  Construction refuses non-finite entries and checks
    orthonormality loosely (1e-6, _orthonormal, the rule _Blocks.check
    applies to a stack) to catch outright misuse; the tight residual bound
    is a property of the factory functions and is covered by their tests.
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
        if not _orthonormal(b[None]):
            raise ValueError("basis columns are not orthonormal")

    def __eq__(self, other):
        # the generated __eq__ would ask an array comparison for one truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.ambient_dim == other.ambient_dim and np.array_equal(self.basis, other.basis)

    @classmethod
    def _checked(cls, ambient_dim, basis):
        """The Subspace on basis, a block of a _Blocks whose check() has passed."""
        space = object.__new__(cls)
        object.__setattr__(space, "ambient_dim", ambient_dim)
        object.__setattr__(space, "basis", basis)
        return space

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


def _orthonormal(stack):
    """Whether every basis of a (k, n, d) stack has orthonormal columns, to within 1e-6.

    Subspace checks its one basis as a stack of one, _Blocks.check each stack of one width.

    A non-finite stack is refused before its Gram matrices are formed.
    """
    if not np.isfinite(stack).all():
        return False
    gram = stack.conj().transpose(0, 2, 1) @ stack
    return bool((np.abs(gram - np.eye(stack.shape[2])) <= 1e-6).all())


def _groups(keys):
    """{key: the indices that hold it} for a 1-d int array, keys in order of first appearance."""
    if not len(keys):
        return {}
    if keys.min() == keys.max():
        # one key, as when every cluster is simple: no sort
        return {int(keys[0]): np.arange(len(keys))}
    return {int(keys[i]): (keys == keys[i]).nonzero()[0] for i in np.sort(np.unique(keys, return_index=True)[1])}


class _Blocks(Sequence):
    """Bases side by side in one matrix: block i is the columns starts[i] .. starts[i] + widths[i].

    A sequence of its blocks, each a view.  The blocks of one width come out
    as one C-contiguous (k, n, d) stack (stack), the array np.stack would
    build from them, by one column gather and one reshape.  The matrix may
    also be 1-d, each block a run of its entries.
    """

    def __init__(self, matrix, widths):
        self.matrix, self.widths, self._starts = matrix, np.asarray(widths, dtype=int), None

    @property
    def starts(self):
        if self._starts is None:
            self._starts = self.widths.cumsum() - self.widths
        return self._starts

    @classmethod
    def of(cls, bases):
        """The bases of a list side by side; an empty list gives no blocks."""
        matrix = np.concatenate(bases, axis=1) if len(bases) else np.zeros((0, 0), dtype=complex)
        return cls(matrix, [b.shape[1] for b in bases])

    def __len__(self):
        return len(self.widths)

    def __getitem__(self, i):
        lo = self.starts[i]
        return self.matrix[..., lo:lo + self.widths[i]]

    def columns(self, idx):
        """The column indices of the blocks idx, which share one width, block after block (a slice for all blocks)."""
        if len(idx) == len(self.widths):
            return slice(None)
        return (self.starts[idx][:, None] + np.arange(self.widths[idx[0]])).ravel()

    def stack(self, idx):
        """The blocks idx, which share one width d, as one C-contiguous (len(idx), n, d) array."""
        n, d = self.matrix.shape[0], int(self.widths[idx[0]])
        return np.ascontiguousarray(self.matrix[:, self.columns(idx)].reshape(n, len(idx), d).transpose(1, 0, 2))

    def check(self, where):
        """Raise ValueError unless every block where the boolean array where holds has orthonormal columns.

        One _orthonormal call per block width, the check Subspace makes of one basis.
        """
        among = where.nonzero()[0]
        for d, sub in _groups(self.widths[among]).items():
            if d and not _orthonormal(self.stack(among[sub])):
                raise ValueError("basis columns are not orthonormal")

    def orthonormalized(self):
        """Orthonormal bases of the blocks' spans, side by side: a new _Blocks of the same widths.

        Every column is divided by its 2-norm, one np.linalg.norm over the
        matrix, then each block of width 2 or more is replaced by the Q of
        its thin QR: one stacked np.linalg.qr per width, equal bit for bit to
        one call per block.
        """
        units = _Blocks(self.matrix / np.linalg.norm(self.matrix, axis=0), self.widths)
        among = (self.widths > 1).nonzero()[0]
        for sub in _groups(self.widths[among]).values():
            idx = among[sub]
            q = np.linalg.qr(units.stack(idx))[0]
            units.matrix[:, units.columns(idx)] = q.transpose(1, 0, 2).reshape(len(units.matrix), -1)
        return units

    def take(self, order):
        """The blocks in the given order, in one new matrix (or 1-d array)."""
        widths = self.widths[order]
        if (widths == 1).all():
            return _Blocks(self.matrix[..., order], widths)
        cols = (self.starts[order] - widths.cumsum() + widths).repeat(widths) + np.arange(widths.sum())
        return _Blocks(self.matrix[..., cols], widths)

    def replaced(self, blocks):
        """Block i replaced by the basis blocks[i], for each i in the dict blocks; a lone block by blocks[0] itself."""
        if not blocks:
            return self
        pieces, at, widths = [], 0, self.widths.copy()
        for i in sorted(blocks):
            pieces += [self.matrix[:, at:self.starts[i]], blocks[i]]
            at = self.starts[i] + self.widths[i]
            widths[i] = blocks[i].shape[1]
        pieces.append(self.matrix[:, at:])
        return _Blocks(blocks[0] if len(self) == 1 else np.concatenate(pieces, axis=1), widths)


def _stacked_by_shape(firsts, seconds):
    """Two equal-length _Blocks grouped by block shape, for batched products.

    Returns one (indices, stacked firsts, stacked seconds) triple per
    (d1, d2), in order of first appearance.  Raises ValueError when the two
    live in different ambient dimensions.
    """
    if len(firsts.widths) and firsts.matrix.shape[0] != seconds.matrix.shape[0]:
        raise ValueError("subspaces live in different ambient dimensions (%d vs %d)"
                         % (firsts.matrix.shape[0], seconds.matrix.shape[0]))
    shapes = firsts.widths * (seconds.widths.max(initial=0) + 1) + seconds.widths
    return [(idx, firsts.stack(idx), seconds.stack(idx)) for idx in _groups(shapes).values()]


def subspace_pairs(firsts, seconds):
    """Cross-Gram singular values and largest principal angle of each pair of bases.

    firsts and seconds are two _Blocks of equal length, orthonormal bases B1
    and B2 of one ambient space.  Returns, per pair, the singular values of
    C = B2^* B1 in non-increasing order (a _Blocks over one 1-d array), and
    an array of the largest principal angles: pi/2 for unequal dimensions,
    0 when both bases are empty, else arcsin ||B2 - B1 C^*||_2, the gap of the orthogonal
    projectors.  The leak keeps small angles that sqrt(1 - sigma_min(C)^2)
    loses; its 2-norm is the root of the largest singular value of its
    d x d Gram L^*L, one complex product.  Pairs are batched by shape: one
    stacked product and one batched SVD per (d1, d2).
    """
    widths = np.minimum(firsts.widths, seconds.widths)
    sigmas = _Blocks(np.zeros(widths.sum()), widths)
    angles = np.zeros(len(firsts.widths))
    for idx, b1, b2 in _stacked_by_shape(firsts, seconds):
        d1, d2 = b1.shape[2], b2.shape[2]
        cross = b2.conj().transpose(0, 2, 1) @ b1
        angles[idx] = 0.0 if d1 == d2 else np.pi / 2
        if d1 == d2 > 0:
            leak = b2 - b1 @ cross.conj().transpose(0, 2, 1)
            cross = np.concatenate([cross, leak.conj().transpose(0, 2, 1) @ leak])
        if min(d1, d2):
            s = np.linalg.svd(cross, compute_uv=False)
            sigmas.matrix[sigmas.columns(idx)] = s[:len(idx)].ravel()
            if d1 == d2:
                angles[idx] = np.arcsin(np.minimum(1.0, np.sqrt(s[len(idx):, 0])))
    return sigmas, angles


def subspace_angle(s1, s2):
    """Largest principal angle between two subspaces, in [0, pi/2] (see subspace_pairs)."""
    return float(subspace_pairs(_Blocks.of([s1.basis]), _Blocks.of([s2.basis]))[1][0])


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
