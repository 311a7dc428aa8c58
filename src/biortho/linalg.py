"""Dense complex-matrix primitives with an explicit tolerance policy.

Every rank decision in the package flows through the same rule: a singular
value counts as zero iff it is at most ``rank_eps * sigma_max * max(rows,
cols)``.  The one exception is A - lambda I, whose cutoff is anchored to
|lambda| as well; spectral.kernel_split holds that rule.  Subspaces are
always carried as orthonormal column bases produced by the SVD, so
downstream overlap computations stay well conditioned.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "Subspace",
    "as_matrix",
    "adjoint",
    "phase_normalize",
    "nullspace",
    "range_space",
    "complement",
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
        Eigenvalue grouping radius, relative to the spectral scale
        ``max(1, max |lambda|)``.
    residual_eps
        Acceptance threshold for verification residuals.

    All three must lie strictly between 0 and 1.
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


DEFAULT_TOL = Tolerance()


def as_matrix(a):
    """Coerce input to a finite complex128 matrix.

    Accepts anything ``np.asarray`` does.  Raises ValueError for inputs
    that are not two-dimensional, are empty along an axis, or contain
    NaN or infinity.
    """
    m = np.array(a, dtype=complex, order="C")
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix, got ndim=%d" % m.ndim)
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise ValueError("matrix must be nonempty, got shape %r" % (m.shape,))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def adjoint(m):
    """Conjugate transpose."""
    return as_matrix(m).conj().T


def phase_normalize(basis):
    """Rotate each column so its first significant entry is real positive.

    The significance threshold is 1e-8 times the column's largest entry,
    which keeps the choice stable against roundoff in entries that are
    structurally zero.  Norms are preserved; only unit phases are applied.
    """
    basis = np.array(basis, dtype=complex)
    for j in range(basis.shape[1]):
        col = basis[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 1e-8 * top))
        pivot = col[lead]
        basis[:, j] = col * (pivot.conjugate() / abs(pivot))
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
        if b.shape[1]:
            # a NaN Gram entry compares False against any bound, so a
            # non-finite basis is refused before its Gram matrix is formed
            if not np.isfinite(b).all() or np.abs(b.conj().T @ b - np.eye(b.shape[1])).max() > 1e-6:
                raise ValueError("basis columns are not orthonormal")

    @property
    def dim(self):
        return self.basis.shape[1]

    def projector(self):
        """Orthogonal projector onto the subspace, shape (n, n)."""
        return self.basis @ self.basis.conj().T


def _rank_from_singular_values(s, shape, tol):
    if s.size == 0:
        return 0
    cutoff = tol.rank_eps * float(s[0]) * max(shape)
    return int(np.count_nonzero(s > cutoff))


def nullspace(m, tol=DEFAULT_TOL):
    """Orthonormal basis of Ker(m) as a Subspace of the column space.

    Rank is decided by the package-wide cutoff rule applied to the
    singular values of ``m``.
    """
    m = as_matrix(m)
    _, s, vh = np.linalg.svd(m)
    rank = _rank_from_singular_values(s, m.shape, tol)
    basis = phase_normalize(vh[rank:].conj().T)
    return Subspace(m.shape[1], basis)


def range_space(m, tol=DEFAULT_TOL):
    """Orthonormal basis of Ran(m) as a Subspace of the row space."""
    m = as_matrix(m)
    u, s, _ = np.linalg.svd(m)
    rank = _rank_from_singular_values(s, m.shape, tol)
    basis = phase_normalize(u[:, :rank])
    return Subspace(m.shape[0], basis)


def complement(space, tol=DEFAULT_TOL):
    """Orthogonal complement of a Subspace within its ambient space."""
    if space.dim == 0:
        basis = phase_normalize(np.eye(space.ambient_dim, dtype=complex))
        return Subspace(space.ambient_dim, basis)
    return nullspace(space.basis.conj().T, tol)


def subspace_angle(s1, s2):
    """Largest principal angle between two subspaces, in [0, pi/2].

    This is the arcsine of the spectral gap ||P1 - P2||_2 of the
    orthogonal projectors: 0 exactly when the subspaces coincide and
    pi/2 when some direction of one is orthogonal to all of the other,
    as always happens for unequal dimensions.  For equal dimensions the
    gap equals ||B2 - B1 (B1^* B2)||_2 on the orthonormal bases, which
    costs O(n k^2) rather than an n x n 2-norm.  The sine
    parametrization keeps small angles accurate.
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            "subspaces live in different ambient dimensions (%d vs %d)"
            % (s1.ambient_dim, s2.ambient_dim)
        )
    if s1.dim != s2.dim:
        return float(np.pi / 2)
    if s1.dim == 0:
        return 0.0
    b1, b2 = s1.basis, s2.basis
    leak = b2 - b1 @ (b1.conj().T @ b2)
    # a single column's 2-norm is its Euclidean length
    gap = np.linalg.norm(leak) if s1.dim == 1 else np.linalg.norm(leak, 2)
    return float(np.arcsin(min(1.0, float(gap))))


def condition_number(m, tol=DEFAULT_TOL):
    """Spectral condition number sigma_max / sigma_min of a square matrix.

    Returns ``inf`` when sigma_min falls at or below the rank cutoff,
    i.e. when the matrix is numerically singular.
    """
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("condition number requires a square matrix")
    s = np.linalg.svd(m, compute_uv=False)
    if _rank_from_singular_values(s, m.shape, tol) < m.shape[0]:
        return float("inf")
    return float(s[0] / s[-1])
