"""Construction of biorthonormal eigenvector systems.

Inner products are conjugate linear in the first argument throughout:
``(x, y) = x^* y`` as computed by ``np.vdot``.  A system pairs right
eigenvectors psi_i with left eigenvectors chi_i so that
``(chi_j, psi_i) = delta_ij``; psi keeps unit norm and a deterministic
phase while chi absorbs the normalization freedom.

Whether a system exists at all is decided sector by sector: the kernels
of ``A - lambda I`` and ``A^* - conj(lambda) I`` must have equal dimension
and a nonsingular cross-Gram.  Sectors of non-semi-simple clusters can
never pass that test in exact arithmetic, so the skew-link screen runs
first and the diagonalizability check remains as a backstop.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    IncompleteSystemError,
    NotDiagonalizableError,
    SkewLinkFailureError,
)
from .linalg import DEFAULT_TOL, _Blocks, _stacked_by_shape, as_matrix, subspace_pairs
from .spectral import point_spectrum

__all__ = [
    "SkewLinkVerdict",
    "skew_link_check",
    "BiorthoPair",
    "BiorthonormalSystem",
    "biorthonormalize",
    "expand",
    "resolution_of_identity",
]


@dataclass(frozen=True)
class SkewLinkVerdict:
    """Outcome of pairing two equal-ambient subspaces skewly.

    linked is true iff the subspaces have equal dimension and their
    cross-Gram has full rank; defect_dim counts the rank deficiency and
    self_orthogonality is the smallest singular value of the cross-Gram
    (1 for identical subspaces, 0 for orthogonal ones).
    """

    cluster_index: int
    linked: bool
    defect_dim: int
    self_orthogonality: float


def _links(sigmas, k1, k2, tol, indices=None):
    """Verdicts on pairs of bases of dimensions k1 and k2, tagged with indices (default 0, 1, ...).

    sigmas holds each pair's cross-Gram singular values, a _Blocks as
    subspace_pairs returns them, read once as Python floats.  A pair is
    linked iff k1 == k2 and sigma_min > Tolerance.link_cutoff(k1);
    defect_dim counts the singular values at or below that cutoff, k1 less
    the rank.  Two empty bases are linked at self-orthogonality 1, one empty
    basis is not, at 0.
    """
    values = sigmas.matrix.tolist()
    verdicts = []
    for i, d1, d2, lo, w in zip(range(len(sigmas)) if indices is None else indices, np.asarray(k1).tolist(),
                                np.asarray(k2).tolist(), sigmas.starts.tolist(), sigmas.widths.tolist()):
        if not w:
            verdicts.append(SkewLinkVerdict(i, d1 == d2, d1, 1.0 if d1 == d2 else 0.0))
            continue
        cut, sigma = tol.link_cutoff(d1), values[lo:lo + w]
        verdicts.append(SkewLinkVerdict(i, d1 == d2 and sigma[-1] > cut, d1 - sum(v > cut for v in sigma), sigma[-1]))
    return tuple(verdicts)


def _pair_links(firsts, seconds, tol, indices=None):
    """Skew links (see _links) and largest angles of the pairs of bases of two _Blocks, from one subspace_pairs call.

    For a spectrum's stacked kernel bases, the links decide C2 and the
    angles the sigma set.
    """
    sigmas, angles = subspace_pairs(firsts, seconds)
    return _links(sigmas, firsts.widths, seconds.widths, tol, indices), angles


def skew_link_check(s1, s2, tol=DEFAULT_TOL, cluster_index=-1):
    """Check whether two subspaces intersect each other's complement trivially.

    The criterion is rank-based on the cross-Gram C = B2^* B1 of the
    orthonormal bases: linked iff dim(s1) == dim(s2) and
    sigma_min(C) > Tolerance.link_cutoff(dim(s1)).
    """
    return _pair_links(_Blocks.of([s1.basis]), _Blocks.of([s2.basis]), tol, [cluster_index])[0][0]


@dataclass(frozen=True, eq=False)
class BiorthoPair:
    """One (psi, chi) pair tagged with the cluster it belongs to; equal pairs agree entry for entry."""

    psi: np.ndarray
    chi: np.ndarray
    cluster_index: int

    def __eq__(self, other):
        # the generated __eq__ would ask an array comparison for one truth value
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.cluster_index == other.cluster_index and np.array_equal(self.psi, other.psi)
                and np.array_equal(self.chi, other.chi))


@dataclass(frozen=True)
class BiorthonormalSystem:
    """A family of pairs with (chi_j, psi_i) = delta_ij.

    complete is read off the pairs: they span the whole space when their
    count equals ambient_dim.  biorthonormalize returns only complete
    systems; expand's IncompleteSystemError guards systems built by hand.
    gram_residual is the Frobenius distance of the full cross-Gram from
    the identity, a cheap certificate recomputable from the pairs alone.
    """

    ambient_dim: int
    pairs: tuple
    gram_residual: float

    @property
    def complete(self):
        return len(self.pairs) == self.ambient_dim

    def psi_matrix(self):
        if not self.pairs:
            return np.zeros((self.ambient_dim, 0), dtype=complex)
        return np.column_stack([p.psi for p in self.pairs])

    def chi_matrix(self):
        if not self.pairs:
            return np.zeros((self.ambient_dim, 0), dtype=complex)
        return np.column_stack([p.chi for p in self.pairs])

    def swapped(self):
        """The system with the roles of psi and chi exchanged.

        Expanding through the swapped system yields the coefficients
        (psi_i, f) of the adjoint-side expansion.  The Gram matrix turns
        into its conjugate transpose, so the residual carries over.
        """
        return replace(self, pairs=tuple(replace(p, psi=p.chi, chi=p.psi) for p in self.pairs))


def biorthonormalize(a, spectrum=None, tol=DEFAULT_TOL):
    """Build the biorthonormal eigenvector system of a diagnosed matrix.

    spectrum may be passed to reuse an existing clustering; it is
    computed from a at the given tolerance otherwise.  Raises
    SkewLinkFailureError as soon as one sector's kernels cannot be
    paired (carrying that sector's index and self-orthogonality), and
    NotDiagonalizableError if every sector pairs but some cluster is
    defective, which cannot happen for genuinely linked sectors and so
    only guards against inconsistent inputs.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if spectrum is None:
        # a cluster that can never pair climbs no staircase past level 1
        spectrum = point_spectrum(a, tol, _level_one=True)
    if spectrum.ambient_dim != n:
        raise ValueError("spectrum belongs to a matrix of different size")
    right, left = spectrum._right, spectrum._left
    for verdict in _pair_links(right, left, tol)[0]:
        if not verdict.linked:
            raise SkewLinkFailureError(verdict.cluster_index, verdict.self_orthogonality)
    defective = (right.widths != spectrum._algebraic).nonzero()[0].tolist()
    if defective:
        raise NotDiagonalizableError(defective)
    # clusters of one kernel dimension share one stacked solve; every pair
    # is linked, so both sides have the same widths
    v, w = right.matrix, np.empty_like(left.matrix)
    for idx, lefts, psis in _stacked_by_shape(left, right):
        gram_h = (lefts.conj().transpose(0, 2, 1) @ psis).conj().transpose(0, 2, 1)
        # chi = left @ inv(gram)^*, so that chi^* psi = identity.  The right-hand
        # side is a stack of identities: numpy before 2.0 reads one fewer
        # dimension than the matrices as a stack of vectors
        eyes = np.broadcast_to(np.eye(gram_h.shape[1]), gram_h.shape)
        w[:, right.columns(idx)] = (lefts @ np.linalg.solve(gram_h, eyes)).transpose(1, 0, 2).reshape(n, -1)
    owners = np.arange(len(right)).repeat(right.widths).tolist()
    pairs = [BiorthoPair(v[:, j].copy(), w[:, j].copy(), i) for j, i in enumerate(owners)]
    # every pair is linked and no cluster defective, so there are n pairs
    return BiorthonormalSystem(
        ambient_dim=n,
        pairs=tuple(pairs),
        gram_residual=float(np.linalg.norm(w.conj().T @ v - np.eye(len(pairs)), "fro")),
    )


def expand(system, f):
    """Coefficients (chi_i, f) of f in the system's psi basis.

    Only complete systems can expand arbitrary vectors; incomplete ones
    raise IncompleteSystemError.
    """
    if not system.complete:
        raise IncompleteSystemError(
            "system spans %d of %d dimensions and cannot expand arbitrary vectors"
            % (len(system.pairs), system.ambient_dim)
        )
    f = np.asarray(f, dtype=complex).reshape(-1)
    if f.shape[0] != system.ambient_dim:
        raise ValueError("vector length does not match the ambient dimension")
    return system.chi_matrix().conj().T @ f


def resolution_of_identity(system):
    """The operator sum of psi_i (chi_i, .) as an explicit matrix.

    Equals the identity exactly when the system is complete and exactly
    biorthonormal; its distance from the identity is a global quality
    certificate for the construction.
    """
    v = system.psi_matrix()
    w = system.chi_matrix()
    return v @ w.conj().T
