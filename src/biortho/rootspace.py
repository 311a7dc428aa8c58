"""Root (generalized eigen) subspaces via kernel staircases.

For a cluster at lambda the staircase is d_k = dim Ker((A - lambda I)^k),
k = 1, 2, ...  It strictly increases until it stabilizes; the first
stable level is the height, its kernel is the root subspace, and the
consecutive differences (the Weyr characteristic) conjugate into the
Jordan block sizes.  Powers are rescaled by their operator norm between
multiplications so rank cutoffs stay relative to the power itself.
The left singular vectors past each power's rank span
Ker((A^* - conj(lambda) I)^k), so the same SVDs give the adjoint's root
subspace at conj(lambda) without a second staircase.

A cluster whose kernels both have dimension m_a, as every simple or
collapsed one does, has them for root subspaces and takes no staircase
(EigenvalueCluster.kernels_are_root_spaces).  When all clusters do, the
root spans are the eigenvector spans; the SVD that ranks V also gives
kappa_v, infinite exactly when the rank falls short of n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, RootSpaceMismatchError
from .linalg import DEFAULT_TOL, Subspace, _rank_from_singular_values, as_matrix, phase_normalize
from .spectral import point_spectrum

__all__ = ["RootSpace", "SpanReport", "root_space", "span_report"]


@dataclass(frozen=True)
class RootSpace:
    """Root subspace of one cluster.

    staircase holds d_1 .. d_p where p is the height; segre lists the
    Jordan block sizes in non-increasing order.  space.dim equals the
    cluster's algebraic multiplicity (enforced at construction time by
    root_space).  adjoint_space is the adjoint's root subspace at
    conj(eigenvalue), the orthogonal complement of Ran((A - lambda I)^height).
    """

    eigenvalue: complex
    staircase: tuple
    height: int
    space: Subspace
    segre: tuple
    adjoint_space: Subspace


def _segre_from_staircase(staircase, eigenvalue):
    # the Weyr characteristic w_k = d_k - d_(k-1) counts the blocks of size
    # at least k, so w_k - w_(k+1) of them have size exactly k
    weyr = np.diff([0, *staircase, staircase[-1]])
    counts = weyr[:-1] - weyr[1:]
    if (counts < 0).any():
        raise ClusteringError(
            "kernel staircase at %.6g%+.6gj grew by increasing steps, "
            "which no matrix admits; rank decisions are inconsistent "
            "for this matrix, retry with different tolerances"
            % (eigenvalue.real, eigenvalue.imag)
        )
    return tuple(k for k in range(len(counts), 0, -1) for _ in range(counts[k - 1]))


def root_space(a, cluster, tol=DEFAULT_TOL):
    """Compute the root subspace for one eigenvalue cluster.

    When the cluster's kernels are its root spaces, a is not read.
    Raises RootSpaceMismatchError when the stabilized kernel dimension
    differs from the cluster's algebraic multiplicity, which signals
    that the rank and cluster tolerances disagree about this matrix.
    """
    lam = complex(cluster.value)
    m_a = cluster.algebraic_multiplicity
    if cluster.kernels_are_root_spaces:
        return RootSpace(lam, (m_a,), 1, cluster.right_kernel, (1,) * m_a, cluster.left_kernel)
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("root space requires a square matrix")
    # a collapsed cluster has full kernels and returned above
    shifted = a - lam * np.eye(n, dtype=complex)
    base = shifted / np.linalg.norm(shifted, 2)
    power = base
    staircase = []
    for _ in range(n):
        u, s, vh = np.linalg.svd(power)
        # the chain is normalized so every stored power has norm at most 1;
        # flooring the cutoff at rank_eps keeps a fully collapsed power (all
        # entries roundoff) from masquerading as full rank
        cutoff = tol.rank_eps * max(n * float(s[0]), 1.0)
        rank = int(np.count_nonzero(s > cutoff))
        d = n - rank
        if staircase and d <= staircase[-1]:
            break
        staircase.append(d)
        stable = (u, vh, rank)
        if d == n:
            break
        power = (power / s[0]) @ base
    u, vh, rank = stable
    kernel = Subspace(n, phase_normalize(vh[rank:].conj().T))
    if kernel.dim != m_a:
        raise RootSpaceMismatchError(lam, kernel.dim, m_a)
    adjoint = Subspace(n, phase_normalize(u[:, rank:]))
    segre = _segre_from_staircase(staircase, lam)
    return RootSpace(lam, tuple(staircase), len(staircase), kernel, segre, adjoint)


@dataclass(frozen=True)
class SpanReport:
    """Eigenvector and root span dimensions of A and (adjoint_) of A^*, and kappa_v of V."""

    eigen_span_dim: int
    root_span_dim: int
    ambient_dim: int
    adjoint_eigen_span_dim: int
    adjoint_root_span_dim: int
    kappa_v: float


def _stacked_rank(blocks, tol):
    basis = np.hstack(blocks)
    s = np.linalg.svd(basis, compute_uv=False)
    return _rank_from_singular_values(s, basis.shape, tol), s


def span_report(a, tol=DEFAULT_TOL, spectrum=None, root_spaces=None):
    """Ranks of the stacked eigenvector and root bases of a matrix and its adjoint.

    spectrum and root_spaces may be passed to reuse existing results;
    they must belong to the same matrix and tolerance.
    """
    if spectrum is None:
        spectrum = point_spectrum(a, tol)
    n = spectrum.ambient_dim
    clusters = spectrum.clusters
    eigen, s = _stacked_rank([c.right_kernel.basis for c in clusters], tol)
    adjoint_eigen, _ = _stacked_rank([c.left_kernel.basis for c in clusters], tol)
    root, adjoint_root = eigen, adjoint_eigen
    if not all(c.kernels_are_root_spaces for c in clusters):
        if root_spaces is None:
            root_spaces = [root_space(a, c, tol) for c in clusters]
        root, _ = _stacked_rank([r.space.basis for r in root_spaces], tol)
        adjoint_root, _ = _stacked_rank([r.adjoint_space.basis for r in root_spaces], tol)
    return SpanReport(
        eigen_span_dim=eigen,
        root_span_dim=root,
        ambient_dim=n,
        adjoint_eigen_span_dim=adjoint_eigen,
        adjoint_root_span_dim=adjoint_root,
        kappa_v=float(s[0] / s[-1]) if eigen == n else float("inf"),
    )
