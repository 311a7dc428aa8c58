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

Two cases take no further level.  A simple cluster (m_a = 1) has height
1 and its root spaces are its kernels, so no SVD runs: the right kernel
and the left kernel that point_spectrum holds, from eig or from the SVD
fallback.  A cluster whose first level already reaches m_a is
semi-simple, so the staircase stops there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, RootSpaceMismatchError
from .linalg import DEFAULT_TOL, Subspace, as_matrix, phase_normalize
from .spectral import collapsed_at_resolution, point_spectrum

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
    weyr = [staircase[0]] + [b - a for a, b in zip(staircase, staircase[1:])]
    weyr.append(0)
    segre = []
    for k in range(len(staircase), 0, -1):
        count = weyr[k - 1] - weyr[k]
        if count < 0:
            raise ClusteringError(
                "kernel staircase at %.6g%+.6gj grew by increasing steps, "
                "which no matrix admits; rank decisions are inconsistent "
                "for this matrix, retry with different tolerances"
                % (eigenvalue.real, eigenvalue.imag)
            )
        segre.extend([k] * count)
    segre.sort(reverse=True)
    return tuple(segre)


def root_space(a, cluster, tol=DEFAULT_TOL):
    """Compute the root subspace for one eigenvalue cluster.

    A simple cluster's root spaces are its kernels, so a is not read.
    Raises RootSpaceMismatchError when the stabilized kernel dimension
    differs from the cluster's algebraic multiplicity, which signals
    that the rank and cluster tolerances disagree about this matrix.
    """
    lam = complex(cluster.value)
    m_a = cluster.algebraic_multiplicity
    if m_a == 1 and cluster.left_kernel.dim == 1:
        return RootSpace(lam, (1,), 1, cluster.right_kernel, (1,), cluster.left_kernel)
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("root space requires a square matrix")
    scatter = float(getattr(cluster, "scatter", 0.0))
    shifted = a - lam * np.eye(n, dtype=complex)
    norm0 = float(np.linalg.norm(shifted, 2))
    if collapsed_at_resolution(norm0, n, lam, scatter, tol):
        # the matrix is lam * I up to cancellation noise and in-cluster
        # eigenvalue scatter, so the root space is everything
        full = Subspace(n, phase_normalize(np.eye(n, dtype=complex)))
        if n != m_a:
            raise RootSpaceMismatchError(lam, n, m_a)
        return RootSpace(lam, (n,), 1, full, tuple([1] * n), full)
    base = shifted / norm0
    power = base
    staircase = []
    height = n
    for k in range(1, n + 1):
        u, s, vh = np.linalg.svd(power)
        # the chain is normalized so every stored power has norm at most 1;
        # flooring the cutoff at rank_eps keeps a fully collapsed power (all
        # entries roundoff) from masquerading as full rank
        cutoff = tol.rank_eps * max(n * float(s[0]), 1.0)
        rank = int(np.count_nonzero(s > cutoff))
        d = n - rank
        if staircase and d <= staircase[-1]:
            height = k - 1
            break
        staircase.append(d)
        stable = (u, vh, rank)
        if d == n or (k == 1 and d == m_a):
            height = k
            break
        power = (power / s[0]) @ base
    u, vh, rank = stable
    kernel = Subspace(n, phase_normalize(vh[rank:].conj().T))
    if kernel.dim != m_a:
        raise RootSpaceMismatchError(lam, kernel.dim, m_a)
    adjoint = Subspace(n, phase_normalize(u[:, rank:]))
    segre = _segre_from_staircase(staircase, lam)
    return RootSpace(lam, tuple(staircase), height, kernel, segre, adjoint)


@dataclass(frozen=True)
class SpanReport:
    """Eigenvector and root-subspace span dimensions of A and (adjoint_) of A^*."""

    eigen_span_dim: int
    root_span_dim: int
    ambient_dim: int
    adjoint_eigen_span_dim: int
    adjoint_root_span_dim: int


def _stacked_rank(blocks, n, tol):
    basis = np.hstack([b for b in blocks]) if blocks else np.zeros((n, 0), dtype=complex)
    if basis.shape[1] == 0:
        return 0
    s = np.linalg.svd(basis, compute_uv=False)
    cutoff = tol.rank_eps * s[0] * max(basis.shape) if s[0] > 0.0 else 0.0
    return int(np.count_nonzero(s > cutoff))


def span_report(a, tol=DEFAULT_TOL, spectrum=None, root_spaces=None):
    """Ranks of the stacked eigenvector and root bases of a matrix and its adjoint.

    spectrum and root_spaces may be passed to reuse existing results;
    they must belong to the same matrix and tolerance.
    """
    a = as_matrix(a)
    n = a.shape[0]
    if spectrum is None:
        spectrum = point_spectrum(a, tol)
    if root_spaces is None:
        root_spaces = [root_space(a, c, tol) for c in spectrum.clusters]
    return SpanReport(
        eigen_span_dim=_stacked_rank([c.right_kernel.basis for c in spectrum.clusters], n, tol),
        root_span_dim=_stacked_rank([r.space.basis for r in root_spaces], n, tol),
        ambient_dim=n,
        adjoint_eigen_span_dim=_stacked_rank([c.left_kernel.basis for c in spectrum.clusters], n, tol),
        adjoint_root_span_dim=_stacked_rank([r.adjoint_space.basis for r in root_spaces], n, tol),
    )
