"""Root (generalized eigen) subspaces via kernel staircases.

For a cluster at lambda the staircase is d_k = dim Ker(B^k), B = A - lambda I.
It rises to the height h, where Ker(B^h) is the root subspace; its steps (the
Weyr characteristic) conjugate into the Jordan block sizes.  Kublanovskaya's
deflation (Kagstrom & Ruhe, ACM TOMS 6(3), 1980) climbs it with no power of B:
the SVD of the trailing block of Q*BQ rotates that block's kernel to the
front; each step is its nullity at one cutoff, rank_eps * n * ||B||_2 off
the first SVD.  At the top Q*BQ = [[N, X], [0, T]], N nilpotent, T
nonsingular; Ran(B^h) = Q[-S; I] with S = -sum_(i<h) N^i X T^-(i+1), and its
complement Ker((B^*)^h) is the adjoint's root space: A^* climbs no staircase.

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
from .spectral import _lapack, point_spectrum

__all__ = ["RootSpace", "SpanReport", "root_space", "span_report"]


@dataclass(frozen=True)
class RootSpace:
    """Root subspace of one cluster.

    staircase holds d_1 .. d_h, h the height; segre lists the Jordan block
    sizes in non-increasing order; space.dim is the algebraic multiplicity,
    adjoint_space the adjoint's root subspace at conj(eigenvalue).
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

    When the cluster's kernels are its root spaces, a is not read.  Raises
    RootSpaceMismatchError when the stabilized kernel dimension is not the
    cluster's algebraic multiplicity (the rank and cluster tolerances
    disagree about this matrix), EigenIterationError when an SVD fails.
    """
    lam, m_a = complex(cluster.value), cluster.algebraic_multiplicity
    if cluster.kernels_are_root_spaces:
        return RootSpace(lam, (m_a,), 1, cluster.right_kernel, (1,) * m_a, cluster.left_kernel)
    a = as_matrix(a)
    n = a.shape[0]
    if n != a.shape[1]:
        raise ValueError("root space requires a square matrix")
    shifted = a - lam * np.eye(n, dtype=complex)
    q = np.eye(n, dtype=complex)
    trailing, cutoff, d, staircase = shifted, None, 0, []
    while d < n:
        u, s, vh = _lapack(np.linalg.svd, trailing, lam)
        cutoff = tol.rank_eps * n * float(s[0]) if cutoff is None else cutoff
        rank = int(np.count_nonzero(s > cutoff))
        if rank == n - d:
            break
        if m_a < n:  # else the root space is C^n, spanned by Q = I
            q[:, d:] = q[:, d:] @ np.vstack([vh[rank:], vh[:rank]]).conj().T
        trailing = vh[:rank] @ (u[:, :rank] * s[:rank])
        d = n - rank
        staircase.append(d)
    if d != m_a:
        raise RootSpaceMismatchError(lam, d, m_a)
    segre = _segre_from_staircase(staircase, lam)
    space = adjoint = Subspace(n, phase_normalize(q[:, :d]))
    if d < n:
        # Y = -S by Horner's rule, Y <- (X + N Y) T^-1, kept at most 1 by exact
        # powers of 2, since Ran(B^h) = Q[Y; lead I] at any scale and S may overflow
        nil, x = np.hsplit(q[:, :d].conj().T @ shifted @ q, [d])
        y, lead = np.zeros_like(x), 1.0
        for _ in staircase:
            y = ((lead * x + nil @ y) @ vh.conj().T / s) @ u.conj().T
            k = 2.0 ** -max(0, int(np.frexp(np.abs(y).max())[1]))
            y, lead = y * k, lead * k
        ran, _ = np.linalg.qr(np.vstack([y, lead * np.eye(n - d)]), mode="complete")
        adjoint = Subspace(n, phase_normalize(q @ ran[:, n - d:]))
    return RootSpace(lam, tuple(staircase), len(staircase), space, segre, adjoint)


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
