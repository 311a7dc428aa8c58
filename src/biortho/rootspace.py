"""Root (generalized eigen) subspaces via kernel staircases, and the spans they give.

For a cluster at lambda the staircase is d_k = dim Ker(B^k), B = A - lambda I.
It rises to the height h, where Ker(B^h) is the root subspace; its steps (the
Weyr characteristic) conjugate into the Jordan block sizes (the Segre
characteristic).  The staircase and both root subspaces, the adjoint's
Ker((B^*)^h) among them, come from Kublanovskaya's deflation (Kagstrom &
Ruhe, ACM TOMS 6(3), 1980), which spectral._climb runs once for each cluster
that fails the eig certificate; its docstring tells how, in a frame past the
resolved clusters and with the single-block certificate.  span_report and
check_conditions read the root bases the spectrum stacks (PointSpectrum._roots).
root_space reads one cluster's climb (EigenvalueCluster.climb) and turns its
staircase into the Segre characteristic; without the spectrum it climbs anew
at full size, every level.

A cluster whose kernels both have dimension m_a, as every simple or
collapsed one does, has them for root subspaces and climbs no further
(EigenvalueCluster.kernels_are_root_spaces); the stacked root bases take
its kernel columns.  When all clusters do, the root spans are the
eigenvector spans.  span_report ranks the stacked bases of both
sides: the SVD that ranks V gives kappa_v,
infinite exactly when the rank falls short of n, and ||V^*V - I||_2, zero
exactly when V's orthonormal kernel bases are mutually orthogonal.  One
cluster's root space is all of C^n, one orthonormal block: its rank is n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, RootSpaceMismatchError
from .linalg import DEFAULT_TOL, Subspace, as_matrix
from .spectral import _climb, point_spectrum

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


def root_space(a, cluster, tol=DEFAULT_TOL, spectrum=None):
    """Compute the root subspace for one eigenvalue cluster.

    When the cluster's kernels are its root spaces, a is not read.  Given
    the cluster's own spectrum, it returns the climb point_spectrum kept;
    without one, it climbs anew at full size.  Raises
    RootSpaceMismatchError when the stabilized kernel dimension is not the
    cluster's algebraic multiplicity (the rank and cluster tolerances
    disagree about this matrix), EigenIterationError when an SVD fails.
    """
    lam, m_a = complex(cluster.value), cluster.algebraic_multiplicity
    if cluster.kernels_are_root_spaces:
        return RootSpace(lam, (m_a,), 1, cluster.right_kernel, (1,) * m_a, cluster.left_kernel)
    climb = None if spectrum is None else cluster.climb
    if climb is None:
        a = as_matrix(a)
        if a.shape[0] != a.shape[1]:
            raise ValueError("root space requires a square matrix")
        climb = _climb(a, lam, cluster.scatter, tol, m_a)[2]
    if climb.space is None:
        raise RootSpaceMismatchError(lam, climb.levels[-1] if climb.levels else 0, m_a, climb.cutoff, climb.levels)
    segre = _segre_from_staircase(climb.levels, lam)
    return RootSpace(lam, climb.levels, len(climb.levels), climb.space, segre, climb.adjoint_space)


@dataclass(frozen=True)
class SpanReport:
    """Eigenvector and root span dimensions of A and (adjoint_) of A^*.

    kappa_v and eigen_gram_defect = ||V^*V - I||_2 come from the singular
    values of V, the clusters' orthonormal right kernel bases side by side.
    """

    eigen_span_dim: int
    root_span_dim: int
    ambient_dim: int
    adjoint_eigen_span_dim: int
    adjoint_root_span_dim: int
    kappa_v: float
    eigen_gram_defect: float


def _stacked_rank(basis, tol):
    s = np.linalg.svd(basis, compute_uv=False)
    return tol.stacked_rank(s, basis.shape), s


def span_report(a, tol=DEFAULT_TOL, spectrum=None):
    """Ranks of the stacked eigenvector and root bases of a matrix and its adjoint.

    spectrum may be passed to reuse an existing one; it must belong to the
    same matrix and tolerance.  The root bases are its stacked ones
    (PointSpectrum._roots).
    """
    if spectrum is None:
        spectrum = point_spectrum(a, tol)
    n = spectrum.ambient_dim
    eigen, s = _stacked_rank(spectrum._right.matrix, tol)
    adjoint_eigen, _ = _stacked_rank(spectrum._left.matrix, tol)
    root, adjoint_root = eigen, adjoint_eigen
    if not spectrum._kernels_are_root_spaces.all():
        spaces, adjoints = spectrum._roots
        if len(spaces) == 1:
            root = adjoint_root = n
        else:
            root, _ = _stacked_rank(spaces.matrix, tol)
            adjoint_root, _ = _stacked_rank(adjoints.matrix, tol)
    return SpanReport(
        eigen_span_dim=eigen,
        root_span_dim=root,
        ambient_dim=n,
        adjoint_eigen_span_dim=adjoint_eigen,
        adjoint_root_span_dim=adjoint_root,
        kappa_v=float(s[0] / s[-1]) if eigen == n else float("inf"),
        eigen_gram_defect=float(max(s[0] * s[0] - 1.0, 1.0 - s[-1] * s[-1])),
    )
