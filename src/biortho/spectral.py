"""Clustered point spectrum with right and left kernel bases.

Eigenvalues are computed by the QR iteration and then grouped by
single-linkage with radius ``cluster_eps * max(1, max |lambda|)``: two
eigenvalues land in the same cluster whenever a chain of pairwise-close
eigenvalues connects them.  The closure is order independent.  Each
cluster carries the kernels of ``A - lambda I`` and ``A^* - conj(lambda) I``
at the cluster centroid, computed independently via the SVD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClusteringError, EigenIterationError
from .linalg import DEFAULT_TOL, Subspace, as_matrix, nullspace, phase_normalize

__all__ = [
    "EigenvalueCluster",
    "PointSpectrum",
    "point_spectrum",
    "adjoint_point_spectrum",
    "eigenvalue_groups",
    "eigvec_matrix",
    "collapsed_at_resolution",
]

# headroom over the exact scatter so a singular value computed through a
# different route (SVD vs eigenvalue subtraction) cannot straddle the line
_SCATTER_MARGIN = 1.25


def collapsed_at_resolution(shifted_norm, n, value, scatter, tol):
    """True when ``A - value * I`` is zero at the cluster's resolution.

    shifted_norm is the 2-norm of the shifted matrix and n its size.  A
    merged cluster cannot distinguish eigenvalues closer to its centroid
    than ``scatter``, and cancellation noise in the shift itself reaches
    ``rank_eps * n * |value|``.  When the entire shifted matrix sits at or
    below that scale, every direction belongs to the kernel and the root
    space is the full ambient space.
    """
    return float(shifted_norm) <= _SCATTER_MARGIN * scatter + tol.rank_eps * n * abs(value)


@dataclass(frozen=True)
class EigenvalueCluster:
    """One clustered eigenvalue with its kernel data.

    value is the cluster centroid; algebraic_multiplicity the number of
    raw eigenvalues merged into it; geometric_multiplicity the dimension
    of the right kernel; semi_simple is their equality.  scatter is the
    largest distance of a merged raw eigenvalue from the centroid, the
    resolution below which this cluster cannot distinguish eigenvalues.
    """

    value: complex
    algebraic_multiplicity: int
    geometric_multiplicity: int
    semi_simple: bool
    right_kernel: Subspace
    left_kernel: Subspace
    scatter: float = 0.0

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


@dataclass(frozen=True)
class PointSpectrum:
    """All eigenvalue clusters of one matrix, sorted by (Re, Im)."""

    ambient_dim: int
    clusters: tuple

    @property
    def scale(self):
        """Spectral scale max(1, max |lambda|) used for relative radii."""
        return max(1.0, max(abs(c.value) for c in self.clusters))

    def values(self):
        return np.array([c.value for c in self.clusters])


def _single_linkage_groups(values, radius):
    """Connected components of the graph linking values within radius."""
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    diff = np.abs(values[:, None] - values[None, :])
    for i in range(n):
        for j in range(i + 1, n):
            if diff[i, j] <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return list(groups.values())


def eigenvalue_groups(a, tol=DEFAULT_TOL):
    """Eigenvalues of a square matrix grouped by single linkage.

    Returns one (centroid, scatter, multiplicity) triple per group.
    Raises EigenIterationError if the QR iteration fails to converge.
    """
    try:
        raw = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigenIterationError(str(exc)) from exc
    radius = tol.cluster_eps * max(1.0, float(np.abs(raw).max()))
    groups = []
    for idx in _single_linkage_groups(raw, radius):
        lam = complex(raw[idx].mean())
        scatter = float(np.abs(raw[idx] - lam).max()) if len(idx) > 1 else 0.0
        groups.append((lam, scatter, len(idx)))
    return groups


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
    eye = np.eye(n, dtype=complex)
    clusters = []
    for lam, scatter, m_a in eigenvalue_groups(a, tol):
        shifted = a - lam * eye
        if collapsed_at_resolution(np.linalg.norm(shifted, 2), n, lam, scatter, tol):
            # the whole shifted matrix sits at the in-cluster scatter
            # scale, so every direction is kernel at merge resolution
            right = left = Subspace(n, phase_normalize(eye.copy()))
        else:
            # |lam| anchors the rank cutoff: when a is close to lam * I
            # the shifted matrix is pure cancellation noise and its own
            # largest singular value is no longer a trustworthy scale
            right = nullspace(shifted, tol, scale_floor=abs(lam))
            left = nullspace(shifted.conj().T, tol, scale_floor=abs(lam))
        m_g = right.dim
        clusters.append(
            EigenvalueCluster(
                value=lam,
                algebraic_multiplicity=m_a,
                geometric_multiplicity=m_g,
                semi_simple=(m_a == m_g),
                right_kernel=right,
                left_kernel=left,
                scatter=scatter,
            )
        )
    clusters.sort(key=lambda c: (c.value.real, c.value.imag))
    return PointSpectrum(ambient_dim=n, clusters=tuple(clusters))


def adjoint_point_spectrum(a, tol=DEFAULT_TOL):
    """Clustered point spectrum of the conjugate transpose of ``a``."""
    return point_spectrum(as_matrix(a).conj().T, tol)


def eigvec_matrix(spectrum):
    """Right kernel bases stacked as columns, grouped in cluster order.

    Columns are unit norm with the deterministic phase convention.  The
    matrix is square iff the matrix was diagonalizable at the working
    tolerance.
    """
    blocks = [c.right_kernel.basis for c in spectrum.clusters]
    return np.hstack(blocks)
