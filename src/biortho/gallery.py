"""Reproducible matrix families for exercising the diagnostics.

Families and their parameters:

    jordan                eigenvalue (complex), segre (block sizes)
    diag                  start, stop: real diagonal linspace(start, stop, n)
    random_gaussian       iid standard complex Gaussian entries
    random_normal         unitary conjugation of a random diagonal
    pt_dimer              a, b: [[ia, b], [b, -ia]], size 2
    ep_family             t, b: pt_dimer with a = b (1 - t), size 2
    shift_trunc           ones on the first superdiagonal
    weighted_shift_trunc  ratio: superdiagonal entries ratio**j
    block_jordan          blocks ((eigenvalue, segre), ...), cond:
                          a Jordan form conjugated by a random similarity
                          of condition number cond

Randomness is drawn from numpy's default generator seeded with the
spec's seed, so repeated calls with equal specs are bit identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .conditions import check_conditions
from .errors import BiorthoError, StudyError
from .linalg import DEFAULT_TOL, as_matrix
from .spectral import _lapack

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "generate",
    "SizeMetrics",
    "TruncationStudy",
    "truncation_study",
]

FAMILIES = (
    "jordan",
    "diag",
    "random_gaussian",
    "random_normal",
    "pt_dimer",
    "ep_family",
    "shift_trunc",
    "weighted_shift_trunc",
    "block_jordan",
)


@dataclass(frozen=True)
class FamilySpec:
    """A fully pinned-down member of one family."""

    name: str
    size: int
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.name not in FAMILIES:
            raise ValueError(
                "unknown family %r; choose one of %s" % (self.name, ", ".join(FAMILIES))
            )
        if self.size < 1:
            raise ValueError("size must be at least 1")


def _haar_unitary(n, rng):
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _jordan_matrix(eigenvalue, segre, n):
    segre = tuple(int(s) for s in segre)
    if any(s < 1 for s in segre):
        raise ValueError("segre entries must be positive")
    if sum(segre) != n:
        raise ValueError("segre %r does not sum to the size %d" % (list(segre), n))
    m = np.zeros((n, n), dtype=complex)
    pos = 0
    for s in segre:
        for i in range(pos, pos + s):
            m[i, i] = eigenvalue
            if i < pos + s - 1:
                m[i, i + 1] = 1.0
        pos += s
    return m


def generate(spec):
    """Build the matrix described by a FamilySpec."""
    n = spec.size
    p = spec.params
    rng = np.random.default_rng(spec.seed)
    if spec.name == "jordan":
        lam = complex(p.get("eigenvalue", 0.0))
        segre = p.get("segre", (n,))
        return _jordan_matrix(lam, segre, n)
    if spec.name == "diag":
        start = float(p.get("start", 0.0))
        stop = float(p.get("stop", 1.0))
        return np.diag(np.linspace(start, stop, n)).astype(complex)
    if spec.name == "random_gaussian":
        return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    if spec.name == "random_normal":
        lam = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2.0)
        u = _haar_unitary(n, rng)
        return (u * lam) @ u.conj().T
    if spec.name == "pt_dimer" or spec.name == "ep_family":
        if n != 2:
            raise ValueError("%s exists only at size 2" % spec.name)
        b = float(p.get("b", 1.0))
        if spec.name == "pt_dimer":
            a = float(p.get("a", 0.5))
        else:
            t = float(p.get("t", 1.0))
            if t < 0.0:
                raise ValueError("t must be nonnegative")
            a = b * (1.0 - t)
        return np.array([[1j * a, b], [b, -1j * a]], dtype=complex)
    if spec.name == "shift_trunc":
        return np.eye(n, k=1, dtype=complex)
    if spec.name == "weighted_shift_trunc":
        ratio = float(p.get("ratio", 0.9))
        m = np.zeros((n, n), dtype=complex)
        for j in range(1, n):
            m[j - 1, j] = ratio**j
        return m
    if spec.name == "block_jordan":
        blocks = p.get("blocks", (((0.0), (n,)),))
        cond = float(p.get("cond", 10.0))
        if cond < 1.0:
            raise ValueError("cond must be at least 1")
        covered = sum(int(sum(segre)) for _, segre in blocks)
        if covered != n:
            raise ValueError("blocks cover %d of %d dimensions" % (covered, n))
        j = np.zeros((n, n), dtype=complex)
        pos = 0
        for lam, segre in blocks:
            width = int(sum(segre))
            j[pos : pos + width, pos : pos + width] = _jordan_matrix(
                complex(lam), segre, width
            )
            pos += width
        u = _haar_unitary(n, rng)
        v = _haar_unitary(n, rng)
        s = np.logspace(0.0, np.log10(cond), n) if n > 1 else np.ones(1)
        sim = (u * s) @ v.conj().T
        return sim @ j @ np.linalg.inv(sim)
    raise ValueError("unknown family %r" % spec.name)


@dataclass(frozen=True)
class SizeMetrics:
    """Study observables collected at one truncation size."""

    size: int
    kappa_v: float
    sigma_min: tuple
    min_self_orthogonality: float
    verdicts: dict


@dataclass(frozen=True)
class TruncationStudy:
    """How the diagnostics evolve as the truncation size grows."""

    template: FamilySpec
    sizes: tuple
    probe_grid: tuple
    metrics: tuple


def truncation_study(template, sizes, probe_grid=(), tol=DEFAULT_TOL):
    """Diagnose one family at a strictly increasing sequence of sizes.

    probe_grid points z are summarized by sigma_min(A - z I), a proxy
    for inverse resolvent growth.  Failures of generation or diagnosis
    are re-raised as StudyError carrying the offending size.
    """
    sizes = tuple(int(s) for s in sizes)
    if any(b <= a for a, b in zip(sizes, sizes[1:])) or not sizes:
        raise ValueError("sizes must be nonempty and strictly increasing")
    probe_grid = tuple(complex(z) for z in probe_grid)
    metrics = []
    for size in sizes:
        try:
            a = as_matrix(generate(replace(template, size=size)))
            report = check_conditions(a, tol)
            eye = np.eye(size, dtype=complex)
            # real arithmetic for a real A at a real z (spectral._lapack)
            sig_min = tuple(
                float(_lapack(np.linalg.svd, a - z * eye, z, compute_uv=False)[-1])
                for z in probe_grid
            )
            min_self = min([1.0] + [v.self_orthogonality for v in report.skew_links])
            verdicts = {v.id: v.status for v in report.conditions}
        except (BiorthoError, ValueError) as exc:
            raise StudyError(size, str(exc)) from exc
        metrics.append(
            SizeMetrics(
                size=size,
                kappa_v=report.kappa_v,
                sigma_min=sig_min,
                min_self_orthogonality=min_self,
                verdicts=verdicts,
            )
        )
    return TruncationStudy(
        template=template,
        sizes=sizes,
        probe_grid=probe_grid,
        metrics=tuple(metrics),
    )
