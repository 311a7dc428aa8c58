"""Clusters held as arrays: the stacked kernel bases against the per-cluster objects read from them.

point_spectrum keeps one right and one left kernel basis matrix, each
cluster a column range, and check_conditions and biorthonormalize read
those.  An EigenvalueCluster, with its kernels as views of the stacks, is
built only when PointSpectrum.clusters is read.  The references here are
the per-cluster routes: skew_link_check on each cluster's own kernels,
root_space on each cluster, and one solve per cluster's cross-Gram.
biorthonormalize takes its own spectrum with the construction switch, so
its left blocks come from V^-* and a cluster that can never pair stops its
climb at level 1.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from biortho import (
    FamilySpec,
    NotDiagonalizableError,
    PointSpectrum,
    SkewLinkFailureError,
    Tolerance,
    biorthonormalize,
    check_conditions,
    generate,
    point_spectrum,
    read_matrix,
    root_space,
    skew_link_check,
)
from biortho import linalg, rootspace, spectral
from biortho.spectral import Climb
from conftest import Calls, count_norm2
from test_frame import CASES as FRAMED

CORPUS = sorted((Path(__file__).resolve().parent.parent / "corpus").glob("*.mtx"))
WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
DEFAULT = Tolerance()
WIDE = Tolerance(cluster_eps=1e-2)


def _mixed(count, pattern, cond, seed):
    blocks = tuple((float(k), pattern[k % len(pattern)]) for k in range(count))
    return FamilySpec("block_jordan", sum(sum(s) for _, s in blocks), {"blocks": blocks, "cond": cond}, seed)


# certified, climbed and framed clusters: defective (2, 1) and (3) blocks
# among simple and semi-simple ones, a semi-simple mix, and 2 x 2 Jordan
# blocks among simple eigenvalues
MIXES = [
    pytest.param(_mixed(12, ((2, 1), (1,), (3,), (1, 1)), 30.0, 3), WIDE, id="defective-mix"),
    pytest.param(_mixed(10, ((1, 1), (1,), (1, 1, 1)), 10.0, 4), WIDE, id="semi-simple-mix"),
    pytest.param(FamilySpec("block_jordan", 12, {"blocks": tuple(
        (complex(k % 4, k // 4), (2,) if k < 2 else (1,)) for k in range(10)), "cond": 10.0}, 5),
        Tolerance(cluster_eps=1e-3), id="two-points"),
]
INPUTS = [pytest.param(p, tol, id="%s-%s" % (p.stem, name)) for p in CORPUS
          for name, tol in (("default", DEFAULT), ("wide", WIDE))] + MIXES


def _matrix(source):
    if isinstance(source, np.ndarray):
        return source
    return read_matrix(source) if isinstance(source, Path) else generate(source)


@pytest.mark.parametrize("source, tol", INPUTS)
def test_clusters_read_after_a_diagnosis_are_what_the_arrays_pair(source, tol):
    a = _matrix(source)
    report = check_conditions(a, tol)
    ps = report.spectrum
    clusters = ps.clusters
    for i, c in enumerate(clusters):
        # a kernel is a column range of the stack, bit for bit
        assert np.array_equal(c.right_kernel.basis, ps._right[i])
        assert np.array_equal(c.left_kernel.basis, ps._left[i])
        # the skew link the arrays decided is the one the cluster's own kernels give
        assert skew_link_check(c.right_kernel, c.left_kernel, tol, i) == report.skew_links[i]
        rs = root_space(a, c, tol, ps)
        if c.kernels_are_root_spaces:
            assert rs.space is c.right_kernel and rs.adjoint_space is c.left_kernel
        else:
            assert rs.staircase == c.climb.levels
    # a spectrum built from the clusters read holds the same arrays
    rebuilt = PointSpectrum(ps.ambient_dim, clusters, ps.adjoint_eigenvalues)
    for name in ("_values", "_algebraic", "_scatter"):
        assert np.array_equal(getattr(rebuilt, name), getattr(ps, name))
    for side in ("_right", "_left"):
        assert np.array_equal(getattr(rebuilt, side).matrix, getattr(ps, side).matrix)
        assert np.array_equal(getattr(rebuilt, side).widths, getattr(ps, side).widths)
    try:
        system = biorthonormalize(a, ps, tol)
    except SkewLinkFailureError as exc:
        first = next(v for v in report.skew_links if not v.linked)
        assert (exc.cluster_index, exc.self_orthogonality) == (first.cluster_index, first.self_orthogonality)
        return
    except NotDiagonalizableError as exc:
        assert list(exc.cluster_indices) == [i for i, c in enumerate(clusters) if not c.semi_simple]
        return
    assert report.biorthonormal_basis_exists
    # every pair is a column of its cluster's right kernel, and its chi what
    # one solve of that cluster's own cross-Gram gives
    for i, c in enumerate(clusters):
        pairs = [p for p in system.pairs if p.cluster_index == i]
        left, right = c.left_kernel.basis, c.right_kernel.basis
        gram_h = (left.conj().T @ right).conj().T
        chi = left @ np.linalg.solve(gram_h, np.eye(len(pairs)))
        assert np.array_equal(np.column_stack([p.psi for p in pairs]), right)
        assert np.array_equal(np.column_stack([p.chi for p in pairs]), chi)
    same = biorthonormalize(a, rebuilt, tol)
    assert same.gram_residual == system.gram_residual


def _workload_items(name):
    # the benchmark's workload module, read from its file as the benchmark runs it
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = workloads
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return [pytest.param(item.spec, Tolerance(cluster_eps=item.cluster_eps), id="%s-%s" % (name, item.name))
            for item in workloads.build(name, 1).items if item.diagnose]


def _counted(monkeypatch):
    """Subspace constructions, checked (__post_init__) or over a checked stack (_checked), EigenvalueCluster
    and RootSpace constructions, and the _Blocks each replaced call with blocks to place was made on."""
    counts = {"subspace": 0, "cluster": 0, "root_space": 0, "replaced": []}
    post_init, checked = linalg.Subspace.__post_init__, getattr(linalg.Subspace, "_checked", None)
    cluster_post_init = spectral.EigenvalueCluster.__post_init__
    root_init, replaced = rootspace.RootSpace.__init__, linalg._Blocks.replaced

    def counted_post_init(self):
        counts["subspace"] += 1
        post_init(self)

    def counted_checked(ambient_dim, basis):
        counts["subspace"] += 1
        return checked(ambient_dim, basis)

    def counted_cluster(self):
        counts["cluster"] += 1
        cluster_post_init(self)

    def counted_root_space(self, *args, **kwargs):
        counts["root_space"] += 1
        root_init(self, *args, **kwargs)

    def counted_replaced(self, blocks):
        if blocks:
            counts["replaced"].append(self)
        return replaced(self, blocks)

    monkeypatch.setattr(linalg.Subspace, "__post_init__", counted_post_init)
    monkeypatch.setattr(linalg.Subspace, "_checked", counted_checked, raising=False)
    monkeypatch.setattr(spectral.EigenvalueCluster, "__post_init__", counted_cluster)
    monkeypatch.setattr(rootspace.RootSpace, "__init__", counted_root_space)
    monkeypatch.setattr(linalg._Blocks, "replaced", counted_replaced)
    return counts


def test_a_diagnosis_builds_no_per_cluster_object_on_simple_clusters(monkeypatch):
    # all-simple complex Gaussians: as many Subspaces at n = 48 as at n = 16,
    # no RootSpace, and the same factorizations as before
    counts = {}
    for n in (16, 48):
        a = generate(FamilySpec("random_gaussian", n, {}, 2))
        with monkeypatch.context() as patched:
            made = _counted(patched)
            calls = Calls(patched, names=("eig", "svd", "solve", "qr", "eigvals"))
            norms = count_norm2(patched)
            report = check_conditions(a)
        counts[n] = made
        assert made["cluster"] == made["root_space"] == 0
        assert len(report.spectrum.clusters) == n
        # one eig and one eigvals of A^*, the left blocks coming from V's dual
        # basis; the spans of V and W, and one batched SVD each for the kernel
        # pairing and the residual identity; no 2-norm of A, since normality
        # is decided on Frobenius norms; V's refinement, the dual basis V^-*
        # and the residual identity's (R^*)^-1
        assert calls.shapes["eig"] == [(n, n)] and calls.shapes["eigvals"] == [(n, n)]
        assert sorted(calls.shapes["svd"]) == sorted([(n, n)] * 2 + [(2 * n, 1, 1)] * 2) and norms == []
        assert calls.shapes["solve"] == [(n, n)] * 3 and calls.shapes["qr"] == []
    assert counts[48]["subspace"] <= counts[16]["subspace"]


@pytest.mark.parametrize("source, tol", INPUTS + _workload_items("defective"))
def test_a_diagnosis_builds_no_cluster_view_or_root_space_and_stacks_each_root_basis_once(source, tol,
                                                                                          monkeypatch):
    # the root bases are the spectrum's (PointSpectrum._roots), stacked once
    # per side where some cluster's kernels are not its root spaces and else
    # never, and PointSpectrum.clusters is never read
    with monkeypatch.context() as patched:
        made = _counted(patched)
        report = check_conditions(_matrix(source), tol)
    assert made["cluster"] == made["root_space"] == 0
    ps = report.spectrum
    assert "clusters" not in vars(ps)
    climbing = int((~ps._kernels_are_root_spaces).sum())
    for side in (ps._right, ps._left):
        assert sum(receiver is side for receiver in made["replaced"]) == (climbing > 0)
    if source is MIXES[0].values[0]:
        # clusters that climb beside ones whose kernels are their root spaces
        assert 0 < climbing < len(ps._algebraic)
    if climbing and len(ps._algebraic) == 1:
        # a lone cluster's stacked root bases are its climb's own, not copies
        assert ps._roots[0].matrix is ps._climbed[0].space.basis


def test_reading_a_cluster_builds_its_kernels_as_views():
    a = generate(FamilySpec("random_gaussian", 12, {}, 3))
    ps = point_spectrum(a)
    assert "clusters" not in vars(ps)
    clusters = ps.clusters
    assert ps.clusters is clusters
    for i, c in enumerate(clusters):
        assert np.shares_memory(c.right_kernel.basis, ps._right.matrix)
        assert np.shares_memory(c.left_kernel.basis, ps._left.matrix)
        assert c.value == ps.values()[i] and c.algebraic_multiplicity == 1 == c.geometric_multiplicity


@pytest.mark.parametrize("source, tol", INPUTS + FRAMED)
def test_every_climb_is_one_record_and_every_kernel_a_view_of_the_stacks(source, tol):
    # a climbed cluster keeps its Climb alone, Ran-perp included, and its
    # kernels are column ranges of the stacks like a certified cluster's
    ps = point_spectrum(_matrix(source), tol)
    for climb in ps._climbed.values():
        assert isinstance(climb, Climb) and isinstance(climb.range_perp, linalg.Subspace)
    for i, c in enumerate(ps.clusters):
        assert c.climb is ps._climbed.get(i)
        assert np.shares_memory(c.right_kernel.basis, ps._right.matrix)
        assert np.shares_memory(c.left_kernel.basis, ps._left.matrix)


def test_a_broken_certified_basis_is_refused_by_the_stacked_check():
    ps = point_spectrum(generate(FamilySpec("random_gaussian", 6, {}, 1)))
    every = np.ones(6, dtype=bool)
    linalg._Blocks(ps._right.matrix, ps._right.widths).check(every)
    bad = linalg._Blocks(ps._right.matrix * 2.0, ps._right.widths)
    with pytest.raises(ValueError, match="not orthonormal"):
        bad.check(every)
    nan = ps._right.matrix.copy()
    nan[0, 3] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        linalg._Blocks(nan, ps._right.widths).check(every)
    # a block the mask leaves out, as a cluster that failed the certificate, is not checked
    linalg._Blocks(nan, ps._right.widths).check(np.arange(6) != 3)


def test_a_refusal_of_deep_blocks_takes_only_level_one_and_the_left_split(monkeypatch):
    a = generate(FamilySpec("jordan", 128, {"eigenvalue": 0.0, "segre": (64, 32, 16, 8, 4, 2, 1, 1)}))
    calls = Calls(monkeypatch, names=("svd",))
    with pytest.raises(SkewLinkFailureError) as err:
        biorthonormalize(a)
    assert err.value.cluster_index == 0
    # level 1 and the left split, and no staircase level after them; the
    # pairing's batched SVD is the only other one
    assert [shape for shape in calls.shapes["svd"] if len(shape) == 2] == [(128, 128)] * 2
    monkeypatch.undo()
    # the diagnosis still climbs the whole staircase
    (c,) = check_conditions(a).spectrum.clusters
    assert c.climb.levels[0] == 8 and c.climb.levels[-1] == 128 and len(c.climb.levels) == 64


@pytest.mark.parametrize("source, tol", INPUTS)
def test_the_construction_switch_keeps_every_outcome(source, tol):
    # the construction's own spectrum takes its left blocks from V^-*, the
    # diagnosis's from eig(A^*).  Success: the same psi bit for bit, chi
    # within rounding and both systems biorthonormal; refusal: the same
    # error and cluster
    a = _matrix(source)
    full = point_spectrum(a, tol)
    outcomes = []
    for spectrum in (full, None):
        try:
            system = biorthonormalize(a, spectrum, tol)
            outcomes.append(("ok", system.gram_residual, system.psi_matrix(), system.chi_matrix()))
        except SkewLinkFailureError as exc:
            outcomes.append(("skew", exc.cluster_index))
        except NotDiagonalizableError as exc:
            outcomes.append(("defective", exc.cluster_indices))
    (kind, *first), (other, *second) = outcomes
    assert kind == other
    if kind != "ok":
        assert first == second
        return
    (residual, psi, chi), (dual_residual, dual_psi, dual_chi) = first, second
    assert np.array_equal(psi, dual_psi)
    assert np.all(np.linalg.norm(chi - dual_chi, axis=0) <= 1e-10 * np.linalg.norm(chi, axis=0))
    assert residual <= 1e-10 and dual_residual <= 1e-10
