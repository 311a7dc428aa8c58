"""Derived facts under dataclasses.replace, the form the benchmark's checks are tested with.

perfbench/tests builds faulty results with dataclasses.replace on
PointSpectrum.clusters, EigenvalueCluster fields, BiorthonormalSystem.pairs,
BiorthoPair.chi and DiagnosisReport fields, among them
NormalityReport.properties, so those constructors are part of the
benchmark's contract.  A cluster's geometric multiplicity and
semi-simplicity are read off its right kernel, a system's completeness
off its pairs, and is_normal off the normality marks, so a replaced field
carries them along; this test makes a break of that a tier-1 failure.
"""

from dataclasses import replace

import numpy as np
import pytest

from biortho import (
    FAIL,
    IncompleteSystemError,
    PointSpectrum,
    ReportDocument,
    Subspace,
    Tolerance,
    biorthonormalize,
    check_conditions,
    expand,
    matrix_digest,
)

# a 2 x 2 Jordan block at 0 beside the simple eigenvalue 1
JORDAN = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex)


def test_a_wider_right_kernel_carries_the_multiplicities_with_it():
    report = check_conditions(JORDAN)
    clusters = list(report.spectrum.clusters)
    c = clusters[0]
    assert (c.algebraic_multiplicity, c.geometric_multiplicity, c.semi_simple) == (2, 1, False)
    wide = replace(c, right_kernel=Subspace(3, np.eye(3, dtype=complex)[:, :2]))
    assert (wide.geometric_multiplicity, wide.semi_simple) == (2, True)
    clusters[0] = wide
    # replace calls PointSpectrum(n, clusters, ...), as the benchmark's tests do
    spectrum = replace(report.spectrum, clusters=tuple(clusters))
    assert spectrum.clusters[0] is wide
    assert np.array_equal(spectrum._values, [x.value for x in clusters])
    assert np.array_equal(spectrum._algebraic, [x.algebraic_multiplicity for x in clusters])
    assert np.array_equal(spectrum._scatter, [x.scatter for x in clusters])
    assert spectrum._right.widths.tolist() == [x.geometric_multiplicity for x in clusters] == [2, 1]
    assert spectrum._left.widths.tolist() == [x.left_kernel.dim for x in clusters]
    assert np.array_equal(spectrum._right.matrix, np.hstack([x.right_kernel.basis for x in clusters]))
    assert np.array_equal(spectrum._left.matrix, np.hstack([x.left_kernel.basis for x in clusters]))
    assert spectrum._kernels_are_root_spaces.tolist() == [x.kernels_are_root_spaces for x in clusters]
    # the views a spectrum of the same arrays builds are these clusters
    arrays = {name: getattr(spectrum, "_" + name) for name in ("values", "algebraic", "scatter", "right", "left",
                                                               "climbed")}
    assert PointSpectrum._of_arrays(spectrum.ambient_dim, None, **arrays).clusters == tuple(clusters)


def test_a_prefix_of_the_pairs_is_an_incomplete_system():
    a = np.array([[1, 1], [0, 2]], dtype=complex)
    system = biorthonormalize(a)
    assert system.complete and len(system.pairs) == 2
    partial = replace(system, pairs=system.pairs[:1])
    assert not partial.complete
    with pytest.raises(IncompleteSystemError):
        expand(partial, [1.0, 0.0])
    # the swapped system reads its completeness off its own pairs too
    assert system.swapped().complete and not partial.swapped().complete


def test_a_failed_mark_makes_the_report_non_normal():
    a = np.diag([1.0, 2.0, 3.0j])
    report = check_conditions(a)
    assert report.normality.is_normal
    for mark in "abcde":
        # replace calls NormalityReport(commutator_norm, properties), as the benchmark's tests do
        normality = replace(report.normality, properties=dict(report.normality.properties, **{mark: FAIL}))
        assert not normality.is_normal
        document = ReportDocument.from_diagnosis(replace(report, normality=normality), Tolerance(), matrix_digest(a))
        assert document.body["normality"]["is_normal"] is False
        assert '"is_normal": false' in document.to_json()
