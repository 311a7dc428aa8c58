"""Each correctness check accepts a right result and rejects a deliberately wrong one.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import checks
import hostspeed
import run
import tracing
import workloads
from biortho import (
    FAIL,
    PASS,
    FamilySpec,
    NotDiagonalizableError,
    ReportDocument,
    SkewLinkFailureError,
    Tolerance,
    biorthonormalize,
    check_conditions,
    cli,
    expand,
    generate,
    matrix_digest,
    read_matrix,
    root_space,
    write_matrix,
)

TOL = Tolerance()
WIDE = Tolerance(cluster_eps=workloads.WIDE_CLUSTER_EPS)


def _with_cluster(report, index, **changes):
    clusters = list(report.spectrum.clusters)
    clusters[index] = replace(clusters[index], **changes)
    return replace(report, spectrum=replace(report.spectrum, clusters=tuple(clusters)))


def _with_status(report, cid, status):
    conds = tuple(replace(v, status=status) if v.id == cid else v for v in report.conditions)
    return replace(report, conditions=conds)


@pytest.fixture(scope="module")
def gaussian():
    a = generate(FamilySpec("random_gaussian", 10, {}, 7))
    return a, check_conditions(a, TOL), scipy.linalg.eigvals(a)


@pytest.fixture(scope="module")
def normal():
    a = generate(FamilySpec("random_normal", 10, {}, 8))
    return a, check_conditions(a, TOL), scipy.linalg.eigvals(a)


def test_diagonalizable_accepts_right_results(gaussian, normal):
    for (a, report, eigs), is_normal in ((gaussian, False), (normal, True)):
        assert checks.check_diagonalizable(a, report, TOL, eigs, is_normal) == []


def test_diagonalizable_rejects_perturbed_eigenvalue(gaussian):
    a, report, eigs = gaussian
    c = report.spectrum.clusters[3]
    bad = _with_cluster(report, 3, value=c.value + 1e-6)
    assert any("scipy" in p or "trace" in p for p in checks.check_diagonalizable(a, bad, TOL, eigs, False))


def test_diagonalizable_rejects_lost_cluster(gaussian):
    a, report, eigs = gaussian
    bad = replace(report, spectrum=replace(report.spectrum, clusters=report.spectrum.clusters[1:]))
    assert any("sum to" in p for p in checks.check_diagonalizable(a, bad, TOL, eigs, False))


def test_diagonalizable_rejects_wrong_kernel(gaussian):
    a, report, eigs = gaussian
    other = report.spectrum.clusters[1].right_kernel
    bad = _with_cluster(report, 0, right_kernel=other)
    assert any("right kernel residual" in p for p in checks.check_diagonalizable(a, bad, TOL, eigs, False))


def test_diagonalizable_rejects_failed_condition(gaussian):
    a, report, eigs = gaussian
    bad = _with_status(report, "C3", FAIL)
    assert any("C3 is FAIL" in p for p in checks.check_diagonalizable(a, bad, TOL, eigs, False))


def test_normal_rejects_wrong_kappa_and_marks(normal):
    a, report, eigs = normal
    problems = checks.check_diagonalizable(a, replace(report, kappa_v=1.5), TOL, eigs, True)
    assert any("kappa_v" in p for p in problems)
    marks = dict(report.normality.properties, a=FAIL)
    bad = replace(report, normality=replace(report.normality, properties=marks))
    assert any("marks" in p for p in checks.check_diagonalizable(a, bad, TOL, eigs, True))


def test_schur_checks_reject_the_wrong_side(gaussian, normal):
    a, report, eigs = gaussian
    assert any("Schur equality" in p for p in checks.check_diagonalizable(a, report, TOL, eigs, True))
    a, report, eigs = normal
    assert any("Schur inequality" in p for p in checks.check_diagonalizable(a, report, TOL, eigs, False))


@pytest.fixture(scope="module")
def constructed(gaussian):
    a, report, _ = gaussian
    system = biorthonormalize(a, tol=TOL)
    f = np.arange(a.shape[0]) + 1j
    values = np.array([report.spectrum.clusters[p.cluster_index].value for p in system.pairs])
    return a, report, system, f, expand(system, f), values


def test_construction_accepts_right_result(constructed):
    a, report, system, f, coeffs, values = constructed
    assert checks.check_construction(a, system, values, report.kappa_v, f, coeffs) == []


def test_construction_rejects_wrong_chi(constructed):
    a, report, system, f, coeffs, values = constructed
    pairs = list(system.pairs)
    pairs[2] = replace(pairs[2], chi=pairs[2].chi * (1 + 1e-6))
    bad = replace(system, pairs=tuple(pairs))
    assert any("W*V" in p for p in checks.check_construction(a, bad, values, report.kappa_v, f, coeffs))


def test_construction_rejects_wrong_eigenvalue_and_coefficients(constructed):
    a, report, system, f, coeffs, values = constructed
    wrong = values.copy()
    wrong[0] += 1e-6
    assert any("lambda" in p for p in checks.check_construction(a, system, wrong, report.kappa_v, f, coeffs))
    shifted = coeffs.copy()
    shifted[1] += 1e-6
    assert any("expand" in p for p in checks.check_construction(a, system, values, report.kappa_v, f, shifted))


@pytest.fixture(scope="module")
def defective():
    blocks = workloads.mixed_blocks(8)
    spec = FamilySpec("block_jordan", 18, {"blocks": blocks, "cond": 30.0}, 5)
    a = generate(spec)
    report = check_conditions(a, WIDE)
    segres = {i: root_space(a, c, WIDE).segre for i, c in enumerate(report.spectrum.clusters)}
    return spec, a, report, segres


def test_defective_accepts_right_result(defective):
    spec, a, report, segres = defective
    assert checks.check_defective(report, WIDE, checks.jordan_blocks(spec), segres) == []


def test_defective_rejects_swapped_segre(defective):
    spec, a, report, segres = defective
    swapped = dict(segres)
    swapped[0], swapped[2] = segres[2], segres[0]  # (2, 1) and (3,)
    problems = checks.check_defective(report, WIDE, checks.jordan_blocks(spec), swapped)
    assert any("Segre" in p for p in problems)


def test_defective_rejects_wrong_multiplicity_and_verdicts(defective):
    spec, a, report, segres = defective
    blocks = checks.jordan_blocks(spec)
    bad = _with_status(report, "C4", PASS)
    assert any("C4" in p for p in checks.check_defective(bad, WIDE, blocks, segres))
    bad = replace(report, biorthonormal_basis_exists=True)
    assert any("basis_exists" in p for p in checks.check_defective(bad, WIDE, blocks, segres))
    moved = {lam + 0.5: s for lam, s in blocks.items()}
    assert checks.check_defective(report, WIDE, moved, segres)


def test_refusal_check(defective):
    spec, a, report, segres = defective
    with pytest.raises((NotDiagonalizableError, SkewLinkFailureError)) as info:
        biorthonormalize(a, tol=WIDE)
    assert checks.check_refused(info.value) == []
    assert checks.check_refused(object()) != []


def test_file_check_rejects_flipped_bit_and_rewritten_bytes(tmp_path):
    spec = FamilySpec("random_gaussian", 5, {}, 3)
    path = tmp_path / "m.mtx"
    assert cli.main(workloads.gallery_argv(spec, path)) == 0
    m = read_matrix(path)
    text = path.read_text()
    buf = io.StringIO()
    write_matrix(m, buf)
    assert checks.check_file(m, generate(spec), text, buf.getvalue()) == []
    flipped = m.copy()
    flipped.reshape(-1).view(np.uint8)[5] ^= 1
    assert checks.check_file(flipped, generate(spec), text, buf.getvalue())
    assert checks.check_file(m, generate(spec), text, buf.getvalue().replace("e", "E", 1))


def test_report_check_rejects_flipped_digest_and_wrong_verdict(gaussian):
    a, report, _ = gaussian
    text = ReportDocument.from_diagnosis(report, TOL, matrix_digest(a)).to_json()
    good = checks.digest(a)
    assert good == matrix_digest(a)
    assert checks.check_report(text, good, True) == []
    flipped = good[:-1] + ("0" if good[-1] != "0" else "1")
    assert any("input_digest" in p for p in checks.check_report(text, flipped, True))
    assert any("basis" in p for p in checks.check_report(text, good, False))
    assert any("parse" in p for p in checks.check_report(text[:-3], good, True))


def test_exit_code_rule():
    assert checks.expected_exit_code([True, True]) == 0
    assert checks.expected_exit_code([True, False]) == 2


def _study_rows(tmp_path, study):
    out = tmp_path / (study.name + ".csv")
    assert cli.main(workloads.study_argv(study, out, workloads.DEFAULT_CLUSTER_EPS)) == 0
    import csv

    with open(out, newline="") as handle:
        return list(csv.DictReader(handle))


def test_ep_rows_reject_wrong_value(tmp_path):
    study = workloads.Study("ep", "ep_family", (2,), (), (0.5, 0.01))
    rows = _study_rows(tmp_path, study)
    assert checks.check_study_rows(rows, study, {}) == []
    rows[1]["kappa_v"] = repr(float(rows[1]["kappa_v"]) * (1 + 1e-8))
    assert any("kappa_v" in p for p in checks.check_study_rows(rows, study, {}))
    rows = _study_rows(tmp_path, study)
    rows[0]["min_self_orthogonality"] = "0.8"
    assert any("min_self" in p for p in checks.check_study_rows(rows, study, {}))


def test_shift_rows_reject_wrong_sigma_and_verdict(tmp_path):
    study = workloads.Study("shift", "shift_trunc", (4, 8), (0.5 + 0j,))
    mats = {n: generate(FamilySpec("shift_trunc", n)) for n in study.sizes}
    rows = _study_rows(tmp_path, study)
    assert checks.check_study_rows(rows, study, mats) == []
    rows[0]["sigma_min"] = repr(float(rows[0]["sigma_min"]) * 1.001)
    assert any("sigma_min" in p for p in checks.check_study_rows(rows, study, mats))
    rows = _study_rows(tmp_path, study)
    rows[1]["C4"] = PASS
    assert any("C4" in p for p in checks.check_study_rows(rows, study, mats))


def test_gallery_argv_reproduces_generate(tmp_path):
    specs = [
        FamilySpec("jordan", 6, {"eigenvalue": 1 - 2j, "segre": (3, 3)}),
        FamilySpec("block_jordan", 9, {"blocks": workloads.mixed_blocks(4), "cond": 17.5}, 4),
        FamilySpec("diag", 5, {"start": -1.0, "stop": 1.0}),
        FamilySpec("ep_family", 2, {"t": 0.25}),
    ]
    for k, spec in enumerate(specs):
        path = tmp_path / ("%d.mtx" % k)
        assert cli.main(workloads.gallery_argv(spec, path)) == 0
        assert read_matrix(path).tobytes() == generate(spec).tobytes()


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [("outer", 0.0, 10.0, -1, 1, 0), ("a", 1.0, 4.0, 0, 1, 0), ("b", 3.0, 5.0, 0, 2, 0)]
    assert tracer.self_times() == [6.0, 3.0, 2.0]


def test_host_factor_averages_the_calibrations_around_an_interval(monkeypatch):
    monkeypatch.setattr(hostspeed, "WINDOW_S", 4.0)
    host = hostspeed.HostSpeed()
    # 20 calibrations starting at t = 0, 1, ..., 19; the kernel took twice
    # as long from t = 10 on
    host.starts = [float(t) for t in range(20)]
    host.seconds = [0.01 if t < 10 else 0.02 for t in range(20)]
    host.ends = [t + s for t, s in zip(host.starts, host.seconds)]
    nominal = hostspeed.NOMINAL_S
    assert host.factor(0.5, 0.6) == pytest.approx(nominal / 0.01)
    assert host.factor(18.5, 18.6) == pytest.approx(nominal / 0.02)
    # across the change: calibrations 5..14, five at each level
    assert host.factor(9.5, 9.6) == pytest.approx(nominal / 0.015)
    with pytest.raises(ValueError):
        hostspeed.HostSpeed().factor(0.0, 1.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    fake = [{"kind": k, "seconds": 1.0, "scaled": 1.0, "round": 1, "files": 1, "item": "x"} for k in
            ("diagnose", "construct", "batch", "read", "write", "study")]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.end_to_end(fake, 1.0, {"x": 10}, 1))
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.LAYER_METRICS) | {"trace.overhead_pct"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
