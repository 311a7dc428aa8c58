import csv
import io
import json

import numpy as np
import pytest

from biortho import DEFAULT_TOL, FamilySpec, generate, read_matrix, write_matrix
from biortho.cli import _build_parser, _tolerance, main

J2_TEXT = (
    "%%MatrixMarket matrix array complex general\n"
    "2 2\n"
    "0.0 0.0\n"
    "0.0 0.0\n"
    "1.0 0.0\n"
    "0.0 0.0\n"
)


@pytest.fixture()
def gaussian_path(tmp_path):
    p = tmp_path / "gauss.mtx"
    write_matrix(generate(FamilySpec("random_gaussian", 4, {}, seed=11)), p)
    return str(p)


@pytest.fixture()
def nilpotent_path(tmp_path):
    p = tmp_path / "j2.mtx"
    p.write_text(J2_TEXT)
    return str(p)


def test_analyze_text_report(gaussian_path, capsys):
    assert main(["analyze", gaussian_path]) == 0
    out = capsys.readouterr().out
    assert "matrix diagnosis (n = 4)" in out
    assert "C4'" in out


def test_analyze_json_report(gaussian_path, capsys):
    assert main(["analyze", gaussian_path, "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == "1"
    assert data["biorthonormal_basis_exists"] is True


def test_analyze_exit_two_when_conditions_fail(nilpotent_path, capsys):
    assert main(["analyze", nilpotent_path, "--format", "json"]) == 2
    data = json.loads(capsys.readouterr().out)
    assert data["kappa_v"] == "inf"
    statuses = {c["id"]: c["status"] for c in data["conditions"]}
    assert statuses["C2"] == "FAIL"
    assert statuses["C4"] == "FAIL"


def test_analyze_repeated_output_is_byte_identical(gaussian_path, capsys):
    main(["analyze", gaussian_path, "--format", "json"])
    first = capsys.readouterr().out
    main(["analyze", gaussian_path, "--format", "json"])
    assert capsys.readouterr().out == first


def test_analyze_missing_file_exits_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.mtx")]) == 1
    assert "error:" in capsys.readouterr().err


def test_analyze_needs_some_input(capsys):
    assert main(["analyze"]) == 1
    assert "file path or --dir" in capsys.readouterr().err


def test_analyze_out_file_keeps_stdout_quiet(gaussian_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", gaussian_path, "--format", "json", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["schema_version"] == "1"


def test_analyze_timings_included_on_request(gaussian_path, capsys):
    main(["analyze", gaussian_path, "--format", "json", "--timings"])
    data = json.loads(capsys.readouterr().out)
    assert set(data["timings"]) == {"parse", "diagnose"}
    main(["analyze", gaussian_path, "--format", "json"])
    assert "timings" not in json.loads(capsys.readouterr().out)


def test_analyze_dir_batch(tmp_path, gaussian_path, nilpotent_path, capsys):
    out = tmp_path / "reports"
    code = main(
        ["analyze", "--dir", str(tmp_path), "--format", "json",
         "--out", str(out)]
    )
    # the nilpotent file fails conditions, so the batch reports 2
    assert code == 2
    assert sorted(p.name for p in out.iterdir()) == ["gauss.json", "j2.json"]
    data = json.loads((out / "j2.json").read_text())
    assert data["kappa_v"] == "inf"


def test_analyze_dir_stdout_labels_each_file(tmp_path, gaussian_path, capsys):
    assert main(["analyze", "--dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "== %s ==" % gaussian_path in out


def test_analyze_dir_with_corrupt_member_exits_one(tmp_path, gaussian_path, capsys):
    (tmp_path / "bad.mtx").write_text("not a matrix\n")
    assert main(["analyze", "--dir", str(tmp_path)]) == 1
    assert "bad.mtx" in capsys.readouterr().err


def test_analyze_dir_with_non_square_member_reports_it_and_goes_on(tmp_path, capsys):
    # "a_wide.mtx" sorts before "b_gauss.mtx", which must still get its report
    write_matrix(np.ones((2, 3)), str(tmp_path / "a_wide.mtx"))
    write_matrix(generate(FamilySpec("random_gaussian", 4, {}, 3)), str(tmp_path / "b_gauss.mtx"))
    out = tmp_path / "reports"
    code = main(["analyze", "--dir", str(tmp_path), "--format", "json", "--out", str(out)])
    assert code == 1
    assert "a_wide.mtx: error:" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["b_gauss.json"]


def test_analyze_dir_without_matches_errors(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["analyze", "--dir", str(empty)]) == 1


def test_rank_tolerance_from_environment(gaussian_path, capsys, monkeypatch):
    monkeypatch.setenv("BIORTHO_TOL_RANK", "1e-9")
    main(["analyze", gaussian_path, "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    assert data["tolerance"]["rank_eps"] == 1e-9


def test_rank_flag_beats_environment(gaussian_path, capsys, monkeypatch):
    monkeypatch.setenv("BIORTHO_TOL_RANK", "not-a-number")
    assert main(["analyze", gaussian_path, "--tol-rank", "1e-11",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tolerance"]["rank_eps"] == 1e-11
    # without the flag the malformed variable is a real error
    assert main(["analyze", gaussian_path]) == 1


@pytest.mark.parametrize("argv", [["analyze", "m.mtx"], ["study", "ep_family", "--sizes", "2"]],
                         ids=["analyze", "study"])
def test_tolerance_flags_default_to_the_package_tolerance(argv, monkeypatch, capsys):
    monkeypatch.delenv("BIORTHO_TOL_RANK", raising=False)
    args = _build_parser().parse_args(argv)
    assert (args.tol_cluster, args.tol_residual) == (DEFAULT_TOL.cluster_eps, DEFAULT_TOL.residual_eps)
    assert _tolerance(args) == DEFAULT_TOL
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    shown = capsys.readouterr().out
    for text in ("cutoff (default 1e-10)", "radius (default 1e-8)", "threshold (default 1e-8)"):
        assert text in " ".join(shown.split())


def test_malformed_rank_environment_names_the_variable(gaussian_path, capsys, monkeypatch):
    monkeypatch.setenv("BIORTHO_TOL_RANK", "abc")
    assert main(["analyze", gaussian_path]) == 1
    err = capsys.readouterr().err
    assert "BIORTHO_TOL_RANK" in err
    assert "'abc'" in err


def test_gallery_writes_matrix_market(tmp_path):
    out = tmp_path / "m.mtx"
    assert main(["gallery", "jordan", "--size", "3", "--lambda", "1+2i",
                 "--segre", "2,1", "--out", str(out)]) == 0
    m = read_matrix(out)
    expected = generate(
        FamilySpec("jordan", 3, {"eigenvalue": 1 + 2j, "segre": (2, 1)})
    )
    assert m.tobytes() == expected.tobytes()


def test_gallery_stdout_is_parseable(capsys):
    assert main(["gallery", "diag", "--size", "3"]) == 0
    m = read_matrix(io.StringIO(capsys.readouterr().out))
    assert np.allclose(np.diag(m), [0.0, 0.5, 1.0])


def test_gallery_blocks_flag_matches_library(tmp_path):
    out = tmp_path / "b.mtx"
    assert main(["gallery", "block_jordan", "--size", "4",
                 "--blocks", "0.5:1,1;-0.5:1;0+1i:1",
                 "--cond", "100", "--seed", "32", "--out", str(out)]) == 0
    blocks = ((0.5 + 0j, (1, 1)), (-0.5 + 0j, (1,)), (1j, (1,)))
    expected = generate(
        FamilySpec("block_jordan", 4, {"blocks": blocks, "cond": 100.0}, seed=32)
    )
    assert read_matrix(out).tobytes() == expected.tobytes()


def test_gallery_rejects_malformed_blocks(capsys):
    assert main(["gallery", "block_jordan", "--size", "2",
                 "--blocks", "nocolon"]) == 1
    assert "eigenvalue:size" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["gallery", "jordan", "--size", "2", "--lambda", "1+x"], "cannot parse '1+x' as a complex number"),
    (["gallery", "jordan", "--size", "3", "--segre", "3,x"], "cannot parse '3,x' as a comma-separated integer list"),
    (["study", "ep_family", "--sizes", "2", "--t", "0.1,x"], "cannot parse '0.1,x' as a comma-separated number list"),
    (["gallery", "block_jordan", "--size", "2", "--blocks", ";"], "no blocks found in ';'"),
])
def test_malformed_family_flags_exit_one_naming_the_text(argv, message, capsys):
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_gallery_blocks_skip_an_empty_chunk(capsys):
    outputs = []
    for blocks in ("0:2,1;", "0:2,1"):
        assert main(["gallery", "block_jordan", "--size", "3", "--blocks", blocks]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_gallery_unknown_family_exits_one(capsys):
    with pytest.raises(SystemExit) as info:
        main(["gallery", "toeplitz", "--size", "2"])
    assert info.value.code == 1


def test_study_csv_layout_and_probe_oracle(tmp_path):
    out = tmp_path / "study.csv"
    assert main(["study", "shift_trunc", "--sizes", "4,8",
                 "--grid", "0.5+0i", "--out", str(out)]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [r["size"] for r in rows] == ["4", "8"]
    for r in rows:
        n = int(r["size"])
        a = generate(FamilySpec("shift_trunc", n, {}))
        smin = np.linalg.svd(a - 0.5 * np.eye(n), compute_uv=False)[-1]
        assert float(r["sigma_min"]) == pytest.approx(smin, rel=1e-12)
        assert r["family"] == "shift_trunc"
        assert r["C4"] == "FAIL"
        assert r["kappa_v"] == "inf"


def test_study_header_columns(capsys):
    assert main(["study", "diag", "--sizes", "2"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.split(",") == [
        "family", "size", "t", "probe_re", "probe_im", "sigma_min",
        "kappa_v", "min_self_orthogonality", "C1", "C2", "C3", "C4",
        "C2'", "C3'", "C4'",
    ]


def test_study_t_sweep_tracks_degeneracy(capsys):
    assert main(["study", "ep_family", "--sizes", "2", "--t", "1,0.5"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["t"] for r in rows] == ["1.0", "0.5"]
    # the eigenvector basis degrades as the exceptional point approaches
    assert float(rows[1]["kappa_v"]) > float(rows[0]["kappa_v"])
    assert float(rows[1]["min_self_orthogonality"]) < float(
        rows[0]["min_self_orthogonality"]
    )


def test_study_t_sweep_restricted_to_ep_family(capsys):
    assert main(["study", "diag", "--sizes", "2", "--t", "0.5"]) == 1
    assert "ep_family" in capsys.readouterr().err


def test_study_rejects_unsorted_sizes(capsys):
    assert main(["study", "diag", "--sizes", "4,2"]) == 1


def test_analyze_of_gallery_file_matches_in_memory_diagnosis(tmp_path, capsys):
    from biortho import DEFAULT_TOL, ReportDocument, check_conditions, matrix_digest

    spec = FamilySpec("random_gaussian", 5, {}, seed=11)
    path = tmp_path / "g.mtx"
    assert main(["gallery", "random_gaussian", "--size", "5", "--seed", "11",
                 "--out", str(path)]) == 0
    assert main(["analyze", str(path), "--format", "json"]) == 0
    via_cli = capsys.readouterr().out
    a = generate(spec)
    direct = ReportDocument.from_diagnosis(
        check_conditions(a), DEFAULT_TOL, matrix_digest(a)
    )
    assert via_cli == direct.to_json()


def test_analyze_non_ascii_file_exits_one_with_its_position(tmp_path, capsys):
    p = tmp_path / "accent.mtx"
    p.write_bytes(J2_TEXT.replace("2 2\n", "% é\n2 2\n").encode("utf-8"))
    assert main(["analyze", str(p)]) == 1
    err = capsys.readouterr().err
    assert "non-ASCII character" in err and "(line 2, column 3)" in err


def test_analyze_non_finite_entry_exits_one_with_its_position(tmp_path, capsys):
    p = tmp_path / "nan.mtx"
    p.write_text(J2_TEXT.replace("1.0 0.0", "1.0 nan"))
    assert main(["analyze", str(p)]) == 1
    err = capsys.readouterr().err
    assert "must be finite, found 'nan'" in err and "(line 5, column 5)" in err
