"""tools/report_parity.py records a checkout's outputs and compares two records field by field."""

import copy
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from biortho import Tolerance, biorthonormalize, check_conditions, read_matrix

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "report_parity.py"
FILES = [ROOT / "corpus" / "jordan31.mtx", ROOT / "corpus" / "gauss5.mtx"]


def _tool():
    spec = importlib.util.spec_from_file_location("report_parity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_dump_matches_itself_and_compare_names_each_changed_field(tmp_path, capsys):
    out = tmp_path / "a.json"
    subprocess.run([sys.executable, str(TOOL), "dump", str(ROOT / "src"), str(out), "--files", *map(str, FILES)],
                   check=True, capture_output=True)
    records = json.loads(out.read_text())
    assert sorted(records) == sorted("corpus/%s@%r" % (f.name, eps) for f in FILES for eps in (1e-8, 1e-2))
    # a refusal keeps its class and cluster; a system its digest and residual
    assert records["corpus/jordan31.mtx@1e-08"]["refusal"] == {"class": "SkewLinkFailureError", "clusters": [0]}
    a = read_matrix(str(FILES[1]))
    gauss = records["corpus/gauss5.mtx@1e-08"]
    assert gauss["system"]["gram_residual"] == biorthonormalize(a).gram_residual
    assert gauss["report"]["residual_identity_angle"] == check_conditions(a, Tolerance()).residual_identity_angle

    tool = _tool()
    assert tool.main(["compare", str(out), str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "identical"

    changed = copy.deepcopy(records)
    changed["corpus/gauss5.mtx@1e-08"]["report"]["residual_identity_angle"] += 1e-16
    changed["corpus/gauss5.mtx@0.01"]["report"]["residual_identity_angle"] += 3e-16
    changed["corpus/gauss5.mtx@0.01"]["system"]["digest"] = "0" * 64
    del changed["corpus/jordan31.mtx@0.01"]
    (tmp_path / "b.json").write_text(json.dumps(changed))
    assert tool.main(["compare", str(out), str(tmp_path / "b.json")]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "only in %s: corpus/jordan31.mtx@0.01" % out in lines
    assert "system.digest: differs in 1 record(s)" in lines
    (angle,) = [line for line in lines if line.startswith("report.residual_identity_angle: differs in 2 record(s)")]
    assert np.isclose(float(angle.rsplit(" ", 1)[1]), 3e-16, rtol=0.01)
