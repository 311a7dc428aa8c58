"""Golden verdicts: every corpus file at two grouping radii, against recorded figures.

tests/golden_verdicts.json holds what check_conditions and root_space
said about each corpus file at cluster_eps 1e-8 and 1e-2 when the file
was recorded.  A change that means to keep behaviour must keep these:
statuses, witnesses, sigma sets, multiplicities, normality flags and
Segre characteristics exactly; kappa_v and the commutator norm to a
relative 1e-9, since their last digits move with the BLAS thread count.

Record the file again only for a change that means to alter verdicts:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from biortho import Tolerance, check_conditions, read_matrix, root_space

HERE = Path(__file__).resolve().parent
CORPUS = sorted((HERE.parent / "corpus").glob("*.mtx"))
GOLDEN = HERE / "golden_verdicts.json"
CLUSTER_EPS = (1e-8, 1e-2)
MEASURED = ("kappa_v", "commutator_norm")


def _finite_or_inf(value):
    return "inf" if value == float("inf") else value


def verdicts(path, cluster_eps):
    """The recorded facts about one corpus file at one grouping radius."""
    tol = Tolerance(cluster_eps=cluster_eps)
    a = read_matrix(str(path))
    report = check_conditions(a, tol)
    clusters = report.spectrum.clusters
    return {
        "conditions": [[v.id, v.status, list(v.witnesses)] for v in report.conditions],
        "sigma_set": list(report.sigma_set),
        "multiplicities": [[c.algebraic_multiplicity, c.geometric_multiplicity] for c in clusters],
        "is_normal": report.normality.is_normal,
        "properties": dict(sorted(report.normality.properties.items())),
        "diagonalizable": report.diagonalizable,
        "biorthonormal_basis_exists": report.biorthonormal_basis_exists,
        "segre": [list(root_space(a, c, tol).segre) for c in clusters],
        "kappa_v": _finite_or_inf(report.kappa_v),
        "commutator_norm": report.normality.commutator_norm,
    }


def _key(path, cluster_eps):
    return "%s@%g" % (path.name, cluster_eps)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_file_covers_the_corpus(golden):
    assert sorted(golden) == sorted(_key(p, e) for p in CORPUS for e in CLUSTER_EPS)


@pytest.mark.parametrize("cluster_eps", CLUSTER_EPS)
@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_verdicts_match_the_recorded_ones(path, cluster_eps, golden):
    want = golden[_key(path, cluster_eps)]
    got = verdicts(path, cluster_eps)
    for name in MEASURED:
        if want[name] == "inf":
            assert got[name] == "inf", name
        else:
            assert got[name] == pytest.approx(want[name], rel=1e-9), name
    exact = {k: v for k, v in got.items() if k not in MEASURED}
    assert exact == {k: v for k, v in want.items() if k not in MEASURED}


if __name__ == "__main__":
    # one line per file and radius, so a re-recording diffs line by line
    lines = ["%s: %s" % (json.dumps(_key(p, e)), json.dumps(verdicts(p, e), allow_nan=False))
             for p in CORPUS for e in CLUSTER_EPS]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
