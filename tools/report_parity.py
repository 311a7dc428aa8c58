#!/usr/bin/env python3
"""Record the program's outputs on a fixed input set, and compare two records.

    python3 tools/report_parity.py dump SRC OUT [--files FILE ...]
    python3 tools/report_parity.py compare A B

dump imports biortho from SRC, the src directory of a checkout, and
writes OUT, one JSON object with one record per input:

- every file of corpus/ at cluster_eps 1e-8 and 1e-2;
- every diagnosed item of each workload of perfbench/workloads.py at
  seeds 1 and 2, at the item's own cluster_eps, its matrix passed
  through a Matrix Market round trip as the benchmark passes it;
- shift_trunc, weighted_shift_trunc and random_gaussian seed 1, n = 8,
  each plus c I for c in 1e3 and 1e6, at the default tolerance, where a
  verdict that moves under a shift shows; so do two block_jordan n = 8
  members, one Jordan block of size 4 beside four simple eigenvalues
  (cond 10, seeds 0 and 1), which raise unshifted;
- four near-normal matrices, each plus c I for c in 0, 1e3 and 1e6, at
  the default tolerance, where is_normal and the marks it reads show;
- real inputs, which are factored in real arithmetic: the real parts of
  random_gaussian n = 8 and 32, seeds 1 and 2, whose eigenvalues come in
  conjugate pairs, at the default tolerance; and at cluster_eps 1e-2, a
  Jordan block of length 3, 4 or 5 at 2.0 beside simple 3, 4, ..., under
  a real orthogonal similarity (n = 12), and S J S^-1 for a real
  Gaussian S and J with Segres (2, 1), (1), (3), (1, 1) at 0, 1, 2, 3
  (n = 9), whose defective clusters are real but come out of a dense
  similarity.

Each record holds the check_conditions report JSON (or the error's class
and message) and the outcome of biorthonormalize: a SHA-256 digest of
the system's psi and chi matrices and pair tags with its gram_residual,
or the refusal's class and cluster index.  --files records only the given
Matrix Market files, at both radii, and no workload item.  The workload
module is imported read-only, from this checkout.

compare lists each field that differs between two dumps, with the number
of records it differs in and, for a float field, its largest absolute
change.  It exits 0 when the dumps are identical and 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "corpus"
RADII = (1e-8, 1e-2)
SEEDS = (1, 2)
SHIFTED = ("shift_trunc", "weighted_shift_trunc", "random_gaussian")
SHIFTS = (1e3, 1e6)
# block_jordan's blocks: a Jordan block of size 4 at 0 and simple eigenvalues 1..4
JORDAN4 = ((0.0, (4,)),) + tuple((float(k), (1,)) for k in (1, 2, 3, 4))


def _import_program(src):
    src = Path(src).resolve()
    if not (src / "biortho" / "__init__.py").is_file():
        raise SystemExit("no program at %s" % src)
    sys.path.insert(0, str(src))
    import biortho

    if Path(biortho.__file__).resolve().parent != src / "biortho":
        raise SystemExit("biortho imported from %s, not from %s" % (biortho.__file__, src))
    return biortho


def _record(biortho, a, tol):
    out = {}
    try:
        diagnosis = biortho.check_conditions(a, tol)
        text = biortho.ReportDocument.from_diagnosis(diagnosis, tol, biortho.matrix_digest(a)).to_json()
        out["report"] = json.loads(text)
    except (biortho.BiorthoError, ValueError) as exc:
        out["report_error"] = {"class": type(exc).__name__, "message": str(exc)}
    try:
        system = biortho.biorthonormalize(a, tol=tol)
    except (biortho.BiorthoError, ValueError) as exc:
        indices = getattr(exc, "cluster_indices", (getattr(exc, "cluster_index", None),))
        out["refusal"] = {"class": type(exc).__name__, "clusters": list(indices)}
    else:
        digest = hashlib.sha256()
        for m in (system.psi_matrix(), system.chi_matrix()):
            digest.update(m.tobytes())
        digest.update(repr([p.cluster_index for p in system.pairs]).encode("ascii"))
        out["system"] = {"digest": digest.hexdigest(), "gram_residual": system.gram_residual}
    return out


def _matrices(biortho):
    """(key, matrix, cluster_eps) of every input but the corpus: workload items, shifted and near-normal members."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            for item in workloads.build(name, seed).items:
                if item.diagnose:
                    buf = io.StringIO()
                    biortho.write_matrix(biortho.generate(item.spec), buf)
                    a = biortho.read_matrix(io.StringIO(buf.getvalue()))
                    yield "%s/%d/%s" % (name, seed, item.name), a, item.cluster_eps
    eps = biortho.Tolerance().cluster_eps
    shifted = {"%s8" % name: biortho.generate(biortho.FamilySpec(name, 8, {}, 1)) for name in SHIFTED}
    for seed in (0, 1):
        spec = biortho.FamilySpec("block_jordan", 8, {"blocks": JORDAN4, "cond": 10.0}, seed)
        shifted["block_jordan8-seed%d" % seed] = biortho.generate(spec)
    for name, a in shifted.items():
        for c in SHIFTS:
            yield "shifted/%s+%r" % (name, c), a + c * np.eye(8), eps
    normal = biortho.generate(biortho.FamilySpec("random_normal", 32, {}, 3))
    near_normal = {
        "normal32+gaussian": normal + 3e-9 * biortho.generate(biortho.FamilySpec("random_gaussian", 32, {}, 4)),
        "diag2+1e-8": np.array([[1.0, 1e-8], [0.0, 2.0]]),
        "diag2+3e-8": np.array([[1.0, 3e-8], [0.0, 2.0]]),
        "framed-collapse": np.array([[1e6, 0.0, 0.0], [0.0, 1e6 + 0.1, 3e-5], [0.0, 0.0, 1e6 + 0.1]]),
    }
    for name, a in near_normal.items():
        for c in (0.0,) + SHIFTS:
            yield "near_normal/%s+%r" % (name, c), a + c * np.eye(len(a)), eps
    for n in (8, 32):
        for seed in SEEDS:
            yield "real/gaussian%d-seed%d" % (n, seed), biortho.generate(
                biortho.FamilySpec("random_gaussian", n, {}, seed)).real, eps
    for length in (3, 4, 5):
        yield "real/jordan%d-at-2" % length, _real_similarity(length), 1e-2
    yield "real/similarity9", _real_similarity9(), 1e-2


def _real_similarity(length, n=12):
    # a Jordan block of the given length at 2.0 beside simple 3, 4, ..., under a real orthogonal similarity
    j = np.diag(np.r_[np.full(length, 2.0), 3.0 + np.arange(n - length)]) + np.diag(
        np.r_[np.ones(length - 1), np.zeros(n - length)], 1)
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((n, n)))
    return q @ j @ q.T


def _real_similarity9():
    # S J S^-1 with a real Gaussian S, J of Segres (2, 1) at 0, (1) at 1, (3) at 2 and (1, 1) at 3
    j = np.zeros((9, 9))
    for lo, width, lam in ((0, 2, 0.0), (2, 1, 0.0), (3, 1, 1.0), (4, 3, 2.0), (7, 1, 3.0), (8, 1, 3.0)):
        j[lo:lo + width, lo:lo + width] = lam * np.eye(width) + np.eye(width, k=1)
    s = np.random.default_rng(9).standard_normal((9, 9))
    return s @ j @ np.linalg.inv(s)


def dump(src, out, files=None):
    biortho = _import_program(src)
    paths = [Path(f) for f in files] if files else sorted(CORPUS.glob("*.mtx"))
    records = {}
    for path in paths:
        a = biortho.read_matrix(str(path))
        for eps in RADII:
            records["corpus/%s@%r" % (path.name, eps)] = _record(biortho, a, biortho.Tolerance(cluster_eps=eps))
    if not files:
        for key, a, eps in _matrices(biortho):
            records[key] = _record(biortho, a, biortho.Tolerance(cluster_eps=eps))
    Path(out).write_text(json.dumps(records, indent=1) + "\n")
    print("%d records written to %s" % (len(records), out))


def _leaves(value, path):
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _leaves(v, "%s.%s" % (path, key) if path else key)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _leaves(v, "%s[%d]" % (path, i))
    else:
        yield path, value


def differences(a, b):
    """{field: (records it differs in, largest absolute change or None)} over the records of two dumps.

    A field is a leaf's path with its list indices dropped; a leaf present
    on one side only counts as a difference of its path.  Records in one
    dump only are left out.
    """
    fields = {}
    for key in sorted(set(a) & set(b)):
        left = dict(_leaves(a[key], ""))
        right = dict(_leaves(b[key], ""))
        for path in sorted(set(left) | set(right)):
            x, y = left.get(path), right.get(path)
            if repr(x) == repr(y):
                continue
            field = re.sub(r"\[\d+\]", "[]", path)
            count, change = fields.get(field, (0, None))
            if type(x) is float and type(y) is float and math.isfinite(x) and math.isfinite(y):
                change = max(change or 0.0, abs(x - y))
            fields[field] = (count + 1, change)
    return fields


def compare(path_a, path_b):
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    fields, lone = differences(a, b), sorted(set(a) ^ set(b))
    print("%d and %d records" % (len(a), len(b)))
    for key in lone:
        print("only in %s: %s" % (path_a if key in a else path_b, key))
    for field, (count, change) in sorted(fields.items()):
        print("%s: differs in %d record(s)%s"
              % (field, count, "" if change is None else ", largest absolute change %.3g" % change))
    if not fields and not lone:
        print("identical")
        return 0
    return 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = p.add_subparsers(dest="command", required=True)
    d = commands.add_parser("dump", help="record the outputs of the program in SRC")
    d.add_argument("src")
    d.add_argument("out")
    d.add_argument("--files", nargs="+", help="only these Matrix Market files, no workload item")
    c = commands.add_parser("compare", help="list the fields that differ between two dumps")
    c.add_argument("a")
    c.add_argument("b")
    args = p.parse_args(argv)
    if args.command == "dump":
        dump(args.src, args.out, args.files)
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
