"""Correctness checks on the program's outputs.

Each check compares an output against a computation made apart from the
program (scipy, an SVD made here, a hash made here, a closed form) or
against a property the mathematics guarantees, and returns a list of
problems: empty when the output is right.  Expected values for the
structured families come from the generator spec, never from the
program.  No stored output bytes are compared against.

Bounds.  eps is the unit roundoff and n the dimension.  A backward
stable eigenvalue or singular value computation returns exact results
for a matrix within p(n) * eps * ||A|| of the input; the checks take
p(n) = 4 n, so a bound written ``_P * n * eps`` below is that
perturbation.  Bounds on quantities that pass through the eigenvector
matrix V carry kappa_v = cond(V) (Bauer-Fike) or kappa_v**2 where V and
its inverse both enter.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from biortho import FAIL, PASS, VACUOUS, NotDiagonalizableError, ReportDocument, SkewLinkFailureError

EPS = float(np.finfo(float).eps)
_P = 4.0  # p(n) = _P * n, the backward-error growth allowed per factorization
EP_RTOL = 1e-10
CONDITION_IDS = ("C1", "C2", "C3", "C4", "C2'", "C3'", "C4'")

# ---------------------------------------------------------------- spec facts


def jordan_blocks(spec):
    """{eigenvalue: Segre characteristic} from a spec with known Jordan form, else None."""
    p = spec.params
    if spec.name == "jordan":
        pairs = [(complex(p.get("eigenvalue", 0.0)), tuple(p.get("segre", (spec.size,))))]
    elif spec.name in ("shift_trunc", "weighted_shift_trunc"):
        pairs = [(0j, (spec.size,))]
    elif spec.name == "block_jordan":
        pairs = [(complex(lam), tuple(segre)) for lam, segre in p["blocks"]]
    else:
        return None
    blocks = {}
    for lam, segre in pairs:
        blocks.setdefault(lam, []).extend(int(s) for s in segre)
    return {lam: tuple(sorted(sizes, reverse=True)) for lam, sizes in blocks.items()}


def expects_basis(spec):
    """Whether the spec's matrix has a biorthonormal eigenvector basis."""
    blocks = jordan_blocks(spec)
    if blocks is not None:
        return all(s == 1 for segre in blocks.values() for s in segre)
    if spec.name == "ep_family":
        return float(spec.params.get("t", 1.0)) > 0.0
    if spec.name == "pt_dimer":
        return float(spec.params.get("a", 0.5)) != float(spec.params.get("b", 1.0))
    return True  # random_gaussian, random_normal, diag: distinct eigenvalues


def is_normal_family(spec):
    return spec.name in ("random_normal", "diag")


def digest(m):
    """SHA-256 over "rows cols\\n" and the raw row-major complex128 entries."""
    m = np.ascontiguousarray(m, dtype=np.complex128)
    return hashlib.sha256(("%d %d\n" % m.shape).encode("ascii") + m.tobytes()).hexdigest()


# ---------------------------------------------------------------- diagnosis


def _statuses(report):
    return {v.id: v.status for v in report.conditions}


def check_diagonalizable(a, report, tol, oracle_eigs, normal):
    """Checks for an input with distinct eigenvalues (Gaussian, normal, diag, PT)."""
    out = []
    n = a.shape[0]
    clusters = report.spectrum.clusters
    norm2 = float(np.linalg.norm(a, 2))
    fro2 = float(np.linalg.norm(a, "fro")) ** 2
    if sum(c.algebraic_multiplicity for c in clusters) != n:
        out.append("algebraic multiplicities sum to %d, not %d"
                   % (sum(c.algebraic_multiplicity for c in clusters), n))
    # eigenvalues of A + E sum to trace(A + E), and |trace E| <= n ||E||_2
    tr_err = abs(np.trace(a) - sum(c.algebraic_multiplicity * c.value for c in clusters))
    if tr_err > _P * n * n * EPS * norm2:
        out.append("trace differs from sum of eigenvalues by %.3e" % tr_err)
    kappa = report.kappa_v
    if not math.isfinite(kappa):
        out.append("kappa_v is %r on a diagonalizable input" % kappa)
        kappa = 1.0
    # both eigenvalue solvers are backward stable: Bauer-Fike bounds each
    # one's distance from the exact spectrum by kappa_v * ||E||
    bf = 2.0 * kappa * _P * n * EPS * norm2
    values = np.array([c.value for c in clusters])
    for lam in values:
        d = float(np.abs(oracle_eigs - lam).min())
        if d > bf:
            out.append("eigenvalue %r is %.3e from scipy's spectrum (bound %.3e)" % (lam, d, bf))
    if values.size:
        d = float(np.abs(oracle_eigs[:, None] - values[None, :]).min(axis=1).max())
        if d > bf:
            out.append("a scipy eigenvalue is %.3e from every cluster (bound %.3e)" % (d, bf))
    eye = np.eye(n)
    for i, c in enumerate(clusters):
        shifted = a - c.value * eye
        # the program's own rank cutoff decides what counts as kernel
        cut = tol.rank_eps * n * max(float(np.linalg.norm(shifted, 2)), abs(c.value)) + _P * n * EPS * norm2
        for side, m, basis in (("right", shifted, c.right_kernel.basis),
                               ("left", shifted.conj().T, c.left_kernel.basis)):
            r = float(np.linalg.norm(m @ basis, 2)) if basis.size else 0.0
            if r > cut:
                out.append("cluster %d %s kernel residual %.3e above %.3e" % (i, side, r, cut))
    st = _statuses(report)
    for cid in CONDITION_IDS:
        allowed = (PASS, VACUOUS) if normal and cid in ("C2", "C2'") else (PASS,)
        if st.get(cid) not in allowed:
            out.append("%s is %s" % (cid, st.get(cid)))
    if not report.diagonalizable or not report.biorthonormal_basis_exists:
        out.append("diagonalizable=%s basis_exists=%s on a diagonalizable input"
                   % (report.diagonalizable, report.biorthonormal_basis_exists))
    lam2 = float(sum(c.algebraic_multiplicity * abs(c.value) ** 2 for c in clusters))
    schur = _P * n * n * EPS * norm2 * norm2
    if normal:
        if not report.normality.is_normal:
            out.append("is_normal false on a normal input")
        bad = [k for k, v in report.normality.properties.items() if v != PASS]
        if bad:
            out.append("normality marks %s not PASS" % bad)
        # eigenvectors of a normal matrix are orthonormal up to eps ||A|| / gap
        gaps = np.abs(oracle_eigs[:, None] - oracle_eigs[None, :]) + np.diag(np.full(n, np.inf))
        gap = float(gaps.min()) if n > 1 else 1.0
        kb = _P * n * EPS * norm2 / max(gap, EPS)
        if abs(kappa - 1.0) > kb:
            out.append("kappa_v %r of a normal input is not 1 within %.3e" % (kappa, kb))
        if abs(lam2 - fro2) > schur:
            out.append("Schur equality fails: sum |lambda|^2 %r vs ||A||_F^2 %r" % (lam2, fro2))
    elif not lam2 < fro2 - schur:
        out.append("Schur inequality not strict: sum |lambda|^2 %r vs ||A||_F^2 %r" % (lam2, fro2))
    return out


def check_defective(report, tol, blocks, root_segres):
    """Checks against the spec's Jordan structure.

    blocks is jordan_blocks(spec); root_segres maps cluster index to the
    Segre characteristic the program's root_space returned.
    """
    out = []
    clusters = report.spectrum.clusters
    if len(clusters) != len(blocks):
        out.append("%d clusters for %d distinct spec eigenvalues" % (len(clusters), len(blocks)))
    scale = max(1.0, max(abs(lam) for lam in blocks))
    radius = tol.cluster_eps * scale
    values = np.array([c.value for c in clusters])
    used = set()
    for lam, segre in blocks.items():
        i = int(np.abs(values - lam).argmin()) if values.size else -1
        if i < 0 or abs(values[i] - lam) > radius:
            out.append("no cluster within %.3e of spec eigenvalue %r" % (radius, lam))
            continue
        if i in used:
            out.append("cluster %d matches two spec eigenvalues" % i)
        used.add(i)
        c = clusters[i]
        if c.algebraic_multiplicity != sum(segre) or c.geometric_multiplicity != len(segre):
            out.append("cluster at %r has m_a=%d m_g=%d, spec Segre %s"
                       % (lam, c.algebraic_multiplicity, c.geometric_multiplicity, segre))
        if tuple(root_segres.get(i, ())) != segre:
            out.append("root_space Segre %s at %r, spec %s" % (root_segres.get(i), lam, segre))
    simple = all(s == 1 for segre in blocks.values() for s in segre)
    if report.diagonalizable != simple or report.biorthonormal_basis_exists != simple:
        out.append("diagonalizable=%s basis_exists=%s, spec says %s"
                   % (report.diagonalizable, report.biorthonormal_basis_exists, simple))
    st = _statuses(report)
    if (st.get("C4") == FAIL) == simple:
        out.append("C4 is %s with %s blocks" % (st.get("C4"), "all size-1" if simple else "larger"))
    for cid in ("C1", "C3", "C3'", "C4'"):
        if st.get(cid) != PASS:
            out.append("%s is %s" % (cid, st.get(cid)))
    return out


# ---------------------------------------------------------------- construction


def check_construction(a, system, values, kappa, f, coeffs):
    """Recompute biorthonormality, completeness, expansion and reconstruction.

    values[i] is the eigenvalue of pair i; kappa the diagnosed kappa_v.
    """
    out = []
    n = a.shape[0]
    if not system.complete or len(system.pairs) != n:
        return ["system has %d pairs for n=%d (complete=%s)" % (len(system.pairs), n, system.complete)]
    v = system.psi_matrix()
    w = system.chi_matrix()
    eye = np.eye(n)
    k2 = max(1.0, kappa) ** 2
    bound = _P * n * EPS * k2
    norm2 = float(np.linalg.norm(a, 2))
    residuals = {
        "||W*V - I||": float(np.linalg.norm(w.conj().T @ v - eye, 2)),
        "||VW* - I||": float(np.linalg.norm(v @ w.conj().T - eye, 2)),
        "expand round trip": float(np.linalg.norm(v @ coeffs - f)) / float(np.linalg.norm(f)),
        "sum lambda psi chi* - A": float(np.linalg.norm((v * values) @ w.conj().T - a, 2)) / max(norm2, EPS),
    }
    for name, r in residuals.items():
        if not r <= bound:
            out.append("%s = %.3e above %.3e" % (name, r, bound))
    return out


def check_refused(outcome):
    """A defective member's biorthonormalize call must refuse."""
    if isinstance(outcome, (NotDiagonalizableError, SkewLinkFailureError)):
        return []
    return ["biorthonormalize on a defective input returned %r instead of refusing" % (outcome,)]


# ---------------------------------------------------------------- files and reports


def check_file(read_back, expected, file_text, rewritten_text):
    out = []
    e = np.ascontiguousarray(expected, dtype=np.complex128)
    if read_back.shape != e.shape or read_back.tobytes() != e.tobytes():
        out.append("read_matrix differs from generate() of the same spec")
    if rewritten_text != file_text:
        out.append("rewriting the matrix does not reproduce the file byte for byte")
    return out


def check_report(text, expected_digest, basis):
    """A batch JSON report: parses, digests the input, states the family's verdict."""
    try:
        json.loads(text)
        doc = ReportDocument.from_json(text)
    except Exception as exc:  # any parse failure is the finding
        return ["report does not parse: %s" % exc]
    out = []
    if doc.input_digest != expected_digest:
        out.append("input_digest %s, expected %s" % (doc.input_digest, expected_digest))
    if doc.body["biorthonormal_basis_exists"] != basis:
        out.append("biorthonormal_basis_exists=%s, family says %s"
                   % (doc.body["biorthonormal_basis_exists"], basis))
    return out


def expected_exit_code(bases):
    """analyze exits 0 when every file has a basis and no FAIL, 2 otherwise."""
    return 0 if all(bases) else 2


# ---------------------------------------------------------------- studies


def check_study_rows(rows, study, matrices):
    """Rows of a ``biortho study`` CSV.

    matrices maps size to the benchmark's own generate() of that size.
    ep_family rows are checked against the closed forms
    min_self_orthogonality = sqrt(t (2 - t)) and kappa_v = sqrt((2 - t) / t).
    """
    out = []
    per_size = max(1, len(study.grid)) * max(1, len(study.t_values))
    if len(rows) != per_size * len(study.sizes):
        out.append("%d rows, expected %d" % (len(rows), per_size * len(study.sizes)))
    for row in rows:
        n = int(row["size"])
        if n not in study.sizes:
            out.append("unexpected size %d" % n)
            continue
        if study.family == "ep_family":
            t = float(row["t"])
            for key, exact in (("min_self_orthogonality", math.sqrt(t * (2.0 - t))),
                               ("kappa_v", math.sqrt((2.0 - t) / t))):
                got = float(row[key])
                if not abs(got - exact) <= EP_RTOL * exact:
                    out.append("ep t=%r: %s %r, closed form %r" % (t, key, got, exact))
        elif study.family == "shift_trunc":
            if row["C4"] != FAIL:
                out.append("shift_trunc n=%d: C4 is %s" % (n, row["C4"]))
        else:
            bad = [cid for cid in CONDITION_IDS if row[cid] != PASS]
            if bad:
                out.append("%s n=%d: %s not PASS" % (study.family, n, bad))
        if row["probe_re"]:
            z = complex(float(row["probe_re"]), float(row["probe_im"]))
            m = matrices[n] - z * np.eye(n)
            s = np.linalg.svd(m, compute_uv=False)
            # Weyl: a backward stable SVD moves each singular value by at most ||E||
            if abs(float(row["sigma_min"]) - s[-1]) > _P * n * EPS * s[0]:
                out.append("%s n=%d z=%r: sigma_min %s, SVD gives %r"
                           % (study.family, n, z, row["sigma_min"], s[-1]))
    return out
