"""Report documents: a stable JSON schema plus a text rendering.

The JSON layout has a fixed key order and uses shortest round-trip
floats, so rendering the same diagnosis twice yields identical bytes.
Infinite values (an unbounded eigenvector condition number) are encoded
as the string "inf" to stay inside strict JSON.  Timings are included
only when explicitly supplied, keeping default output reproducible.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

from .conditions import STRUCTURAL_NOTES
from .errors import MatrixParseError
from .linalg import Tolerance, as_matrix

__all__ = ["SCHEMA_VERSION", "ReportDocument", "matrix_digest"]

SCHEMA_VERSION = "1"

_BODY_KEYS = (
    "spectrum",
    "sigma_set",
    "conditions",
    "normality",
    "kappa_v",
    "diagonalizable",
    "biorthonormal_basis_exists",
    "residual_identity_angle",
)


def matrix_digest(m):
    """SHA-256 over the shape header and raw complex128 entries."""
    m = as_matrix(m)
    h = hashlib.sha256()
    h.update(("%d %d\n" % m.shape).encode("ascii"))
    h.update(np.ascontiguousarray(m).tobytes())
    return h.hexdigest()


def _encode_kappa(value):
    v = float(value)
    return "inf" if np.isinf(v) else v


def _diagnosis_body(diagnosis):
    # read off the spectrum's arrays, so no cluster object is built
    spectrum = diagnosis.spectrum
    clusters = [
        {
            "value": [value.real, value.imag],
            "algebraic_multiplicity": m_a,
            "geometric_multiplicity": m_g,
            "semi_simple": m_a == m_g,
        }
        for value, m_a, m_g in zip(spectrum._values.tolist(), spectrum._algebraic.tolist(),
                                   spectrum._right.widths.tolist())
    ]
    return {
        "spectrum": {"ambient_dim": diagnosis.ambient_dim, "clusters": clusters},
        "sigma_set": list(diagnosis.sigma_set),
        "conditions": [
            {
                "id": v.id,
                "status": v.status,
                "detail": v.detail,
                "witnesses": list(v.witnesses),
            }
            for v in diagnosis.conditions
        ],
        "normality": {
            "is_normal": diagnosis.normality.is_normal,
            "commutator_norm": diagnosis.normality.commutator_norm,
            "properties": {
                k: diagnosis.normality.properties[k] for k in ("a", "b", "c", "d", "e")
            },
        },
        "kappa_v": _encode_kappa(diagnosis.kappa_v),
        "diagonalizable": diagnosis.diagonalizable,
        "biorthonormal_basis_exists": diagnosis.biorthonormal_basis_exists,
        "residual_identity_angle": diagnosis.residual_identity_angle,
    }


@dataclass(frozen=True)
class ReportDocument:
    """One diagnosis bundled with its input digest and tolerances.

    body holds the diagnosis payload exactly as serialized; a document
    parsed back from JSON compares equal to the one that produced it.
    """

    schema_version: str
    input_digest: str
    tolerance: Tolerance
    body: dict
    timings: dict = None

    @classmethod
    def from_diagnosis(cls, diagnosis, tolerance, input_digest, timings=None):
        return cls(
            schema_version=SCHEMA_VERSION,
            input_digest=input_digest,
            tolerance=tolerance,
            body=_diagnosis_body(diagnosis),
            timings=dict(timings) if timings else None,
        )

    def to_json(self):
        doc = {
            "schema_version": self.schema_version,
            "input_digest": self.input_digest,
            "tolerance": {
                "rank_eps": self.tolerance.rank_eps,
                "cluster_eps": self.tolerance.cluster_eps,
                "residual_eps": self.tolerance.residual_eps,
            },
        }
        doc.update({k: self.body[k] for k in _BODY_KEYS})
        if self.timings is not None:
            doc["timings"] = self.timings
        return json.dumps(doc, indent=2, allow_nan=False) + "\n"

    @classmethod
    def from_json(cls, text):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MatrixParseError("invalid report JSON: %s" % exc, exc.lineno) from exc
        if not isinstance(data, dict):
            raise MatrixParseError("report JSON must be an object", 1)
        if data.get("schema_version") != SCHEMA_VERSION:
            raise MatrixParseError(
                "unsupported schema_version %r" % data.get("schema_version"), 1
            )
        missing = [k for k in ("input_digest", "tolerance", *_BODY_KEYS) if k not in data]
        if missing:
            raise MatrixParseError("report JSON lacks key(s) %s" % ", ".join(missing), 1)
        try:
            tolerance = Tolerance(**data["tolerance"])
        except (TypeError, ValueError) as exc:
            raise MatrixParseError("invalid report tolerance: %s" % exc, 1) from exc
        # parsed JSON numbers are exactly int or float; true and false are bool
        timings = data.get("timings")
        if timings is not None and (not isinstance(timings, dict)
                                    or any(type(t) not in (int, float) for t in timings.values())):
            raise MatrixParseError("invalid report timings %r: expected an object of numbers" % (timings,), 1)
        if data["kappa_v"] != "inf" and type(data["kappa_v"]) not in (int, float):
            raise MatrixParseError("invalid report kappa_v %r: not a number or \"inf\"" % (data["kappa_v"],), 1)
        return cls(
            schema_version=data["schema_version"],
            input_digest=data["input_digest"],
            tolerance=tolerance,
            body={k: data[k] for k in _BODY_KEYS},
            timings=timings,
        )

    def kappa_v(self):
        v = self.body["kappa_v"]
        return float("inf") if v == "inf" else float(v)

    def to_text(self):
        body = self.body
        lines = []
        n = body["spectrum"]["ambient_dim"]
        lines.append("matrix diagnosis (n = %d)" % n)
        lines.append("digest    %s" % self.input_digest)
        lines.append(
            "tolerance rank_eps=%r cluster_eps=%r residual_eps=%r"
            % (
                self.tolerance.rank_eps,
                self.tolerance.cluster_eps,
                self.tolerance.residual_eps,
            )
        )
        lines.append("")
        clusters = body["spectrum"]["clusters"]
        lines.append("spectrum: %d cluster(s)" % len(clusters))
        for i, c in enumerate(clusters):
            lines.append(
                "  [%d] %.12g%+.12gj  m_a=%d m_g=%d %s"
                % (
                    i,
                    c["value"][0],
                    c["value"][1],
                    c["algebraic_multiplicity"],
                    c["geometric_multiplicity"],
                    "semi-simple" if c["semi_simple"] else "defective",
                )
            )
        lines.append(
            "sigma set: %s" % (body["sigma_set"] if body["sigma_set"] else "empty")
        )
        lines.append("")
        lines.append("conditions")
        for v in body["conditions"]:
            lines.append("  %-4s %-8s %s" % (v["id"], v["status"], v["detail"]))
        lines.append("")
        norm = body["normality"]
        props = " ".join("%s %s" % (k, norm["properties"][k]) for k in ("a", "b", "c", "d", "e"))
        lines.append(
            "normality: commutator %.3e -> %s; %s"
            % (
                norm["commutator_norm"],
                "normal" if norm["is_normal"] else "not normal",
                props,
            )
        )
        kappa = self.kappa_v()
        lines.append(
            "kappa_v %s   diagonalizable %s   biorthonormal basis %s"
            % (
                "inf" if np.isinf(kappa) else "%.6e" % kappa,
                "yes" if body["diagonalizable"] else "no",
                "yes" if body["biorthonormal_basis_exists"] else "no",
            )
        )
        lines.append(
            "residual identity angle %.3e" % body["residual_identity_angle"]
        )
        if self.timings:
            lines.append(
                "timings " + " ".join(
                    "%s=%.6fs" % (k, self.timings[k]) for k in sorted(self.timings)
                )
            )
        lines.append("")
        lines.append("notes")
        for note in STRUCTURAL_NOTES:
            lines.append("  - %s" % note)
        return "\n".join(lines) + "\n"
