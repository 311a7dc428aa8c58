"""Span tracing installed around the program from outside.

install() wraps the public functions of each biortho module in every
biortho module namespace that holds them, two ReportDocument methods,
and numpy.linalg's factorization entry points.  Nothing inside the
program changes.  Spans are kept in memory while tracing is active and
written out once when the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover.  Spans opened in a worker thread of the program
(the ``analyze --dir`` pool) have as parent the outermost span open in
the thread that turned tracing on, so pool work is not counted as the
batch command's own time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import numpy as np

# per-layer metric -> (span name, field); field is "s" (self seconds),
# "calls" or "work" (the count the span's work function returned)
LAYER_METRICS = {
    "mmio.read_s": ("mmio.read", "s"),
    "mmio.read_calls": ("mmio.read", "calls"),
    "mmio.write_s": ("mmio.write", "s"),
    "mmio.write_calls": ("mmio.write", "calls"),
    "spectral.point_spectrum_s": ("spectral.point_spectrum", "s"),
    "spectral.point_spectrum_calls": ("spectral.point_spectrum", "calls"),
    "spectral.clusters": ("spectral.point_spectrum", "work"),
    "rootspace.root_space_s": ("rootspace.root_space", "s"),
    "rootspace.root_space_calls": ("rootspace.root_space", "calls"),
    "rootspace.staircase_levels": ("rootspace.root_space", "work"),
    "rootspace.span_report_s": ("rootspace.span_report", "s"),
    "conditions.check_conditions_self_s": ("conditions.check_conditions", "s"),
    "conditions.residual_identity_s": ("conditions.residual_identity", "s"),
    "conditions.sigma_set_s": ("conditions.sigma_set", "s"),
    "biorthogonal.biorthonormalize_s": ("biorthogonal.biorthonormalize", "s"),
    "biorthogonal.biorthonormalize_calls": ("biorthogonal.biorthonormalize", "calls"),
    "biorthogonal.skew_link_calls": ("biorthogonal.skew_link", "calls"),
    "biorthogonal.skew_link_s": ("biorthogonal.skew_link", "s"),
    "linalg.nullspace_calls": ("linalg.nullspace", "calls"),
    "linalg.nullspace_s": ("linalg.nullspace", "s"),
    "linalg.range_space_calls": ("linalg.range_space", "calls"),
    "linalg.range_space_s": ("linalg.range_space", "s"),
    "linalg.subspace_angle_calls": ("linalg.subspace_angle", "calls"),
    "linalg.subspace_angle_s": ("linalg.subspace_angle", "s"),
    "linalg.condition_number_s": ("linalg.condition_number", "s"),
    "lapack.svd_calls": ("lapack.svd", "calls"),
    "lapack.svd_s": ("lapack.svd", "s"),
    "lapack.norm2_calls": ("lapack.norm2", "calls"),
    "lapack.eigvals_calls": ("lapack.eigvals", "calls"),
    "lapack.factorizations": (None, "factorizations"),
    "report.to_json_s": ("report.to_json", "s"),
    "report.from_json_s": ("report.from_json", "s"),
    "report.digest_s": ("report.digest", "s"),
    "cli.analyze_dir_self_s": ("cli.analyze_dir", "s"),
    "gallery.generate_s": ("gallery.generate", "s"),
    "gallery.truncation_study_self_s": ("gallery.truncation_study", "s"),
}

# every numpy.linalg call that factorizes; a 2-norm runs an SVD inside numpy
FACTORIZATIONS = ("lapack.svd", "lapack.eig", "lapack.eigvals", "lapack.qr",
                  "lapack.solve", "lapack.inv", "lapack.norm2")


def metric_unit(name):
    return "s" if name.endswith("_s") else "count"


class Tracer:
    """Collects spans from wrapped calls while ``active`` is true."""

    def __init__(self):
        self.active = False
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack = []

    def _stack(self):
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, label, fn, work=None):
        """fn wrapped in a span; label is a name or a function of the call's arguments."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            name = label(*args, **kwargs) if callable(label) else label
            if name is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._owner_stack[0] if tracer._owner_stack else -1
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(index)
            amount = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    amount = work(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, parent, threading.get_ident(), amount)

        return traced

    def self_times(self):
        """Per span: duration minus the union of its children's intervals."""
        children = {}
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = []
        for index, (name, start, end, _, _, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for s, e in sorted(children.get(index, ())):
                s, e = max(s, cursor), min(e, end)
                if e > s:
                    covered += e - s
                    cursor = e
            out.append(end - start - covered)
        return out

    def totals(self):
        """{span name: {"s": self seconds, "calls": n, "work": total}}."""
        acc = {}
        for span, own in zip(self.spans, self.self_times()):
            name, amount = span[0], span[5]
            entry = acc.setdefault(name, {"s": 0.0, "calls": 0, "work": 0})
            entry["s"] += own
            entry["calls"] += 1
            entry["work"] += amount
        return acc

    def layer_metrics(self, rounds):
        """LAYER_METRICS per round of the workload."""
        acc = self.totals()
        out = {}
        for metric, (span, field) in LAYER_METRICS.items():
            if field == "factorizations":
                total = sum(acc.get(s, {}).get("calls", 0) for s in FACTORIZATIONS)
            else:
                total = acc.get(span, {}).get(field, 0)
            out[metric] = total / rounds
        return out

    def dump(self, path):
        records = [
            {"name": n, "start": s, "end": e, "parent": p, "thread": t, "work": w}
            for n, s, e, p, t, w in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"spans": records}, handle)


def _cli_label(argv=None):
    argv = list(argv or ())
    if not argv:
        return "cli.main"
    if argv[0] == "analyze" and any(a == "--dir" or a.startswith("--dir=") for a in argv):
        return "cli.analyze_dir"
    return "cli." + argv[0]


def _norm_label(x, ord=None, axis=None, keepdims=False):
    return "lapack.norm2" if ord == 2 and axis is None and np.ndim(x) == 2 else None


def install(tracer):
    """Wrap the program's functions for tracer; returns a function that undoes it."""
    from biortho import biorthogonal, cli, conditions, gallery, linalg, mmio, report, rootspace, spectral

    targets = [
        (mmio, "read_matrix", "mmio.read", None),
        (mmio, "write_matrix", "mmio.write", None),
        (spectral, "point_spectrum", "spectral.point_spectrum", lambda r: len(r.clusters)),
        (rootspace, "root_space", "rootspace.root_space", lambda r: len(r.staircase)),
        (rootspace, "span_report", "rootspace.span_report", None),
        (conditions, "check_conditions", "conditions.check_conditions", None),
        (conditions, "residual_identity_check", "conditions.residual_identity", None),
        (conditions, "sigma_set", "conditions.sigma_set", None),
        (biorthogonal, "biorthonormalize", "biorthogonal.biorthonormalize", None),
        (biorthogonal, "skew_link_check", "biorthogonal.skew_link", None),
        (linalg, "nullspace", "linalg.nullspace", None),
        (linalg, "range_space", "linalg.range_space", None),
        (linalg, "subspace_angle", "linalg.subspace_angle", None),
        (linalg, "condition_number", "linalg.condition_number", None),
        (report, "matrix_digest", "report.digest", None),
        (gallery, "generate", "gallery.generate", None),
        (gallery, "truncation_study", "gallery.truncation_study", None),
        (cli, "main", _cli_label, None),
    ]
    namespaces = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "biortho" or name.startswith("biortho."))]
    undo = []

    def replace_everywhere(original, wrapped):
        for module in namespaces:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
                    undo.append((module, key, original))

    for module, attr, label, work in targets:
        original = getattr(module, attr)
        replace_everywhere(original, tracer.wrap(label, original, work))

    doc = report.ReportDocument
    to_json = doc.__dict__["to_json"]
    from_json = doc.__dict__["from_json"]
    doc.to_json = tracer.wrap("report.to_json", to_json)
    doc.from_json = classmethod(tracer.wrap("report.from_json", from_json.__func__))
    undo.append((doc, "to_json", to_json))
    undo.append((doc, "from_json", from_json))

    for attr in ("svd", "eig", "eigvals", "qr", "solve", "inv"):
        original = getattr(np.linalg, attr)
        setattr(np.linalg, attr, tracer.wrap("lapack." + attr, original))
        undo.append((np.linalg, attr, original))
    norm = np.linalg.norm
    np.linalg.norm = tracer.wrap(_norm_label, norm)
    undo.append((np.linalg, "norm", norm))

    def uninstall():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return uninstall
