"""The benchmark's span tracer against the program: every name it wraps exists, and its undo restores them.

perfbench/tracing.install looks up program functions by name and wraps
each in every biortho module namespace that holds it, two ReportDocument
methods and numpy.linalg's factorizations.  A program change that
deletes or renames one of those names breaks the benchmark; this test
makes that a tier-1 failure.  It loads tracing.py from its file and
changes nothing under perfbench/.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

# the modules install wraps functions of, imported before any snapshot of their namespaces
from biortho import biorthogonal, cli, conditions, gallery, linalg, mmio, report, rootspace, spectral  # noqa: F401

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _StubTracer:
    """Hands back a pass-through wrapper for each function, recording what it wrapped."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, label, fn, work=None):
        def wrapper(*args, **kwargs):
            return fn(*args, **kwargs)

        self.wrapped.append((label, fn, wrapper))
        return wrapper


def _owners():
    # every namespace install may write into
    names = sorted(name for name in sys.modules if name == "biortho" or name.startswith("biortho."))
    return [sys.modules[name] for name in names] + [report.ReportDocument, np.linalg]


def _snapshot(owners):
    return {(id(owner), key): value for owner in owners for key, value in list(vars(owner).items())}


def _changed(owners, before):
    # the entries that no longer hold the very object they held before
    now = _snapshot(owners)
    return sorted(key for key, value in before.items() if now.get(key) is not value)


def _held(owners):
    # a classmethod holds its function as __func__
    return {id(getattr(value, "__func__", value)) for owner in owners for value in list(vars(owner).values())}


def test_install_finds_every_name_it_wraps_and_its_undo_restores_them():
    tracing = _load_tracing()
    owners = _owners()
    before = _snapshot(owners)
    stub = _StubTracer()
    try:
        uninstall = tracing.install(stub)
        held = _held(owners)
        # install raised no AttributeError, and each wrapper it made is in place
        assert stub.wrapped and all(id(wrapper) in held for _, _, wrapper in stub.wrapped)
        labels = {label for label, _, _ in stub.wrapped if isinstance(label, str)}
        # the span names the per-layer metrics read; two come from labels
        # that depend on the call's arguments
        spans = {span for span, _ in tracing.LAYER_METRICS.values() if span is not None}
        assert spans - labels == {"lapack.norm2", "cli.analyze_dir"}
        assert tracing._norm_label(np.eye(2), 2) == "lapack.norm2"
        assert tracing._cli_label(["analyze", "--dir", "corpus"]) == "cli.analyze_dir"
        assert _changed(owners, before)
        uninstall()
        assert _changed(owners, before) == []
    finally:
        # whatever install left behind is put back, so that no other test runs traced
        by_id = {id(owner): owner for owner in owners}
        for (owner_id, key), value in before.items():
            owner = by_id[owner_id]
            if vars(owner).get(key) is not value:
                setattr(owner, key, value)
