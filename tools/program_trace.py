#!/usr/bin/env python3
"""List the program's statement lines that none of its own entry points runs.

    python3 tools/program_trace.py SRC [--files FILE ...]

Imports biortho from SRC, the src directory of a checkout, under a line
trace (sys.settrace), and runs the program's entry points:

- the inputs and calls of tools/report_parity.py, through its own
  enumeration: check_conditions with its JSON report, and
  biorthonormalize, on the corpus, every diagnosed workload item and
  the shifted members;
- the library calls perfbench/run.py makes on every item of each
  workload at seed 1: the Matrix Market read, check_conditions,
  root_space as the Segre oracle of an item of known Jordan structure,
  and biorthonormalize with expand, or its refusal;
- the command line on each workload's files: gallery writes them,
  analyze reads each one (text and JSON) and each batch directory
  (--dir), and study runs the workload's sweeps.

Then it prints, per module of SRC/biortho, the statement lines that no
entry point ran, each with its source text.  Docstrings are not
statements, and neither are global and nonlocal declarations, which
compile to nothing.  --files runs report_parity's calls and analyze
(each file, then the files as one --dir) on the given Matrix Market
files only, and no workload.  The workload modules are imported
read-only, from this checkout.  The full run takes tens of seconds.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEED = 1


def _parity_tool():
    spec = importlib.util.spec_from_file_location("report_parity", ROOT / "tools" / "report_parity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Lines:
    """A sys.settrace hook that records the (file, line) pairs run in the files under one directory."""

    def __init__(self, directory):
        self.prefix = str(directory.resolve())
        self.seen = set()

    def __call__(self, frame, event, arg):
        return self._line if frame.f_code.co_filename.startswith(self.prefix) else None

    def _line(self, frame, event, arg):
        if event == "line":
            self.seen.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line


def _statement_lines(source):
    """The first line of every statement in source, docstrings and global/nonlocal left out."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docstrings.add(first)
    return sorted({node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt)
                   and not isinstance(node, (ast.Global, ast.Nonlocal)) and node not in docstrings})


def _analyze(cli, paths, work, flags=()):
    # each file in text and in JSON, then all of them as one directory
    for path in paths:
        cli.main(["analyze", str(path), *flags])
        cli.main(["analyze", str(path), "--format=json", "--timings", *flags])
    directory = work / "dir"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir()
    for path in paths:
        shutil.copy(path, directory)
    cli.main(["analyze", "--dir=%s" % directory, "--format=json", "--out=%s" % (work / "reports"), *flags])


def _files(biortho, parity, paths, work):
    from biortho import cli

    for path in paths:
        a = biortho.read_matrix(str(path))
        for eps in parity.RADII:
            parity._record(biortho, a, biortho.Tolerance(cluster_eps=eps))
    for eps in parity.RADII:
        _analyze(cli, paths, work, ["--tol-cluster=%r" % eps])


def _workloads(biortho, work):
    from biortho import cli

    sys.path.insert(0, str(ROOT / "perfbench"))
    import checks
    import workloads

    for name in workloads.WORKLOADS:
        wl = workloads.build(name, SEED)
        flags = ["--tol-cluster=%r" % wl.cli_cluster_eps]
        base = work / name
        base.mkdir()
        paths = []
        for item in wl.items:
            path = base / (item.name + ".mtx")
            cli.main(workloads.gallery_argv(item.spec, path))
            paths.append(path)
            if not item.diagnose:
                continue
            m, tol = biortho.read_matrix(path), biortho.Tolerance(cluster_eps=item.cluster_eps)
            report = biortho.check_conditions(m, tol)
            if checks.jordan_blocks(item.spec) is not None:
                for c in report.spectrum.clusters:
                    biortho.root_space(m, c, tol)
            try:
                system = biortho.biorthonormalize(m, tol=tol)
            except biortho.BiorthoError:
                continue
            biortho.expand(system, np.ones(m.shape[0]))
        for k, group in enumerate(workloads.batch_groups(wl)):
            group_dir = base / ("batch%d" % k)
            group_dir.mkdir()
            for item in group:
                shutil.copy(base / (item.name + ".mtx"), group_dir)
            cli.main(["analyze", "--dir=%s" % group_dir, "--format=json", "--out=%s" % (base / "reports"), *flags])
            for item in group:
                biortho.ReportDocument.from_json((base / "reports" / (item.name + ".json")).read_text())
        _analyze(cli, paths, base, flags)
        for study in wl.studies:
            cli.main(workloads.study_argv(study, base / (study.name + ".csv"), wl.cli_cluster_eps))


def trace(src, files=None):
    """{module file name: [(line, source text) of each statement line no entry point ran]} for the program in src."""
    package = Path(src).resolve() / "biortho"
    lines = _Lines(package)
    parity = _parity_tool()
    sys.settrace(lines)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            biortho = parity._import_program(src)
            work = Path(tmp)
            paths = [Path(f) for f in files] if files else sorted(parity.CORPUS.glob("*.mtx"))
            _files(biortho, parity, paths, work)
            if not files:
                for _, a, eps in parity._matrices(biortho):
                    parity._record(biortho, a, biortho.Tolerance(cluster_eps=eps))
                _workloads(biortho, work)
    finally:
        sys.settrace(None)
    unrun = {}
    for module in sorted(package.glob("*.py")):
        source = module.read_text()
        text = source.splitlines()
        unrun[module.name] = [(k, text[k - 1].strip()) for k in _statement_lines(source)
                              if (str(module), k) not in lines.seen]
    return unrun


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", help="the src directory of a checkout")
    p.add_argument("--files", nargs="+", help="only these Matrix Market files, no workload")
    args = p.parse_args(argv)
    for module, unrun in trace(args.src, args.files).items():
        print("%s: %d statement line(s) never ran" % (module, len(unrun)))
        for k, text in unrun:
            print("%s:%d: %s" % (module, k, text))
    return 0


if __name__ == "__main__":
    sys.exit(main())
