"""Command-line front end.

Subcommands:

    analyze   diagnose one Matrix Market file (or every .mtx in a
              directory) and print a text or JSON report
    gallery   write one gallery matrix as a Matrix Market file
    study     sweep a family over truncation sizes and emit a CSV table

Exit codes for analyze: 0 when a biorthonormal basis exists and no
condition fails, 2 when the diagnosis completed but some condition
FAILed, 1 on any error.  gallery and study exit 0 or 1.

The rank tolerance can also be supplied through the BIORTHO_TOL_RANK
environment variable; the --tol-rank flag wins when both are present.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

from .conditions import FAIL, check_conditions
from .errors import BiorthoError
from .gallery import FAMILIES, FamilySpec, generate, truncation_study
from .linalg import DEFAULT_TOL, Tolerance
from .mmio import read_matrix, write_matrix
from .report import ReportDocument, matrix_digest

__all__ = ["main"]

_CONDITION_IDS = ("C1", "C2", "C3", "C4", "C2'", "C3'", "C4'")


class _Parser(argparse.ArgumentParser):
    # usage problems are errors, and errors exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "error: %s\n" % message)


def _parse_complex(text):
    try:
        return complex(text.strip().replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ValueError("cannot parse %r as a complex number" % text) from None


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError("cannot parse %r as a comma-separated integer list" % text) from None


def _parse_float_list(text):
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError("cannot parse %r as a comma-separated number list" % text) from None


def _parse_blocks(text):
    blocks = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, tail = chunk.partition(":")
        if not tail:
            raise ValueError(
                "block %r must look like eigenvalue:size,size,..." % chunk
            )
        blocks.append((_parse_complex(head), _parse_int_list(tail)))
    if not blocks:
        raise ValueError("no blocks found in %r" % text)
    return tuple(blocks)


def _tolerance(args):
    rank = args.tol_rank
    if rank is None:
        env = os.environ.get("BIORTHO_TOL_RANK")
        try:
            rank = float(env) if env else DEFAULT_TOL.rank_eps
        except ValueError:
            raise ValueError("BIORTHO_TOL_RANK must be a number, found %r" % env) from None
    return Tolerance(
        rank_eps=rank,
        cluster_eps=args.tol_cluster,
        residual_eps=args.tol_residual,
    )


def _add_tolerance_flags(sub):
    # the help shows each default as 1e-8, not as %g's 1e-08
    rank, cluster, residual = (("%g" % eps).replace("e-0", "e-") for eps in
                               (DEFAULT_TOL.rank_eps, DEFAULT_TOL.cluster_eps, DEFAULT_TOL.residual_eps))
    sub.add_argument("--tol-rank", type=float, default=None,
                     help="relative singular-value cutoff (default %s)" % rank)
    sub.add_argument("--tol-cluster", type=float, default=DEFAULT_TOL.cluster_eps,
                     help="relative eigenvalue grouping radius (default %s)" % cluster)
    sub.add_argument("--tol-residual", type=float, default=DEFAULT_TOL.residual_eps,
                     help="verification residual threshold (default %s)" % residual)


def _family_params(args):
    params = {}
    if args.eigenvalue is not None:
        params["eigenvalue"] = _parse_complex(args.eigenvalue)
    if args.segre is not None:
        params["segre"] = _parse_int_list(args.segre)
    for name in ("a", "b", "ratio", "cond", "start", "stop"):
        value = getattr(args, name)
        if value is not None:
            params[name] = value
    if getattr(args, "t_param", None) is not None:
        params["t"] = args.t_param
    if args.blocks is not None:
        params["blocks"] = _parse_blocks(args.blocks)
    return params


def _add_family_flags(sub):
    sub.add_argument("--lambda", dest="eigenvalue", default=None, metavar="Z",
                     help="jordan: the eigenvalue (complex, e.g. 1+2i)")
    sub.add_argument("--segre", default=None, metavar="LIST",
                     help="jordan: block sizes, e.g. 3,1")
    sub.add_argument("--a", type=float, default=None, help="pt_dimer: gain/loss rate")
    sub.add_argument("--b", type=float, default=None,
                     help="pt_dimer and ep_family: coupling strength")
    sub.add_argument("--ratio", type=float, default=None,
                     help="weighted_shift_trunc: geometric weight ratio")
    sub.add_argument("--cond", type=float, default=None,
                     help="block_jordan: similarity condition number")
    sub.add_argument("--start", type=float, default=None, help="diag: first entry")
    sub.add_argument("--stop", type=float, default=None, help="diag: last entry")
    sub.add_argument("--blocks", default=None, metavar="SPEC",
                     help="block_jordan: e.g. '0:2,1;1+0i:1' for blocks at 0 and 1")
    sub.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def _report_exit_code(document):
    statuses = [c["status"] for c in document.body["conditions"]]
    if document.body["biorthonormal_basis_exists"] and FAIL not in statuses:
        return 0
    return 2


def _analyze_file(path, tol, want_timings):
    t0 = time.perf_counter()
    matrix = read_matrix(path)
    t1 = time.perf_counter()
    diagnosis = check_conditions(matrix, tol)
    t2 = time.perf_counter()
    timings = {"parse": t1 - t0, "diagnose": t2 - t1} if want_timings else None
    return ReportDocument.from_diagnosis(
        diagnosis, tol, matrix_digest(matrix), timings
    )


def _render(document, fmt):
    return document.to_json() if fmt == "json" else document.to_text()


def _cmd_analyze(args):
    tol = _tolerance(args)
    if args.dir is None and args.path is None:
        raise ValueError("analyze needs a file path or --dir")
    if args.dir is not None:
        paths = sorted(
            os.path.join(args.dir, f)
            for f in os.listdir(args.dir)
            if f.endswith(".mtx")
        )
        if not paths:
            raise ValueError("no .mtx files under %s" % args.dir)
        if args.out is not None:
            os.makedirs(args.out, exist_ok=True)
        code = 0
        for path in paths:
            try:
                document = _analyze_file(path, tol, args.timings)
            except (BiorthoError, ValueError, OSError) as exc:
                print("%s: error: %s" % (path, exc), file=sys.stderr)
                code = 1
                continue
            text = _render(document, args.format)
            if args.out is not None:
                stem = os.path.splitext(os.path.basename(path))[0]
                ext = ".json" if args.format == "json" else ".txt"
                with open(os.path.join(args.out, stem + ext), "w") as handle:
                    handle.write(text)
            else:
                sys.stdout.write("== %s ==\n" % path)
                sys.stdout.write(text)
            if code != 1:
                code = max(code, _report_exit_code(document))
        return code
    document = _analyze_file(args.path, tol, args.timings)
    text = _render(document, args.format)
    if args.out is not None:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return _report_exit_code(document)


def _cmd_gallery(args):
    spec = FamilySpec(
        name=args.family,
        size=args.size,
        params=_family_params(args),
        seed=args.seed,
    )
    matrix = generate(spec)
    if args.out is not None:
        write_matrix(matrix, args.out)
    else:
        write_matrix(matrix, sys.stdout)
    return 0


def _study_rows(template, sizes, grid, t_values, tol):
    for t in t_values:
        spec = template
        if t is not None:
            spec = replace(template, params=dict(template.params, t=t))
        study = truncation_study(spec, sizes, grid, tol)
        for metric in study.metrics:
            base = {
                "family": template.name,
                "size": metric.size,
                "t": "" if t is None else repr(t),
                "kappa_v": repr(metric.kappa_v),
                "min_self_orthogonality": repr(metric.min_self_orthogonality),
            }
            for cid in _CONDITION_IDS:
                base[cid] = metric.verdicts[cid]
            if grid:
                for z, smin in zip(grid, metric.sigma_min):
                    row = dict(base)
                    row["probe_re"] = repr(z.real)
                    row["probe_im"] = repr(z.imag)
                    row["sigma_min"] = repr(smin)
                    yield row
            else:
                yield dict(base, probe_re="", probe_im="", sigma_min="")


def _cmd_study(args):
    import csv

    tol = _tolerance(args)
    sizes = _parse_int_list(args.sizes)
    grid = tuple(_parse_complex(z) for z in args.grid.split(",")) if args.grid else ()
    if args.t is not None and args.family != "ep_family":
        raise ValueError("--t sweeps apply only to ep_family")
    t_values = _parse_float_list(args.t) if args.t is not None else (None,)
    template = FamilySpec(
        name=args.family,
        size=max(sizes) if sizes else 1,
        params=_family_params(args),
        seed=args.seed,
    )
    columns = [
        "family", "size", "t", "probe_re", "probe_im", "sigma_min",
        "kappa_v", "min_self_orthogonality", *_CONDITION_IDS,
    ]
    handle = open(args.out, "w", newline="") if args.out is not None else sys.stdout
    try:
        writer = csv.DictWriter(handle, fieldnames=columns)
        writer.writeheader()
        for row in _study_rows(template, sizes, grid, t_values, tol):
            writer.writerow(row)
    finally:
        if args.out is not None:
            handle.close()
    return 0


def _build_parser():
    parser = _Parser(prog="biortho",
                     description="biorthonormal eigensystem diagnostics")
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="diagnose a matrix from a Matrix Market file"
    )
    analyze.add_argument("path", nargs="?", default=None, help="input .mtx file")
    analyze.add_argument("--dir", default=None,
                         help="diagnose every .mtx file in this directory")
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("--out", default=None,
                         help="output file (or directory with --dir)")
    analyze.add_argument("--timings", action="store_true",
                         help="include wall-clock timings in the report")
    _add_tolerance_flags(analyze)
    analyze.set_defaults(func=_cmd_analyze)

    gallery = commands.add_parser(
        "gallery", help="write a gallery matrix as Matrix Market"
    )
    gallery.add_argument("family", choices=FAMILIES)
    gallery.add_argument("--size", type=int, required=True)
    gallery.add_argument("--out", default=None, help="output file (default stdout)")
    gallery.add_argument("--t", dest="t_param", type=float, default=None,
                         help="ep_family: distance from the exceptional point")
    _add_family_flags(gallery)
    gallery.set_defaults(func=_cmd_gallery)

    study = commands.add_parser(
        "study", help="sweep a family over sizes and emit a CSV table"
    )
    study.add_argument("family", choices=FAMILIES)
    study.add_argument("--sizes", required=True, metavar="LIST",
                       help="strictly increasing sizes, e.g. 4,8,16,32")
    study.add_argument("--grid", default=None, metavar="POINTS",
                       help="comma-separated probe points, e.g. 0.5+0i,1+1i")
    study.add_argument("--t", default=None, metavar="LIST",
                       help="ep_family: sweep these t values")
    study.add_argument("--out", default=None, help="output CSV file (default stdout)")
    _add_family_flags(study)
    _add_tolerance_flags(study)
    study.set_defaults(func=_cmd_study)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BiorthoError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
