#!/usr/bin/env python3
"""Benchmark harness for biortho.

    python3 perfbench/run.py --workload generic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ./src;
nothing is installed.  One caller issues the program's calls one after
another (a closed loop) in whole rounds of the workload's operations
until --seconds have passed, every output is checked (checks.py), and
the last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 reports the per-layer metrics (per round) from a traced run,
plus the tracing overhead against one untraced round of the same run.
Every end-to-end time is scaled by the host's speed, measured with a
calibration kernel between operations (hostspeed.py).

The BLAS thread count is fixed before numpy loads: --blas-threads, by
default 1 (at these sizes a second thread buys little and widens the
run-to-run spread; see README.md).  Results go to perfbench/results/, the span
trace of a traced run too; generated files live under perfbench/_work/
while the run lasts.  Exit status: 0 when every check passed, 1 when a
check failed, 2 on a usage or set-up error (for example when ./src
holds no program).
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5


NPROC = len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description="biortho benchmark harness")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="BLAS threads, at most nproc (default 1)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


class SetupError(Exception):
    pass


def _import_program():
    if not (SRC / "biortho" / "__init__.py").is_file():
        raise SetupError("no program at %s: run from the root of a biortho checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import biortho

    if Path(biortho.__file__).resolve().parent != (SRC / "biortho").resolve():
        raise SetupError("biortho imported from %s, not from %s" % (biortho.__file__, SRC))


class Bench:
    """One workload's inputs, working directory and operations."""

    def __init__(self, workload, workdir, host):
        import numpy as np
        from biortho import Tolerance, generate

        import checks
        import workloads

        self.np = np
        self.host = host
        self.wl = workload
        self.workdir = workdir
        self.files = workdir / "files"
        self.batch = workdir / "batch"
        self.reports = workdir / "reports"
        self.study_dir = workdir / "study"
        for d in (self.files, self.batch, self.reports, self.study_dir):
            d.mkdir(parents=True, exist_ok=True)
        # each batch group has its own directory and runs right after its last item
        self.group_dirs = {}
        self.closes = {}
        for k, group in enumerate(workloads.batch_groups(workload)):
            for item in group:
                self.group_dirs[item.name] = self.batch / ("g%d" % k)
            self.closes[group[-1].name] = (self.batch / ("g%d" % k), group)
        self.tols = {item.name: Tolerance(cluster_eps=item.cluster_eps) for item in workload.items}
        self.expected = {item.name: generate(item.spec) for item in workload.items}
        self.bases = {item.name: checks.expects_basis(item.spec) for item in workload.items}
        self.vectors = {}
        for k, item in enumerate(workload.items):
            rng = np.random.default_rng([item.spec.seed, item.spec.size, k])
            n = item.spec.size
            self.vectors[item.name] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        self.oracle = {}
        self.sizes = {}
        self.ops = []
        self.problems = []
        self.failed = 0
        self.tracer = None
        self.round = 0
        self._warm_up()

    def path(self, item):
        return self.group_dirs.get(item.name, self.files) / (item.name + ".mtx")

    def _warm_up(self):
        """Run every operation once on a tiny input, so lazy imports and first calls are not timed."""
        from biortho import biorthonormalize, check_conditions, cli, expand, read_matrix

        warm = self.workdir / "warm"
        warm.mkdir(exist_ok=True)
        path = warm / "w.mtx"
        cli.main(["gallery", "random_gaussian", "--size=4", "--seed=1", "--out=%s" % path])
        m = read_matrix(path)
        check_conditions(m)
        expand(biorthonormalize(m), self.np.ones(4))
        cli.main(["analyze", "--dir=%s" % warm, "--format=json", "--out=%s" % (warm / "r")])
        cli.main(["study", "shift_trunc", "--sizes=2,3", "--grid=0.5", "--out=%s" % (warm / "s.csv")])

    # ------------------------------------------------------------ one operation

    def _op(self, kind, fn, check, **info):
        """Time fn, record it, then check its result with tracing off."""
        self.host.maybe_measure()
        if self.tracer is not None:
            self.tracer.active = True
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an unexpected error fails this operation only
            self.failed += 1
            print("failed %s %s: %s: %s" % (kind, info, type(exc).__name__, exc), file=sys.stderr)
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.active = False
            self.ops.append(dict(info, kind=kind, seconds=elapsed, start=start, round=self.round))
        for problem in check(result):
            self.problems.append("%s %s: %s" % (kind, info.get("item", ""), problem))
        return result

    def _oracle(self, item, key, compute):
        cache = self.oracle.setdefault(item.name, {})
        if key not in cache:
            cache[key] = compute()
        return cache[key]

    # ------------------------------------------------------------ one round

    def run_round(self):
        """Every item through write, read, diagnose and construct, each batch group, then the studies.

        Each item runs its steps back to back, and each batch group runs
        after its last item, so the short steps are spread over the whole
        round rather than bunched in one stretch.
        """
        self.round += 1
        gc.collect()
        # fresh directories, so a file left by an earlier round cannot pass a check
        for d in (self.files, self.batch, self.reports, self.study_dir):
            shutil.rmtree(d)
            d.mkdir()
        for d, _ in self.closes.values():
            d.mkdir()
        for item in self.wl.items:
            self._item(item)
            if item.name in self.closes:
                self._batch(*self.closes[item.name])
        for study in self.wl.studies:
            self._study(study)

    def _item(self, item):
        from biortho import biorthonormalize, check_conditions, cli, expand, read_matrix, root_space, write_matrix

        import checks
        import workloads

        path = self.path(item)
        self._op("write", lambda: _exit_zero(cli.main(workloads.gallery_argv(item.spec, path))),
                 lambda _: [], item=item.name)
        if not path.exists():
            return
        self.sizes[item.name] = path.stat().st_size

        def check_read(m):
            buf = io.StringIO()
            write_matrix(m, buf)
            return checks.check_file(m, self.expected[item.name], path.read_text(), buf.getvalue())

        m = self._op("read", lambda: read_matrix(path), check_read, item=item.name)
        if m is None or not item.diagnose:
            return
        tol = self.tols[item.name]
        blocks = checks.jordan_blocks(item.spec)

        def check_diag(report):
            if blocks is not None:
                segres = self._oracle(item, "segres", lambda: {
                    i: root_space(m, c, tol).segre for i, c in enumerate(report.spectrum.clusters)})
                return checks.check_defective(report, tol, blocks, segres)
            eigs = self._oracle(item, "eigs", lambda: _scipy_eigvals(m))
            return checks.check_diagonalizable(m, report, tol, eigs, checks.is_normal_family(item.spec))

        report = self._op("diagnose", lambda: check_conditions(m, tol), check_diag,
                          item=item.name, n=item.spec.size)
        if report is None:
            return
        if not self.bases[item.name]:
            def refuse():
                try:
                    return biorthonormalize(m, tol=tol)
                except Exception as exc:  # the refusal is the expected outcome
                    return exc

            self._op("refuse", refuse, checks.check_refused, item=item.name)
            return
        f = self.vectors[item.name]

        def construct():
            system = biorthonormalize(m, tol=tol)
            return system, expand(system, f)

        def check_construct(out):
            system, coeffs = out
            clusters = report.spectrum.clusters
            if any(p.cluster_index >= len(clusters) for p in system.pairs):
                return ["pair tagged with a cluster the diagnosis does not have"]
            values = self.np.array([clusters[p.cluster_index].value for p in system.pairs])
            return checks.check_construction(m, system, values, report.kappa_v, f, coeffs)

        for _ in range(self.wl.construct_repeats):
            self._op("construct", construct, check_construct, item=item.name, n=item.spec.size)

    def _batch(self, directory, items):
        """analyze --dir over one batch group's directory, each report parsed back."""
        from biortho import ReportDocument, cli

        import checks
        import workloads

        argv = ["analyze", "--dir=%s" % directory, "--format=json", "--out=%s" % self.reports]
        if self.wl.cli_cluster_eps != workloads.DEFAULT_CLUSTER_EPS:
            argv.append("--tol-cluster=%r" % self.wl.cli_cluster_eps)

        def batch():
            code = cli.main(argv)
            if code == 1:
                raise RuntimeError("analyze --dir exited 1")
            texts = {item.name: (self.reports / (item.name + ".json")).read_text() for item in items}
            for text in texts.values():
                ReportDocument.from_json(text)
            return code, texts

        def check_batch(out):
            code, texts = out
            problems = []
            want = checks.expected_exit_code([self.bases[i.name] for i in items])
            if code != want:
                problems.append("analyze --dir exited %d, expected %d" % (code, want))
            for item in items:
                problems += checks.check_report(texts[item.name], checks.digest(self.expected[item.name]),
                                                self.bases[item.name])
            return problems

        self._op("batch", batch, check_batch, files=len(items))

    def _study(self, study):
        import csv

        from biortho import FamilySpec, cli, generate

        import checks
        import workloads

        out = self.study_dir / (study.name + ".csv")
        argv = workloads.study_argv(study, out, self.wl.cli_cluster_eps)

        def check_study(_):
            with open(out, newline="") as handle:
                rows = list(csv.DictReader(handle))
            mats = {n: generate(FamilySpec(study.family, n, {}, study.seed)) for n in study.sizes} \
                if study.grid else {}
            return checks.check_study_rows(rows, study, mats)

        self._op("study", lambda: _exit_zero(cli.main(argv)), check_study, study=study.name)


def _exit_zero(code):
    if code != 0:
        raise RuntimeError("exit code %r" % code)
    return code


def _scipy_eigvals(m):
    import scipy.linalg

    return scipy.linalg.eigvals(m)


def end_to_end(ops, setup_s, sizes, rounds):
    """The end-to-end metrics of one run; sizes maps an item to its file size in bytes.

    Every time is an operation's scaled time (hostspeed.py).  Times are
    means over the run, not medians: what host drift the scaling leaves
    moves a mean in proportion, where a median jumps.  diagnose_s and
    construct_s are the geometric mean over items of each item's mean, so
    they stay the time of a typical call rather than the reciprocal of a
    rate.  A median over items flips between two neighbouring items of
    different size from run to run.
    """
    def of(kind):
        return [op for op in ops if op["kind"] == kind]

    def seconds(kind):
        return sum(op["scaled"] for op in of(kind))

    def typical(kind):
        per_item = {}
        for op in of(kind):
            per_item.setdefault(op["item"], []).append(op["scaled"])
        return statistics.geometric_mean(statistics.fmean(v) for v in per_item.values())

    def megabytes(kind):
        return sum(sizes[op["item"]] for op in of(kind)) / 1e6

    return {
        "setup_s": (setup_s, "s"),
        "diagnose_s": (typical("diagnose"), "s"),
        "matrices_per_s": (len(of("diagnose")) / seconds("diagnose"), "1/s"),
        "construct_s": (typical("construct"), "s"),
        "batch_files_per_s": (sum(op["files"] for op in of("batch")) / seconds("batch"), "files/s"),
        "read_mb_per_s": (megabytes("read") / seconds("read"), "MB/s"),
        "write_mb_per_s": (megabytes("write") / seconds("write"), "MB/s"),
        "study_s": (seconds("study") / rounds, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def diagnose_by_size(ops):
    """Median scaled diagnose time per n and the log-log slope over the sizes (a reference figure)."""
    import numpy as np

    sizes = {}
    for op in ops:
        if op["kind"] == "diagnose":
            sizes.setdefault(op["n"], []).append(op["scaled"])
    medians = {n: statistics.median(v) for n, v in sorted(sizes.items())}
    slope = None
    if len(medians) >= 2:
        x = np.log(list(medians))
        y = np.log(list(medians.values()))
        slope = float(np.polyfit(x, y, 1)[0])
    return medians, slope


def _setup_probe_seconds(args, threads, host):
    """Wall time, raw and scaled, of a fresh interpreter that imports, generates and warms up, then exits."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--blas-threads", str(threads), "--setup-probe"]
    host.measure()
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=120)
    end = time.perf_counter()
    host.measure()
    if done.returncode != 0:
        raise SetupError("set-up probe failed: %s" % done.stderr.strip())
    return end - start, (end - start) * host.factor(start, end)


def _environment(threads):
    import numpy as np

    config = np.show_config(mode="dicts") or {}
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "processor": platform.processor(),
        "system": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "blas_threads": threads,
        "cpus": sorted(os.sched_getaffinity(0)),
        "nproc": NPROC,
    }


def run(args):
    threads = args.blas_threads or 1
    if not 1 <= threads <= NPROC:
        raise SetupError("--blas-threads must lie in [1, nproc=%d]" % NPROC)
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    # as many CPUs as BLAS threads: the --dir pool on a second, shared CPU
    # swung batch throughput by 30 % between two sets of runs
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:threads])
    _import_program()
    sys.path.insert(0, str(HERE))
    import hostspeed
    import workloads

    try:
        wl = workloads.build(args.workload, args.seed)
    except ValueError as exc:
        raise SetupError(str(exc)) from None
    workdir = HERE / "_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        host = hostspeed.HostSpeed()
        bench = Bench(wl, workdir, host)
        if args.setup_probe:
            return 0
        for _ in range(3):  # warm the calibration kernel outside the set-up probes
            host.kernel()
        # set-up is an end-to-end metric; a traced run does not report it
        setup = [] if args.trace else [_setup_probe_seconds(args, threads, host) for _ in range(SETUP_PROBES)]

        if args.trace:
            bench.run_round()  # the untraced reference round for trace.overhead_pct
            import tracing

            bench.tracer = tracing.Tracer()
            uninstall = tracing.install(bench.tracer)
        first = len(bench.ops)
        start = time.perf_counter()
        rounds = 0
        while True:
            bench.run_round()
            rounds += 1
            elapsed = time.perf_counter() - start
            # stop at the whole number of rounds nearest to --seconds
            if elapsed + 0.5 * elapsed / rounds >= args.seconds:
                break
        measured = bench.ops[first:]
        if args.trace:
            uninstall()
        host.measure()
        for op in bench.ops:
            op["scaled"] = op["seconds"] * host.factor(op["start"], op["start"] + op["seconds"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    results = HERE / "results"
    results.mkdir(exist_ok=True)
    if args.trace:
        import tracing

        reference = sum(op["scaled"] for op in bench.ops[:first])
        per_round = [sum(op["scaled"] for op in measured if op["round"] == r)
                     for r in sorted({op["round"] for op in measured})]
        overhead = 100.0 * (statistics.median(per_round) - reference) / reference
        metrics = {k: (v, tracing.metric_unit(k)) for k, v in bench.tracer.layer_metrics(rounds).items()}
        metrics["trace.overhead_pct"] = (overhead, "%")
        bench.tracer.dump(results / ("trace-%s-seed%d.json" % (args.workload, args.seed)))
    else:
        metrics = end_to_end(measured, statistics.median(scaled for _, scaled in setup), bench.sizes, rounds)
    by_size, slope = diagnose_by_size(measured)
    by_kind = {}
    for op in measured:
        by_kind[op["kind"]] = by_kind.get(op["kind"], 0.0) + op["seconds"] / rounds
    host_factor = statistics.median(hostspeed.NOMINAL_S / s for s in host.seconds)

    attempted = len(bench.ops)
    out = {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(out, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  rounds=rounds, seconds_per_round_by_kind=by_kind, setup_probes_s=setup,
                  calibrations=list(zip(host.starts, host.seconds)), median_host_factor=host_factor, diagnose_s_by_n=by_size,
                  diagnose_loglog_slope=slope, problems=bench.problems, operations=measured,
                  environment=_environment(threads))
    with open(results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as handle:
        json.dump(detail, handle, indent=1)
    print("workload %s seed %d: %d rounds, blas threads %d, nproc %d"
          % (args.workload, args.seed, rounds, threads, NPROC))
    print("scaled check_conditions s by n: %s; log-log slope %s"
          % (", ".join("%d: %.4f" % kv for kv in by_size.items()), "-" if slope is None else "%.2f" % slope))
    print("raw seconds per round: %s" % ", ".join("%s %.3f" % kv for kv in by_kind.items()))
    print("host factor (median of %d calibrations): %.3f" % (len(host.seconds), host_factor))
    for problem in bench.problems[:20]:
        print("CHECK FAILED: " + problem, file=sys.stderr)
    print(json.dumps(out))
    return 0 if out["correct"] else 1


def main(argv=None):
    args = parse_args(argv)
    try:
        return run(args)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
