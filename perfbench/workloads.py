"""The benchmark's workloads, built from a seed.

Every workload drives the same pipeline each round (see run.py): the
program's ``gallery`` command writes each input file, ``read_matrix``
reads it back, ``check_conditions`` diagnoses it, ``biorthonormalize``
plus ``expand`` construct and use the system, ``analyze --dir`` runs
over the batch subset, and ``study`` sweeps a family.  The workloads
differ in their inputs, and so in which layer carries the load:

generic    complex Gaussian and random normal matrices, n = 32..64;
           per-cluster kernel SVDs and height-1 root staircases.
defective  Jordan structure recovered from block_jordan similarities,
           exact deep Jordan matrices and truncated shifts; root
           staircases up to height n and the FAIL paths.
cli_files  about twenty small files of mixed families, two dense files
           at n = 384 and 512, the batch pool and truncation studies;
           Matrix Market I/O, report rendering and the CLI.

The program receives only the matrices and files generated here from
the seed.  Expected verdicts come from the family spec, never from the
program (see checks.py).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from biortho import FamilySpec

WORKLOADS = ("generic", "defective", "cli_files")

# block_jordan inputs need a wide grouping radius: a similarity scatters a
# size-s block's eigenvalues like eps**(1/s), far beyond the default 1e-8
WIDE_CLUSTER_EPS = 1e-2
DEFAULT_CLUSTER_EPS = 1e-8

# Segre patterns cycled through for the mixed block_jordan members
_MIXED_PATTERN = ((2, 1), (1,), (3,), (1, 1))

# the exact deep Jordan member, n = 128; it takes no seed, so its time is
# the same on every seed
_DEEP_SEGRE = (64, 32, 16, 8, 4, 2, 1, 1)


@dataclass(frozen=True)
class Item:
    """One input matrix: its spec, the tolerance it is diagnosed at, and its role.

    diagnose: the item is diagnosed in process and, when it has a
    basis, constructed.  batch: its file goes into the directory that
    ``analyze --dir`` runs over.
    """

    name: str
    spec: FamilySpec
    cluster_eps: float = DEFAULT_CLUSTER_EPS
    diagnose: bool = True
    batch: bool = False


@dataclass(frozen=True)
class Study:
    """One ``biortho study`` invocation."""

    name: str
    family: str
    sizes: tuple
    grid: tuple = ()
    t_values: tuple = ()
    seed: int = 0


@dataclass(frozen=True)
class Workload:
    """Items, studies, and the ``--tol-cluster`` that analyze and study run at.

    construct_repeats: how many times each item with a basis is
    constructed per round.  Where constructions take a few
    milliseconds, one per round gives too few samples for a steady mean.
    batch_groups: into how many directories the batch items are split,
    in item order; ``analyze --dir`` runs over each right after its last
    item, so that the batch samples the host at more than one point of
    the round.
    """

    name: str
    items: tuple
    studies: tuple
    cli_cluster_eps: float = DEFAULT_CLUSTER_EPS
    construct_repeats: int = 1
    batch_groups: int = 1


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _log_uniform(rng, lo, hi):
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _generic(seed):
    rng = np.random.default_rng([seed, 1])
    sizes = (32, 40, 48, 56, 64)
    normal_sizes = (48, 64)
    seeds = _seeds(rng, len(sizes) + len(normal_sizes) + 1)
    items = [
        Item("gauss%d" % n, FamilySpec("random_gaussian", n, {}, s), batch=(n <= 48))
        for n, s in zip(sizes, seeds)
    ]
    items += [
        Item("normal%d" % n, FamilySpec("random_normal", n, {}, s))
        for n, s in zip(normal_sizes, seeds[len(sizes):])
    ]
    studies = (Study("gauss_sizes", "random_gaussian", (8, 16, 24, 32, 40, 48), (0.5 + 0j, 1 + 1j), (), seeds[-1]),)
    return Workload("generic", tuple(items), studies)


def mixed_blocks(count, pattern=_MIXED_PATTERN):
    """Blocks at eigenvalues 0, 1, 2, ... cycling through pattern."""
    return tuple((float(k), pattern[k % len(pattern)]) for k in range(count))


def _defective(seed):
    rng = np.random.default_rng([seed, 2])
    seeds = _seeds(rng, 4)
    conds = [_log_uniform(rng, 10.0, 100.0) for _ in range(4)]
    mixed = mixed_blocks(28)  # 7 cycles of (2,1), (1), (3), (1,1): n = 63
    semisimple = tuple((float(k), (1, 1)) for k in range(24))
    triples = tuple((float(k), (1, 1, 1)) for k in range(12))
    items = (
        Item("bj_mixed_a", FamilySpec("block_jordan", 63, {"blocks": mixed, "cond": conds[0]}, seeds[0]), WIDE_CLUSTER_EPS),
        Item("bj_mixed_b", FamilySpec("block_jordan", 63, {"blocks": mixed, "cond": conds[1]}, seeds[1]), WIDE_CLUSTER_EPS),
        Item("bj_semisimple", FamilySpec("block_jordan", 48, {"blocks": semisimple, "cond": conds[2]}, seeds[2]), WIDE_CLUSTER_EPS, batch=True),
        Item("bj_semisimple3", FamilySpec("block_jordan", 36, {"blocks": triples, "cond": conds[3]}, seeds[3]), WIDE_CLUSTER_EPS, batch=True),
        Item("jordan_deep", FamilySpec("jordan", 128, {"eigenvalue": 0j, "segre": _DEEP_SEGRE})),
        Item("shift96", FamilySpec("shift_trunc", 96), batch=True),
        Item("shift112", FamilySpec("shift_trunc", 112), batch=True),
    )
    studies = (Study("shift_sizes", "shift_trunc", (16, 32, 48, 64, 80, 96), (0.5 + 0j,)),)
    return Workload("defective", items, studies, cli_cluster_eps=WIDE_CLUSTER_EPS,
                    construct_repeats=8, batch_groups=2)


def _cli_files(seed):
    rng = np.random.default_rng([seed, 3])
    seeds = _seeds(rng, 12)
    # the costly n = 24 and 32 Gaussians fall in the first batch group, the
    # normal ones in the second, so that the two groups take similar time
    small = [
        FamilySpec("random_gaussian", 8, {}, seeds[0]),
        FamilySpec("random_gaussian", 16, {}, seeds[1]),
        FamilySpec("random_gaussian", 24, {}, seeds[2]),
        FamilySpec("random_normal", 8, {}, seeds[4]),
        FamilySpec("diag", 12, {"start": -1.0, "stop": 1.0}),
        FamilySpec("pt_dimer", 2, {"a": 0.6, "b": 1.0}),
        FamilySpec("jordan", 4, {"eigenvalue": 0j, "segre": (2, 1, 1)}),
        FamilySpec("random_gaussian", 32, {}, seeds[3]),
        FamilySpec("ep_family", 2, {"t": 0.5}),
        FamilySpec("shift_trunc", 8),
        FamilySpec("random_normal", 16, {}, seeds[5]),
        FamilySpec("random_normal", 24, {}, seeds[6]),
        FamilySpec("pt_dimer", 2, {"a": 1.4, "b": 1.0}),
        FamilySpec("jordan", 6, {"eigenvalue": 1 + 1j, "segre": (3, 3)}),
        FamilySpec("jordan", 16, {"eigenvalue": 0j, "segre": (16,)}),
        FamilySpec("shift_trunc", 16),
        FamilySpec("random_normal", 32, {}, seeds[7]),
        FamilySpec("shift_trunc", 32),
        FamilySpec("weighted_shift_trunc", 6, {"ratio": 0.5}),
        FamilySpec("block_jordan", 8, {"blocks": tuple((float(k), (1, 1)) for k in range(4)), "cond": 10.0}, seeds[8]),
    ]
    small_items = [
        Item("%02d_%s%d" % (i, spec.name, spec.size), spec, batch=True)
        for i, spec in enumerate(small)
    ]
    large = [
        Item("large%d" % n, FamilySpec("random_gaussian", n, {}, s), diagnose=False)
        for n, s in ((384, seeds[9]), (512, seeds[10]))
    ]
    # each large file after a third of the small ones, so that the small
    # files' diagnoses sample the whole round rather than one stretch of it
    items = small_items[:7] + large[:1] + small_items[7:14] + large[1:] + small_items[14:]
    t_values = tuple(sorted((_log_uniform(rng, 1e-3, 1.0) for _ in range(5)), reverse=True))
    studies = (
        Study("ep_t", "ep_family", (2,), (), t_values),
        Study("shift_sizes", "shift_trunc", (16, 32, 48, 64, 96, 112), (0.5 + 0j, 0.9 + 0j)),
    )
    return Workload("cli_files", tuple(items), studies, construct_repeats=3, batch_groups=2)


def batch_groups(workload):
    """The batch items split, in order, into workload.batch_groups runs of near-equal length."""
    items = [item for item in workload.items if item.batch]
    count = min(workload.batch_groups, len(items))
    bounds = [round(k * len(items) / count) for k in range(count + 1)]
    return [tuple(items[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def build(name, seed):
    """The workload called name, with every input drawn from seed."""
    builders = {"generic": _generic, "defective": _defective, "cli_files": _cli_files}
    if name not in builders:
        raise ValueError("unknown workload %r; choose one of %s" % (name, ", ".join(WORKLOADS)))
    return builders[name](int(seed))


def _fmt_complex(z):
    z = complex(z)
    if z.imag == 0.0:
        return repr(z.real)
    return "%r%s%ri" % (z.real, "-" if z.imag < 0 else "+", abs(z.imag))


def _family_flags(params):
    flags = []
    for key, value in params.items():
        if key == "eigenvalue":
            flags.append("--lambda=" + _fmt_complex(value))
        elif key == "segre":
            flags.append("--segre=" + ",".join(str(s) for s in value))
        elif key == "blocks":
            flags.append("--blocks=" + ";".join(
                "%s:%s" % (_fmt_complex(lam), ",".join(str(s) for s in segre))
                for lam, segre in value
            ))
        elif key == "t":
            flags.append("--t=%r" % float(value))
        else:
            flags.append("--%s=%r" % (key, float(value)))
    return flags


def gallery_argv(spec, path):
    """The ``biortho gallery`` command line that writes spec to path."""
    return [
        "gallery", spec.name, "--size=%d" % spec.size, "--seed=%d" % spec.seed,
        *_family_flags(spec.params), "--out=" + str(path),
    ]


def study_argv(study, path, cluster_eps):
    argv = ["study", study.family, "--sizes=" + ",".join(str(s) for s in study.sizes),
            "--seed=%d" % study.seed, "--tol-cluster=%r" % cluster_eps, "--out=" + str(path)]
    if study.grid:
        argv.append("--grid=" + ",".join(_fmt_complex(z) for z in study.grid))
    if study.t_values:
        argv.append("--t=" + ",".join(repr(t) for t in study.t_values))
    return argv
