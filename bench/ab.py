"""Interleaved A/B timing of two source trees on perfbench's ops.

    python bench/ab.py [REV] [--workload NAME [NAME ...]]
                       [--seeds 1 2 3 5 11] [--ops 166] [--probe]

Side A is the committed tree of the git revision REV (default HEAD),
extracted with `git archive` into a temporary directory that is removed
afterwards; side B is the working tree.  Each side's `src/qshutter` is
imported under its own package name (`qshutter_a`, `qshutter_b`), so both
run in this one process on the same interpreter state.  --workload names
one or more of `structures`, `scenario_sweep` and `density_maps` (default:
all three, in that order), and each is compared in turn.  A workload's ops
are the first --ops of its stream for each --seed, as
perfbench/workloads.py builds and runs them: a `structures` op builds a
profile, finds its N poles, solves their modes and takes T(E_n) at each;
a `scenario_sweep` op parses and resolves a seeded config on one
of five shared structures, evolves its 2000-point trace and writes one CSV
per method into a temporary directory of its own, removed after the op; a
`density_maps` op evaluates a 200 x 2000 map by one psi_exact call per x
on one of three problems prepared per seed and side, with the two-level
trace on half of the ops.  Each side runs the workload's set-up and
warm-up with its own package (workloads.qs and workloads.output point at
the side that runs), then each op runs once on each side, the two sides
one right after the other, with the side that runs first alternating from
op to op.
--probe runs perfbench's machine-speed probe between ops, as a
`perfbench` run does.

For each workload it prints a block with the ratio B/A of the summed op
times, the median and quartiles of the per-op ratios B/A, and the number
of ops whose outputs are identical on both sides; an op that fails on
either side is counted and left out of all three.  An op's output is
compared by a sha256 fingerprint taken after its time: the bytes of each
array, the hex of each float, the fields of each record, and the bytes of
each file a string names (a `scenario_sweep` op's CSVs, read before its
directory is removed), so "identical" means every output bit is the
same.  Where some ops differ, it also prints the largest relative
difference |B - A|/|A| over the entries of their arrays
(largest_relative_difference) and, beside it, the largest |B - A| over an
array divided by that array's largest |A| (largest_scaled_difference), so
a change that moves bits shows how far they moved; the second figure is
not inflated by entries near zero, such as a map's early-time densities.
A ratio below 1 means the working tree is faster.  Interleaving one op
at a time puts both sides under the same machine state, which
`perfbench`'s separate runs cannot.  On a shared 2-core Xeon VM, four A/A runs of `structures` (REV = HEAD with a clean
working tree, the default 830 ops, one of them with --probe) read summed
ratios of 0.987-1.006 and median per-op ratios of 0.996-1.002, and one
of `density_maps` 1.000 and 1.000 (q1-q3 0.93-1.07), where ten
`perfbench` runs of one tree spread by 3-9% of their median between q1
and q3.  Two A/A runs of `scenario_sweep` (the default 830 ops, REV a
`git stash create` snapshot of the working tree) read summed ratios of
1.003 and 1.007 and median per-op ratios of 1.000 and 1.001 (q1-q3
0.97-1.03).

Native thread pools are pinned to one thread before numpy is imported, as
in perfbench/run.py.
"""

import os

# pin native thread pools before numpy is imported; a test that imports this
# file for its functions leaves its own process alone
if __name__ == "__main__":
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    ):
        os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections.abc import Mapping  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# --workload: names of perfbench/workloads.py's make_workloads
WORKLOADS = ("structures", "scenario_sweep", "density_maps")


def load(src: Path, name: str):
    """The package src/qshutter imported under the name `name`."""
    package = src / "qshutter"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def on(workloads, qs, call, *args):
    """call(*args) with perfbench's workload code running on the package qs."""
    workloads.qs = qs
    workloads.output = importlib.import_module(f"{qs.__name__}.output")
    return call(*args)


def fingerprint(out) -> str:
    """The sha256 of an op's output bits: array bytes, float hex, record
    fields by name, a mapping's keys and values (a dict or a read-only view
    alike), and a string naming a file by that file's bytes."""
    digest = hashlib.sha256()

    def walk(value):
        if isinstance(value, np.ndarray):
            digest.update(f"{value.dtype.str}{value.shape}".encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        elif isinstance(value, float):
            digest.update(float(value).hex().encode())
        elif isinstance(value, complex):
            digest.update(f"{value.real.hex()},{value.imag.hex()}".encode())
        elif isinstance(value, str) and os.path.isfile(value):
            # the file's path differs between the sides, its bytes must not
            digest.update(Path(value).read_bytes())
        elif dataclasses.is_dataclass(value):
            digest.update(type(value).__name__.encode())
            for f in dataclasses.fields(value):
                digest.update(f.name.encode())
                walk(getattr(value, f.name))
        elif isinstance(value, Mapping):
            for key, item in value.items():
                walk(key)
                walk(item)
        elif isinstance(value, (list, tuple)):
            digest.update(f"{len(value)}[".encode())
            for item in value:
                walk(item)
        else:
            digest.update(repr(value).encode())

    walk(out)
    return digest.hexdigest()


def arrays(out) -> list:
    """The numpy arrays of an op's output, in the order fingerprint walks them."""
    if isinstance(out, np.ndarray):
        return [out]
    if dataclasses.is_dataclass(out):
        out = [getattr(out, f.name) for f in dataclasses.fields(out)]
    elif isinstance(out, Mapping):
        out = list(out.values())
    return [a for item in out for a in arrays(item)] if isinstance(out, (list, tuple)) else []


def _paired(a, b):
    """[(x, y)] of the arrays of outputs a and b, or None where they do not
    pair up by count and shape."""
    xs, ys = arrays(a), arrays(b)
    if len(xs) != len(ys) or any(x.shape != y.shape for x, y in zip(xs, ys)):
        return None
    return list(zip(xs, ys))


def largest_relative_difference(a, b) -> float:
    """max |y - x| / |x| over the entries x of the arrays of output a and
    the entries y of the matching arrays of output b: 0 where x == y, inf
    where x is 0 and y is not or where the arrays do not pair up by count
    and shape, and 0.0 for outputs that hold no arrays."""
    pairs = _paired(a, b)
    if pairs is None:
        return float("inf")
    worst = 0.0
    for x, y in pairs:
        with np.errstate(divide="ignore", invalid="ignore"):
            moved = np.where(x == y, 0.0, np.abs(y - x) / np.abs(x))
        worst = max(worst, float(np.max(moved, initial=0.0)))
    return worst


def largest_scaled_difference(a, b) -> float:
    """max |y - x| / max |x| over the paired arrays of outputs a and b, each
    array scaled by its own largest |x|: 0 where the arrays are equal, inf
    where all of x is 0 and y is not or where the arrays do not pair up
    (as in largest_relative_difference), and 0.0 for outputs that hold no
    arrays."""
    pairs = _paired(a, b)
    if pairs is None:
        return float("inf")
    worst = 0.0
    for x, y in pairs:
        moved, scale = (float(np.max(np.abs(v), initial=0.0)) for v in (y - x, x))
        if moved:
            worst = max(worst, moved / scale if scale else float("inf"))
    return worst


def timed(workloads, qs, op):
    """(the wall time in seconds of the perfbench op on qs, the fingerprint of
    its output, the output), or None where it raises."""
    start = time.perf_counter()
    try:
        out = on(workloads, qs, op.run)
        seconds = time.perf_counter() - start
        return seconds, fingerprint(out), out
    except qs.QShutterError:
        return None
    finally:
        # an op's temporary directory goes after its time is taken
        if op.cleanup is not None:
            op.cleanup()


def compare(workloads, workload, sides, seeds, n_ops, probe=None):
    """([(A's time, B's time)] of the ops neither side fails, the number
    of those whose outputs are identical, the largest relative and scaled
    differences between the array outputs of the others
    (largest_relative_difference, largest_scaled_difference), the number
    that fail on a side): one op at a time, the side that runs first
    alternating, with probe() before each op when it is given."""
    streams = []
    for qs in sides:
        states = [on(workloads, qs, workload.setup, seed) for seed in seeds]
        # lazy imports, LAPACK set-up and first calls, as a perfbench run per seed
        for state in states:
            on(workloads, qs, workload.warm_up, state)
        streams.append(
            itertools.chain.from_iterable(
                itertools.islice(workload.ops(state), n_ops) for state in states
            )
        )
    times, identical, worst, scaled, failed = [], 0, 0.0, 0.0, 0
    for i, ops in enumerate(zip(*streams)):
        if probe is not None:
            probe()
        order = list(zip(sides, ops))
        if i % 2:
            order.reverse()
        pair = {qs.__name__: timed(workloads, qs, op) for qs, op in order}
        if None in pair.values():
            failed += 1
            continue
        (a, bits_a, out_a), (b, bits_b, out_b) = pair["qshutter_a"], pair["qshutter_b"]
        times.append((a, b))
        if bits_a == bits_b:
            identical += 1
        else:
            worst = max(worst, largest_relative_difference(out_a, out_b))
            scaled = max(scaled, largest_scaled_difference(out_a, out_b))
    return times, identical, worst, scaled, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", nargs="?", default="HEAD")
    parser.add_argument("--workload", choices=WORKLOADS, nargs="+", default=list(WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3, 5, 11])
    parser.add_argument("--ops", type=int, default=166)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    # perfbench's workloads and probe, importing the working tree's package
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads
    from run import probe

    # the tree of rev stays on disk while its package runs, and the
    # scenario ops write their files under work
    with tempfile.TemporaryDirectory() as tree, tempfile.TemporaryDirectory() as work:
        made = workloads.make_workloads(Path(work))
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", args.rev, "src"],
            check=True, capture_output=True,
        ).stdout
        subprocess.run(["tar", "-x", "-C", tree], input=archive, check=True)
        sides = (load(Path(tree) / "src", "qshutter_a"), load(ROOT / "src", "qshutter_b"))
        for name in args.workload:
            times, identical, worst, scaled, failed = compare(
                workloads, made[name], sides, args.seeds, args.ops, probe if args.probe else None
            )
            a, b = np.array(times).T
            q1, median, q3 = np.quantile(b / a, [0.25, 0.5, 0.75])
            print(
                f"A = {args.rev}, B = working tree, {name}: "
                f"{len(times)} ops, {failed} failed on a side"
            )
            print(f"summed: A {a.sum():.4f} s, B {b.sum():.4f} s, B/A {b.sum() / a.sum():.4f}")
            print(f"per-op B/A: median {median:.4f} (q1 {q1:.4f}, q3 {q3:.4f})")
            print(f"outputs identical on {identical} of {len(times)} ops", flush=True)
            if identical < len(times):
                print(
                    f"largest difference over the others' arrays: {worst:.3g} of the entry, "
                    f"{scaled:.3g} of the array's largest entry"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
