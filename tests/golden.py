"""The golden record of the output contract: every figure preset's CSVs,
manifest and gnuplot script, and `qshutter evolve` on both shipped configs,
and the bits of the pole search.

For each file the record holds its SHA-256, its line count and the text of
its first 20 lines (the t -> 0 cells) and of every 100th line, together
with the numpy, scipy and BLAS versions it was made with, since the last
bits of a cell depend on them.  For each profile of POLE_PROFILES it holds,
as float.hex, every pole's k, every mode's u0, uL and two residuals and
T(E_n) at every pole, and for one failing Newton seed the error's type and
text.  It also holds the lines `qshutter selftest` prints, with criterion
1's measured runtime masked.  tests/test_golden.py regenerates the
outputs and compares; a change that moves a cell or a bit rewrites the
record with

    PYTHONPATH=src python tests/golden.py

and lists the moved cells and bits in CHANGES.md, which

    PYTHONPATH=src python tests/golden.py --against REV

counts: this file's generate, pole_record and selftest_lines run on the
package of the committed tree of git revision REV and on the working
tree's, each in a child process with its own PYTHONPATH; it then prints
per file (the selftest's lines are one more file) the numeric
cells moved, the worst relative and absolute move and the first moved
lines, then the pole and mode entries moved as compare_poles names them,
and writes nothing.  It exits 0 when nothing moved and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from qshutter import (
    PoleConvergenceError,
    build_profile,
    cli,
    find_poles,
    solve_mode,
    transmission,
)
from qshutter.poles import refine_pole
from qshutter.presets import DOUBLE_LAYERS, MASS_RATIO, PRESETS, TRIPLE_LAYERS, run_figure

RECORD = Path(__file__).with_name("golden_outputs.json")
SHIPPED_CONFIGS = ("double_barrier", "triple_barrier")
HEAD_LINES = 20
EVERY = 100
# (layers, N): both shipped structures and 16 fixed profiles in the ranges of
# perfbench's `structures` workload (2-4 barriers of 1-12 nm by 0.10-0.35 eV,
# wells of 3-16 nm), four of them with 7 layers
POLE_PROFILES = {
    "triple": (TRIPLE_LAYERS, 4),
    "double": (DOUBLE_LAYERS, 2),
    "s01": (((1.09, 0.196), (4.07, 0.0), (6.48, 0.212)), 2),
    "s02": (((4.28, 0.255), (10.29, 0.0), (1.99, 0.102), (7.97, 0.0), (10.87, 0.107)), 3),
    "s03": (((11.58, 0.286), (12.41, 0.0), (3.02, 0.247), (12.31, 0.0), (11.0, 0.11),
             (4.32, 0.0), (11.67, 0.299)), 4),
    "s04": (((2.48, 0.262), (14.99, 0.0), (3.3, 0.282)), 1),
    "s05": (((3.03, 0.281), (4.82, 0.0), (11.91, 0.112), (7.65, 0.0), (8.05, 0.255)), 1),
    "s06": (((2.09, 0.176), (5.86, 0.0), (9.11, 0.185), (11.89, 0.0), (11.7, 0.273),
             (7.6, 0.0), (8.63, 0.322)), 1),
    "s07": (((6.18, 0.244), (6.71, 0.0), (8.37, 0.151)), 2),
    "s08": (((11.41, 0.284), (5.13, 0.0), (2.72, 0.322), (11.37, 0.0), (2.14, 0.314)), 3),
    "s09": (((7.25, 0.203), (13.64, 0.0), (6.67, 0.287), (7.12, 0.0), (1.27, 0.155),
             (11.77, 0.0), (6.44, 0.272)), 4),
    "s10": (((8.41, 0.193), (6.37, 0.0), (8.49, 0.262)), 2),
    "s11": (((1.14, 0.249), (6.75, 0.0), (11.55, 0.137), (9.76, 0.0), (4.95, 0.237)), 3),
    "s12": (((9.77, 0.164), (10.56, 0.0), (8.86, 0.267), (15.41, 0.0), (7.44, 0.27),
             (3.21, 0.0), (2.63, 0.154)), 3),
    "s13": (((5.11, 0.154), (10.62, 0.0), (2.7, 0.234)), 1),
    "s14": (((10.36, 0.106), (3.42, 0.0), (6.69, 0.128), (9.71, 0.0), (1.98, 0.301)), 1),
    "s15": (((9.7, 0.2), (5.67, 0.0), (4.46, 0.306), (5.51, 0.0), (11.44, 0.25),
             (15.22, 0.0), (2.4, 0.118)), 4),
    "s16": (((2.74, 0.132), (15.49, 0.0), (10.95, 0.2), (10.98, 0.0), (2.47, 0.335),
             (3.37, 0.0), (8.99, 0.218)), 1),
}
# a seed on the triple barrier whose first Newton step trips the overflow guard
GUARD_SEED = 0.150123534489 - 0.001646011879j
# criterion 1's measured pole-search runtime, the one selftest number that
# is not a function of the inputs
RUNTIME = re.compile(r"(pole search runtime \(s\): .*, measured ).*")
# the cells of a line: its comma- or blank-separated tokens
CELL = re.compile(r"[,\s]+")


def generate(out_dir: Path) -> dict:
    """Write every preset into out_dir/<preset> and the evolve traces of the
    shipped configs into out_dir/evolve; return the FigureResults by preset."""
    results = {pid: run_figure(pid, out_dir / pid) for pid in sorted(PRESETS)}
    for name in SHIPPED_CONFIGS:
        if cli.main(["evolve", "--config", name, "--out", str(out_dir / "evolve")]) != 0:
            raise RuntimeError(f"qshutter evolve --config {name} failed")
    return results


def versions() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
    }


def summarize(out_dir: Path) -> dict:
    """{relative path: {sha256, lines, sampled}} for every file under out_dir;
    sampled maps 1-based line numbers to their text."""
    files = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        lines = data.decode().splitlines()
        sampled = {
            str(n): lines[n - 1]
            for n in range(1, len(lines) + 1)
            if n <= HEAD_LINES or n % EVERY == 0
        }
        files[path.relative_to(out_dir).as_posix()] = {
            "sha256": hashlib.sha256(data).hexdigest(),
            "lines": len(lines),
            "sampled": sampled,
        }
    return files


def selftest_lines(stdout: str) -> list[str]:
    """The lines `qshutter selftest` printed, with the runtime masked."""
    return [RUNTIME.sub(r"\1*", line) for line in stdout.splitlines()]


def selftest_stdout() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["selftest"])
    return out.getvalue()


def compare(record: dict, files: dict) -> list[str]:
    """One message per difference: a missing or extra file, or a file whose
    bytes moved, with its line count and every sampled line that moved."""
    expected = record["files"]
    problems = [f"{name}: not generated" for name in expected if name not in files]
    problems += [f"{name}: not in the record" for name in files if name not in expected]
    for name in sorted(set(expected) & set(files)):
        want, got = expected[name], files[name]
        if want["sha256"] == got["sha256"]:
            continue
        moved = [f"{name}: bytes moved (sha256)"]
        if want["lines"] != got["lines"]:
            moved.append(f"  line count {want['lines']} -> {got['lines']}")
        for n, text in want["sampled"].items():
            now = got["sampled"].get(n)
            if now != text:
                moved.append(f"  line {n}: {text!r} -> {now!r}")
        problems.append("\n".join(moved))
    return problems


def _hex(z) -> str:
    """A complex number as the float.hex of its real and imaginary parts."""
    z = complex(z)
    return f"{z.real.hex()},{z.imag.hex()}"


def pole_record() -> dict:
    """{profile: {field: [value, ...]}} of the pole search on POLE_PROFILES,
    every number as float.hex, and {"guard_seed": {"error": [type, text]}}."""
    record = {}
    for name, (layers, N) in POLE_PROFILES.items():
        profile = build_profile(list(layers), MASS_RATIO)
        poles = find_poles(profile, N)
        modes = [solve_mode(profile, p) for p in poles]
        record[name] = {
            "k": [_hex(p.k) for p in poles],
            "u0": [_hex(m.u0) for m in modes],
            "uL": [_hex(m.uL) for m in modes],
            "outgoing_residual": [float(m.outgoing_residual).hex() for m in modes],
            "normalization_residual": [float(m.normalization_residual).hex() for m in modes],
            "T": [transmission(profile, p.E_position)[1].hex() for p in poles],
        }
    triple = build_profile(list(TRIPLE_LAYERS), MASS_RATIO)
    try:
        refine_pole(triple, GUARD_SEED)
    except PoleConvergenceError as err:
        record["guard_seed"] = {"error": [type(err).__name__, str(err)]}
    else:
        record["guard_seed"] = {"error": []}
    return record


def compare_poles(record: dict, current: dict) -> list[str]:
    """One message per difference: a missing or extra profile or field, or
    an entry whose value moved, named as profile: field[index]."""
    problems = [f"{name}: not generated" for name in record if name not in current]
    problems += [f"{name}: not in the record" for name in current if name not in record]
    for name in [n for n in record if n in current]:
        want, got = record[name], current[name]
        for field in sorted(set(want) | set(got)):
            old, new = want.get(field), got.get(field)
            if old is None or new is None or len(old) != len(new):
                problems.append(f"{name}: {field} is {old} in the record, {new} now")
                continue
            problems += [
                f"{name}: {field}[{i}] moved: {a} -> {b}"
                for i, (a, b) in enumerate(zip(old, new))
                if a != b
            ]
    return problems


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def diff_trees(old: Path, new: Path) -> tuple[list[str], int]:
    """(report, files that differ) between two trees of output files.

    A numeric cell is one that float() reads.  Per file that differs the
    report gives the numeric cells moved, the worst relative and absolute
    move, the other cells moved and the first three moved lines; its last
    line counts the numeric cells of the old tree and the cells moved.
    """
    names = sorted(
        {p.relative_to(d).as_posix() for d in (old, new) for p in d.rglob("*") if p.is_file()}
    )
    report, cells, moved, differ = [], 0, 0, 0
    for name in names:
        if not ((old / name).is_file() and (new / name).is_file()):
            report.append(f"{name}: only in the {'old' if (old / name).is_file() else 'new'} tree")
            differ += 1
            continue
        a, b = ((d / name).read_text().splitlines() for d in (old, new))
        n_moved, other, worst_rel, worst_abs, lines = 0, 0, 0.0, 0.0, []
        for n, (x, y) in enumerate(itertools.zip_longest(a, b, fillvalue=""), 1):
            xs = CELL.split(x)
            cells += sum(_number(c) is not None for c in xs)
            if x == y:
                continue
            lines.append(f"  line {n}: {x!r} -> {y!r}")
            for was, now in itertools.zip_longest(xs, CELL.split(y), fillvalue=""):
                if was == now:
                    continue
                u, v = _number(was), _number(now)
                if u is None or v is None:
                    other += 1
                    continue
                n_moved += 1
                worst_abs = max(worst_abs, abs(v - u))
                worst_rel = max(worst_rel, abs(v - u) / abs(u) if u else math.inf)
        if lines:
            differ += 1
            moved += n_moved
            report.append(
                f"{name}: {n_moved} numeric cells moved (worst rel {worst_rel:.3g}, "
                f"abs {worst_abs:.3g}), {other} other cells moved"
            )
            report += lines[:3]
    report.append(
        f"outputs: {moved} of {cells} numeric cells moved, {differ} of {len(names)} files differ"
    )
    return report, differ


def emit(out_dir: Path) -> None:
    """This tree's outputs and selftest lines under out_dir/files, and its
    pole record in out_dir/poles.json."""
    generate(out_dir / "files")
    lines = selftest_lines(selftest_stdout())
    (out_dir / "files" / "selftest.txt").write_text("\n".join(lines) + "\n")
    (out_dir / "poles.json").write_text(json.dumps(pole_record()))


def against(rev: str) -> int:
    """Print what moved from the committed tree of rev to the working tree."""
    root = Path(__file__).resolve().parent.parent
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(
            ["git", "-C", str(root), "archive", rev, "src"], capture_output=True, check=True
        ).stdout
        (tmp / "rev").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "rev")], input=archive, check=True)
        for side, src in (("old", tmp / "rev" / "src"), ("new", root / "src")):
            run = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--emit", str(tmp / side)],
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
            )
            if run.returncode:
                raise RuntimeError(f"generating the {side} tree failed:\n{run.stderr}")
        report, differ = diff_trees(tmp / "old" / "files", tmp / "new" / "files")
        old, new = (json.loads((tmp / side / "poles.json").read_text()) for side in ("old", "new"))
    poles = compare_poles(old, new)
    entries = sum(len(values) for fields in old.values() for values in fields.values())
    print("\n".join(report))
    print("\n".join([f"poles: {len(poles)} of {entries} entries moved", *poles[:10]]))
    return int(bool(differ or poles))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write the golden record, or count moves.")
    parser.add_argument("--against", metavar="REV", help="count what moved since REV")
    parser.add_argument("--emit", metavar="DIR", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if args.against:
        return against(args.against)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        generate(out_dir)
        record = {
            "versions": versions(),
            "files": summarize(out_dir),
            "poles": pole_record(),
            "selftest": selftest_lines(selftest_stdout()),
        }
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD} ({len(record['files'])} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
