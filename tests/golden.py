"""The golden record of the output contract: every figure preset's CSVs,
manifest and gnuplot script, and `qshutter evolve` on both shipped configs.

For each file the record holds its SHA-256, its line count and the text of
its first 20 lines (the t -> 0 cells) and of every 100th line, together
with the numpy, scipy and BLAS versions it was made with, since the last
bits of a cell depend on them.  tests/test_golden.py regenerates the outputs
and compares; a change that moves a cell rewrites the record with

    PYTHONPATH=src python tests/golden.py

and lists the moved cells in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from qshutter import cli
from qshutter.presets import PRESETS, run_figure

RECORD = Path(__file__).with_name("golden_outputs.json")
SHIPPED_CONFIGS = ("double_barrier", "triple_barrier")
HEAD_LINES = 20
EVERY = 100


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


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        generate(out_dir)
        record = {"versions": versions(), "files": summarize(out_dir)}
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {RECORD} ({len(record['files'])} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
