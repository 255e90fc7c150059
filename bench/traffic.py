"""Which statements of src/qshutter each caller runs, traced line by line.

    python bench/traffic.py

Runs each caller below in this process under sys.settrace, with line
events taken only in the package's own files, from emptied spectrum, grid
and time-cell memos (as in a fresh process):

- the three `perfbench` workloads (the benchmark callers): each one's
  set-up, warm-up and first ops of seed 1, 40 `structures`, 63
  `scenario_sweep` and 9 `density_maps` ops;
- the five figure presets in one run (`run_figure`), as the golden record
  runs them;
- `qshutter selftest`;
- `qshutter poles`, `transmission` (1-200 meV) and `evolve` on both
  shipped configs;
- the scripts in demos/.

A statement is one inside a function body (module and class bodies run on
import, for every caller alike; docstrings run no code), and a caller runs
it when a line of its head is traced: every line of a simple statement,
the lines of a compound one before its body.  Per module it prints the
statements no caller runs, then those that only callers outside the
benchmark run, each with those callers.  It writes nothing outside a
temporary directory, which it removes.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# the first ops of each perfbench stream that are traced
STREAM_OPS = {"structures": 40, "scenario_sweep": 63, "density_maps": 9}
# the perfbench stream seed of those ops
SEED = 1
SHIPPED_CONFIGS = ("double_barrier", "triple_barrier")


def statements(text: str) -> dict[int, tuple[range, str]]:
    """First line -> (head lines, label) of each statement in a function body
    of the Python source text; the label is `qualname: first line`."""
    source, found = text.splitlines(), {}
    owners = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def add(node: ast.stmt, scope: str):
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(body[0].lineno - 1, node.lineno) if body else node.end_lineno
        found[first] = (range(first, last + 1), f"{scope}: {source[node.lineno - 1].strip()}")

    def visit(node, scope: str, in_function: bool):
        for field in ("body", "orelse", "finalbody", "handlers", "cases"):
            for child in getattr(node, field, []):
                # a docstring and a global statement run no code
                skip = isinstance(child, (ast.Global, ast.Nonlocal)) or (
                    isinstance(node, owners) and child is node.body[0]
                    and ast.get_docstring(node, clean=False) is not None
                )
                if in_function and isinstance(child, ast.stmt) and not skip:
                    add(child, scope)
                if isinstance(child, owners):
                    name = f"{scope}.{child.name}" if scope else child.name
                    visit(child, name, not isinstance(child, ast.ClassDef))
                else:
                    visit(child, scope, in_function)

    visit(ast.parse(text), "", False)
    return found


def ran(heads: dict[int, tuple[range, str]], lines: set[int]) -> set[int]:
    """The first lines of the statements one of whose head lines is in lines."""
    return {first for first, (head, _) in heads.items() if any(n in lines for n in head)}


def report(
    labels: dict[str, dict[int, str]], runs: dict[str, dict[str, set[int]]], benchmark: set[str]
) -> str:
    """Per module of labels (module -> first line -> label), the statements
    no caller of runs (caller -> module -> first lines run) ran, and those
    that only callers outside benchmark ran, each with its callers."""
    out = []
    for module, found in sorted(labels.items()):
        callers = {
            first: [c for c, r in runs.items() if first in r.get(module, ())]
            for first in sorted(found)
        }
        never = [first for first, names in callers.items() if not names]
        outside = [
            first for first, names in callers.items() if names and not benchmark.intersection(names)
        ]
        out.append(f"{module}: {len(found)} statements, {len(never)} run by no caller, "
                   f"{len(outside)} only outside the benchmark")
        out += [f"  never    {first:>4} {found[first]}" for first in never]
        out += [
            f"  outside  {first:>4} {found[first]}  [{', '.join(callers[first])}]"
            for first in outside
        ]
    return "\n".join(out)


def _trace(package: str, run) -> dict[str, set[int]]:
    """Module file name -> the lines of the package's files that run() traced."""
    seen: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(os.path.basename(frame.f_code.co_filename), set()).add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return seen


def _callers(work_dir: Path) -> dict:
    """Caller name -> run(); the benchmark callers first."""
    from qshutter import cli
    from qshutter.presets import PRESETS, run_figure

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    streams = workloads.make_workloads(work_dir)

    def stream(name):
        workload = streams[name]
        state = workload.setup(SEED)
        workload.warm_up(state)
        ops = workload.ops(state)
        for _ in range(STREAM_OPS[name]):
            op = next(ops)
            op.run()
            if op.cleanup is not None:
                op.cleanup()

    def demo(script):
        out = work_dir / script.stem
        out.mkdir()
        argv, cwd = sys.argv, os.getcwd()
        sys.argv = [str(script), str(out)]
        os.chdir(out)
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = argv
            os.chdir(cwd)

    runs = {name: (lambda n=name: stream(n)) for name in STREAM_OPS}
    runs["presets"] = lambda: [run_figure(name, work_dir / name) for name in sorted(PRESETS)]
    runs["selftest"] = lambda: cli.main(["selftest"])
    for config in SHIPPED_CONFIGS:
        runs[f"poles {config}"] = lambda c=config: cli.main(["poles", "--config", c])
        runs[f"transmission {config}"] = lambda c=config: cli.main(
            ["transmission", "--config", c, "--from", "1", "--to", "200"]
        )
        runs[f"evolve {config}"] = lambda c=config: cli.main(
            ["evolve", "--config", c, "--out", str(work_dir / "evolve")]
        )
    for script in sorted((ROOT / "demos").glob("*.py")):
        runs[f"demo {script.stem}"] = lambda s=script: demo(s)
    return runs


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import qshutter
    from qshutter import make_spectrum, output, psi_exact

    package = os.path.dirname(qshutter.__file__) + os.sep
    labels, heads = {}, {}
    for path in sorted(Path(package).glob("*.py")):
        heads[path.name] = statements(path.read_text())
        labels[path.name] = {first: label for first, (_, label) in heads[path.name].items()}
    runs, sink = {}, io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in _callers(Path(tmp)).items():
            make_spectrum.cache_clear()
            psi_exact.cache_clear()
            output._time_cells.cache_clear()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                seen = _trace(package, run)
            runs[name] = {m: ran(heads[m], lines) for m, lines in seen.items() if m in heads}
    print(f"callers: {', '.join(runs)}; benchmark: {', '.join(STREAM_OPS)}\n")
    print(report(labels, runs, set(STREAM_OPS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
