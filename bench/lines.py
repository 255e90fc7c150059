"""Lines of each src/qshutter module by kind: code, docstring, comment, blank.

    python bench/lines.py [DIR] [--against REV]

Prints one row per module of DIR (default: this repository's src/qshutter)
and a total row; each row's four kinds sum to the module's `wc -l`.  A line
of a module, class or function docstring counts as docstring, a line that
holds only a comment as comment, an empty line as blank, and every other
line as code, a trailing comment and the lines of any other string
included.

--against REV reads each src/qshutter module of the committed tree of git
revision REV with `git show`, and prints its table, DIR's table and their
difference per module (DIR minus REV; a module on one side only counts as
empty on the other), so a change's code lines show apart from its
docstring and comment edits.  It writes nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KINDS = ("code", "docstring", "comment", "blank")
_DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_lines(text: str) -> set[int]:
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, _DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(text: str) -> dict[str, int]:
    """The number of lines of each kind in the Python source text."""
    docstring = _docstring_lines(text)
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(text.splitlines(), start=1):
        if n in docstring:
            kind = "docstring"
        elif n in comment and n not in code:
            kind = "comment"
        elif n in code or line.strip():
            kind = "code"  # a line holding only a backslash continues code
        else:
            kind = "blank"
        counts[kind] += 1
    return counts


def table(sources: dict[str, str]) -> dict[str, dict[str, int]]:
    """Module name -> its counts, in name order, then a `total` row."""
    rows = {name: count(text) for name, text in sorted(sources.items())}
    rows["total"] = {k: sum(c[k] for c in rows.values()) for k in KINDS}
    return rows


def difference(before: dict, after: dict) -> dict[str, dict[str, int]]:
    """after - before for each row of either table, by kind; a module on
    one side only counts as empty on the other."""
    empty = dict.fromkeys(KINDS, 0)
    names = sorted((before.keys() | after.keys()) - {"total"}) + ["total"]
    return {
        name: {k: after.get(name, empty)[k] - before.get(name, empty)[k] for k in KINDS}
        for name in names
    }


def render(rows: dict, signed: bool = False) -> str:
    """A table's rows under a header, with a row total; signed marks gains with +."""
    width = max(len(name) for name in rows)
    lines = [f"{'module':<{width}}" + "".join(f"{k:>11}" for k in (*KINDS, "total"))]
    for name, c in rows.items():
        cells = [c[k] for k in KINDS] + [sum(c.values())]
        spec = [">+11" if signed and v else ">11" for v in cells]
        lines.append(f"{name:<{width}}" + "".join(map(format, cells, spec)))
    return "\n".join(lines)


def compare(old: dict[str, str], new: dict[str, str]) -> str:
    """The before, after and difference tables of two sets of module sources."""
    before, after = table(old), table(new)
    return "\n\n".join((
        "before\n" + render(before),
        "after\n" + render(after),
        "difference\n" + render(difference(before, after), signed=True),
    ))


def sources_at(rev: str) -> dict[str, str]:
    """Each src/qshutter/*.py of the committed tree of rev, by file name."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, check=True, text=True
        ).stdout

    names = git("ls-tree", "--name-only", f"{rev}:src/qshutter").split()
    return {n: git("show", f"{rev}:src/qshutter/{n}") for n in names if n.endswith(".py")}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count module lines by kind.")
    parser.add_argument("dir", nargs="?", type=Path, default=ROOT / "src" / "qshutter")
    parser.add_argument("--against", metavar="REV", help="compare REV's src/qshutter with DIR")
    args = parser.parse_args(argv)
    sources = {path.name: path.read_text() for path in args.dir.glob("*.py")}
    if not sources:
        print(f"no *.py files in {args.dir}", file=sys.stderr)
        return 1
    if not args.against:
        print(render(table(sources)))
        return 0
    try:
        print(compare(sources_at(args.against), sources))
    except subprocess.CalledProcessError as err:
        print(err.stderr, end="", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
