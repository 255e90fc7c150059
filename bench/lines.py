"""Lines of each src/qshutter module by kind: code, docstring, comment, blank.

    python bench/lines.py [DIR]

Prints one row per module of DIR (default: this repository's src/qshutter)
and a total row; each row's four kinds sum to the module's `wc -l`.  A line
of a module, class or function docstring counts as docstring, a line that
holds only a comment as comment, an empty line as blank, and every other
line as code, a trailing comment and the lines of any other string
included.  Run it on two trees to report a change's code lines apart from
its docstring and comment edits.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

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


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "qshutter"
    rows = [(path.name, count(path.read_text())) for path in sorted(root.glob("*.py"))]
    if not rows:
        print(f"no *.py files in {root}", file=sys.stderr)
        return 1
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{k:>11}" for k in (*KINDS, "total")))
    for name, c in rows:
        cells = [c[k] for k in KINDS] + [sum(c.values())]
        print(f"{name:<{width}}" + "".join(f"{v:>11}" for v in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
