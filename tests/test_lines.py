"""bench/lines.py: each line of a module counts as exactly one kind."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("lines", ROOT / "bench" / "lines.py")
lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(lines)

SOURCE = '''"""Module
docstring."""

# a comment
x = 1  # trailing
y = """not a
docstring"""


def f():
    """One line."""
    return x
'''


def test_each_line_has_one_kind():
    assert lines.count(SOURCE) == {"code": 5, "docstring": 3, "comment": 1, "blank": 3}


def test_kinds_sum_to_the_line_count():
    for path in (ROOT / "src" / "qshutter").glob("*.py"):
        text = path.read_text()
        assert sum(lines.count(text).values()) == text.count("\n"), path.name
