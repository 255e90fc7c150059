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


def test_comparison_of_in_memory_sources():
    # a module edited, one removed and one added: each row is after - before,
    # and a module on one side only counts as empty on the other
    old = {"kept.py": "x = 1\n", "gone.py": "# only a comment\n"}
    new = {"kept.py": '"""Doc."""\nx = 1\n\n', "added.py": "y = 2\nz = 3\n"}
    before, after = lines.table(old), lines.table(new)
    assert list(after) == ["added.py", "kept.py", "total"]
    diff = lines.difference(before, after)
    assert list(diff) == ["added.py", "gone.py", "kept.py", "total"]
    assert diff["added.py"] == {"code": 2, "docstring": 0, "comment": 0, "blank": 0}
    assert diff["gone.py"] == {"code": 0, "docstring": 0, "comment": -1, "blank": 0}
    assert diff["kept.py"] == {"code": 0, "docstring": 1, "comment": 0, "blank": 1}
    assert diff["total"] == {"code": 2, "docstring": 1, "comment": -1, "blank": 1}
    text = lines.compare(old, new)
    assert [block.split("\n")[0] for block in text.split("\n\n")] == [
        "before", "after", "difference"
    ]
    assert text.split("\n")[-1].split() == ["total", "+2", "+1", "-1", "+1", "+3"]
    assert lines.render(before).split("\n")[-1].split() == ["total", "1", "0", "1", "0", "2"]
