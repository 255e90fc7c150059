"""bench/traffic.py: statement heads, and the report on fixed runs, traced by no one."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("traffic", ROOT / "bench" / "traffic.py")
traffic = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(traffic)

SOURCE = '''import os
X = 1


def f(a):
    """Doc."""
    global X
    if a:
        return os.path.join(
            "a", "b")
    try:
        pass
    except ValueError:
        X = 2

    @staticmethod
    def g():
        return 1


class C:
    Y = 2

    def m(self):
        return self.Y
'''


def test_statements_are_those_of_function_bodies():
    # no module or class body statement, no docstring, no global; a compound
    # statement's head stops before its body, and a decorator starts its def
    found = traffic.statements(SOURCE)
    assert {first: (list(head), label) for first, (head, label) in found.items()} == {
        8: ([8], "f: if a:"),
        9: ([9, 10], "f: return os.path.join("),
        11: ([11], "f: try:"),
        12: ([12], "f: pass"),
        14: ([14], "f: X = 2"),
        16: ([16, 17], "f: def g():"),
        18: ([18], "f.g: return 1"),
        25: ([25], "C.m: return self.Y"),
    }


def test_a_statement_runs_when_a_line_of_its_head_is_traced():
    heads = traffic.statements(SOURCE)
    assert traffic.ran(heads, {10, 17, 2, 13}) == {9, 16}
    assert traffic.ran(heads, set()) == set()


def test_report_of_fixed_runs():
    labels = {
        "b.py": {3: "h: return 1"},
        "a.py": {1: "f: x = 1", 2: "f: y = 2", 5: "g: return x"},
    }
    runs = {
        "stream": {"a.py": {1}},
        "demo": {"a.py": {1, 2}, "b.py": {3}},
        "selftest": {"a.py": {2}},
    }
    assert traffic.report(labels, runs, {"stream"}).split("\n") == [
        "a.py: 3 statements, 1 run by no caller, 1 only outside the benchmark",
        "  never       5 g: return x",
        "  outside     2 f: y = 2  [demo, selftest]",
        "b.py: 1 statements, 0 run by no caller, 1 only outside the benchmark",
        "  outside     3 h: return 1  [demo]",
    ]
