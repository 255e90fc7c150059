"""bench/ab.py: the relative and scaled differences of two outputs' arrays, on fixed arrays."""

import importlib.util
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("ab", ROOT / "bench" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)


@dataclass
class Record:
    name: str
    curves: dict


def test_largest_relative_difference_walks_every_array():
    a = (np.array([1.0, 2.0, 4.0]), Record("x", {"m": np.array([[1.0 + 1.0j, 8.0]])}), 3.0)
    b = (np.array([1.0, 2.0, 4.0]), Record("x", {"m": np.array([[1.0 + 1.0j, 8.0]])}), 3.0)
    assert [x.shape for x in ab.arrays(a)] == [(3,), (1, 2), ()]
    assert ab.largest_relative_difference(a, b) == 0.0
    # 1e-12 relative in the record's curve beats 5e-13 in the first array
    b[0][2] = 4.0 * (1 + 5e-13)
    b[1].curves["m"][0, 1] = 8.0 * (1 + 1e-12)
    assert math.isclose(ab.largest_relative_difference(a, b), 1e-12, rel_tol=1e-3)
    # a zero that moved, or arrays that do not pair up, read inf
    assert ab.largest_relative_difference(np.zeros(2), np.array([0.0, 1e-300])) == math.inf
    assert ab.largest_relative_difference(np.zeros(2), np.zeros(3)) == math.inf
    assert ab.largest_relative_difference([np.zeros(2)], []) == math.inf
    assert ab.largest_relative_difference("no arrays", "here") == 0.0


def test_largest_scaled_difference_divides_by_each_arrays_largest_entry():
    # a near-zero entry moved by 1e-20 reads 1e-4 of itself, and 1e-20 of
    # its array's largest entry, 1.0
    a = [np.array([1.0, 1e-16, 0.5]), np.array([[4.0 + 3.0j, 0.0]])]
    b = [np.array([1.0, 1e-16 + 1e-20, 0.5]), np.array([[4.0 + 3.0j, 0.0]])]
    assert math.isclose(ab.largest_relative_difference(a, b), 1e-4, rel_tol=1e-3)
    assert math.isclose(ab.largest_scaled_difference(a, b), 1e-20, rel_tol=1e-3)
    # the worst array decides: 1e-12 of the complex array's |5.0|
    b[1][0, 1] = 5e-12
    assert math.isclose(ab.largest_scaled_difference(a, b), 1e-12, rel_tol=1e-9)
    assert ab.largest_relative_difference(a, b) == math.inf
    assert ab.largest_scaled_difference(a, a) == 0.0
    # an all-zero array that moved, or arrays that do not pair up, read inf
    assert ab.largest_scaled_difference(np.zeros(2), np.array([0.0, 1e-300])) == math.inf
    assert ab.largest_scaled_difference(np.zeros(2), np.zeros(3)) == math.inf
    assert ab.largest_scaled_difference("no arrays", "here") == 0.0


def test_differences_cover_float_and_complex_fields():
    # outputs that differ only in a record's complex and float fields, as a
    # mode's uL moved by one ulp: both figures read the move, not 0
    a = Record("x", {"uL": np.complex128(0.25 + 0.5j), "residual": 1e-13})
    b = Record("x", {"uL": np.complex128(0.25 + 0.5j * (1 + 2**-52)), "residual": 1e-13})
    assert ab.fingerprint(a) != ab.fingerprint(b)
    moved = 0.5 * 2**-52 / abs(0.25 + 0.5j)
    assert math.isclose(ab.largest_relative_difference(a, b), moved, rel_tol=1e-9)
    assert math.isclose(ab.largest_scaled_difference(a, b), moved, rel_tol=1e-9)
    b.curves["residual"] = 3e-13
    assert math.isclose(ab.largest_relative_difference(a, b), 2.0, rel_tol=1e-9)
    assert ab.largest_scaled_difference(a, a) == 0.0


def test_importing_ab_leaves_the_environment_alone():
    # the thread pins belong to a run of the script, not to an importer
    before = dict(os.environ)
    module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(module)
    assert dict(os.environ) == before
