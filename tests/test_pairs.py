"""bench/pairs.py: the pair statistics and the claim rule, on fixed figures."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [63.0, 63.5, 63.4, 63.2, 63.6, 63.1, 63.4, 63.2, 63.0, 63.3]


def test_a_gain_needs_nine_wins_and_a_move_past_the_spread():
    lower = [p - 0.7 for p in PARENT]
    lower[3] = PARENT[3] + 0.1
    s = pairs.summary(PARENT, lower, "lower", 0.1)
    assert s["change_better_pairs"] == 9 and s["verdict"] == "gain"
    assert s["parent_q1_median_q3"] == [63.075, 63.25, 63.425]
    assert s["parent_q1_q3_spread_rel"] == round(0.35 / 63.25, 4)
    # eight wins of ten are not enough
    lower[4] = PARENT[4] + 0.1
    assert pairs.summary(PARENT, lower, "lower", 0.1)["verdict"] == ""


def test_a_median_past_the_bound_is_over_bound():
    # throughput, where higher is better: 20% down against a 15% bound
    s = pairs.summary(PARENT, [0.8 * p for p in PARENT], "higher", 0.15)
    assert s["change_better_pairs"] == 0 and s["median_change_rel"] == -0.2
    assert s["verdict"] == "over bound"
    assert pairs.summary(PARENT, [0.9 * p for p in PARENT], "higher", 0.15)["verdict"] == ""
