"""bench/census.py: the profiles it draws, in the documented order."""

import importlib.util
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("census", ROOT / "bench" / "census.py")
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def test_draw_order():
    # the barrier count, each barrier's width and height, each well's coin,
    # height if raised and width, then N and the energy factor
    rng, by_hand = np.random.default_rng(0), np.random.default_rng(0)
    for _ in range(20):
        layers, n_poles, factor = census.draw(rng)
        barriers = [(by_hand.uniform(0.5, 30.0), by_hand.uniform(0.01, 0.5))
                    for _ in range(by_hand.integers(1, 6))]
        wells = []
        for _ in barriers[1:]:
            raised = by_hand.uniform() < 0.5
            height = by_hand.uniform(0.0, 0.05) if raised else 0.0
            wells.append((by_hand.uniform(0.5, 40.0), height))
        assert layers[::2] == barriers and layers[1::2] == wells
        assert (n_poles, factor) == (by_hand.integers(1, 7), by_hand.uniform(0.3, 2.0))
