"""bench/census.py: the profiles it draws, in the documented order, and
the census of a prefix of seed 0."""

import importlib.util
from pathlib import Path

import numpy as np

from qshutter import errors

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


def _past(misses, bounds):
    return [int((misses > bound).sum()) for bound in bounds]


def test_seed_0_prefix():
    # the first 60 profiles of seed 0 (~0.4 s): every outcome is a completed
    # profile or a typed error, x = L reads the rows the walk made, and
    # x = L- still crosses the last layer from its left edge (ROADMAP 26)
    outcomes, misses, not_finite = census.census(seeds=(0,), profiles_per_seed=60)
    for name in outcomes:
        assert name == "completed" or issubclass(getattr(errors, name), errors.QShutterError)
    assert dict(outcomes) == {"completed": 50, "PoleQualityError": 10}
    phi_L, mode_L, phi_inside, mode_inside = misses.T
    assert _past(phi_L, census.PHI_BOUNDS) == [0, 0, 0, 0, 0]
    assert _past(mode_L, census.MODE_BOUNDS) == [0, 0, 0, 0]
    assert _past(phi_inside, census.PHI_BOUNDS) == [31, 11, 4, 3, 3]
    assert _past(mode_inside, census.MODE_BOUNDS) == [31, 11, 5, 4]
    assert not_finite == 0
