"""How the pipeline fares on random layered profiles: typed refusals and silent misses.

    python bench/census.py

Draws 300 profiles from each of `numpy.random.default_rng` seeds 0 and 1,
under `warnings.simplefilter("error")`, so that a warning counts as an
outcome of its own.  Per profile it draws, in this order:

- the barrier count, 1-5;
- per barrier, its width U(0.5, 30) nm and then its height U(0.01, 0.5) eV;
- per well between two barriers, a coin; its height U(0, 0.05) eV when the
  coin (uniform() < 0.5) raises it, else 0; then its width U(0.5, 40) nm;
- the pole count N, 1-6, and the energy factor U(0.3, 2).

It builds the profile (barriers and wells interleaved, m* = 0.067), its
spectrum `make_spectrum(profile, N)`, and the problem at E = curlyE1 x the
factor.  It prints the outcomes per exception type ("completed" for none),
and on the completed profiles the counts past each bound of:

- the stationary field's end miss | |Phi(L)|^2/T - 1 |, with Phi(L) read
  by `stationary_wave(field, L)` and T by `transmission`;
- the worst mode end miss | |u(L)|/|uL| - 1 | of each profile, with u(L)
  read by `mode.u(L)`;

and the number of `psi_exact` maps on 7 x in [0, L] by 50 t in [1e-3 ps,
25 tau1] that hold a value that is not finite.  It writes nothing.
"""

from __future__ import annotations

import sys
import warnings
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 1)
PROFILES_PER_SEED = 300
MASS_RATIO = 0.067
PHI_BOUNDS = (1e-12, 1e-6, 1e-2, 1.0, 1e6)
MODE_BOUNDS = (1e-12, 1e-6, 1e-2, 1.0)


def draw(rng: np.random.Generator):
    """(layers, N, energy factor) of one profile, in the draw order above."""
    count = rng.integers(1, 6)
    barriers = [(rng.uniform(0.5, 30.0), rng.uniform(0.01, 0.5)) for _ in range(count)]
    wells = []
    for _ in barriers[1:]:
        height = rng.uniform(0.0, 0.05) if rng.uniform() < 0.5 else 0.0
        wells.append((rng.uniform(0.5, 40.0), height))
    layers = [barriers[0]]
    for well, barrier in zip(wells, barriers[1:]):
        layers += [well, barrier]
    return layers, int(rng.integers(1, 7)), rng.uniform(0.3, 2.0)


def measure(layers, n_poles: int, factor: float):
    """(Phi end miss, worst mode end miss, map finite) of one profile."""
    from qshutter import build_profile, make_spectrum, psi_exact, transmission
    from qshutter.scattering import stationary_wave

    spectrum = make_spectrum(build_profile(layers, MASS_RATIO), n_poles)
    pole = spectrum.poles[0]
    problem = spectrum.at(pole.E_position * factor)
    L = problem.L
    T = transmission(problem.profile, problem.E)[1]
    phi = abs(abs(stationary_wave(problem.field, L)) ** 2 / T - 1.0)
    mode = max(abs(abs(m.u(L)) / abs(m.uL) - 1.0) for m in problem.modes)
    times = np.linspace(1e-3, 25.0 * pole.tau, 50)
    finite = all(np.isfinite(psi_exact(problem, x, times)).all() for x in np.linspace(0.0, L, 7))
    return phi, mode, finite


def census():
    """(outcome counts, Phi end misses, mode end misses, maps not finite)."""
    outcomes, phi, mode, not_finite = Counter(), [], [], 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        for _ in range(PROFILES_PER_SEED):
            profile = draw(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = measure(*profile)
                except Exception as err:  # every outcome is counted by its type
                    outcomes[type(err).__name__] += 1
                    continue
            outcomes["completed"] += 1
            phi.append(result[0])
            mode.append(result[1])
            not_finite += not result[2]
    return outcomes, np.array(phi), np.array(mode), not_finite


def _past(name: str, misses: np.ndarray, bounds) -> str:
    counts = ", ".join(f"{bound:g}: {int((misses > bound).sum())}" for bound in bounds)
    return f"{name} past {counts}"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    outcomes, phi, mode, not_finite = census()
    print(f"{len(SEEDS) * PROFILES_PER_SEED} profiles, seeds {', '.join(map(str, SEEDS))}")
    for name, count in sorted(outcomes.items(), key=lambda item: (-item[1], item[0])):
        print(f"  {name}: {count}")
    print(_past("| |Phi(L)|^2/T - 1 |", phi, PHI_BOUNDS))
    print(_past("worst | |u(L)|/|uL| - 1 |", mode, MODE_BOUNDS))
    print(f"psi_exact maps not finite: {not_finite}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
