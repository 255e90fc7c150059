"""How the pipeline fares on random layered profiles: typed refusals and silent misses.

    python bench/census.py [--against REV]

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

- the stationary field's end miss | |Phi(x)|^2/T - 1 |, with Phi(x) read
  by `stationary_wave(field, x)` and T by `transmission`;
- the worst mode end miss | |u(x)|/|uL| - 1 | of each profile, with u(x)
  read by `mode.u(x)`;

each at x = L, which reads the pair the walk from L starts from, and at
x = L- = `np.nextafter(L, 0.0)`, which is evaluated across the last layer
from its left edge; then the number of `psi_exact` maps on 7 x in [0, L]
by 50 t in [1e-3 ps, 25 tau1] that hold a value that is not finite.  It
writes nothing.

--against REV runs the census twice, each in a child process that imports
its own package: that of the committed tree of git revision REV (a `git
archive` of its src/) and the working tree's.  It prints the two
reports as one, a line that differs once per side (`-` REV, `+` working
tree), and exits 0 when they agree and 1 otherwise.
"""

from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
import tempfile
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
    """(misses, map finite) of one profile: misses holds the Phi end miss
    and the worst mode end miss at x = L, then both at x = L-."""
    from qshutter import build_profile, make_spectrum, psi_exact, transmission
    from qshutter.scattering import stationary_wave

    spectrum = make_spectrum(build_profile(layers, MASS_RATIO), n_poles)
    pole = spectrum.poles[0]
    problem = spectrum.at(pole.E_position * factor)
    L = problem.L
    T = transmission(problem.profile, problem.E)[1]
    misses = []
    for x in (L, np.nextafter(L, 0.0)):
        misses.append(abs(abs(stationary_wave(problem.field, x)) ** 2 / T - 1.0))
        misses.append(max(abs(abs(m.u(x)) / abs(m.uL) - 1.0) for m in problem.modes))
    times = np.linspace(1e-3, 25.0 * pole.tau, 50)
    finite = all(np.isfinite(psi_exact(problem, x, times)).all() for x in np.linspace(0.0, L, 7))
    return misses, finite


def census(seeds=SEEDS, profiles_per_seed: int = PROFILES_PER_SEED):
    """(outcome counts, misses, maps not finite) over the first
    profiles_per_seed profiles of each seed; misses has one row of
    measure's four misses per completed profile."""
    outcomes, misses, not_finite = Counter(), [], 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for _ in range(profiles_per_seed):
            profile = draw(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    result = measure(*profile)
                except Exception as err:  # every outcome is counted by its type
                    outcomes[type(err).__name__] += 1
                    continue
            outcomes["completed"] += 1
            misses.append(result[0])
            not_finite += not result[1]
    return outcomes, np.array(misses).reshape(-1, 4), not_finite


def _past(name: str, misses: np.ndarray, bounds) -> str:
    counts = ", ".join(f"{bound:g}: {int((misses > bound).sum())}" for bound in bounds)
    return f"{name} past {counts}"


def report() -> list[str]:
    """The census's printed lines."""
    outcomes, misses, not_finite = census()
    lines = [f"{len(SEEDS) * PROFILES_PER_SEED} profiles, seeds {', '.join(map(str, SEEDS))}"]
    for name, count in sorted(outcomes.items(), key=lambda item: (-item[1], item[0])):
        lines.append(f"  {name}: {count}")
    for column, x in ((0, "L"), (2, "L-")):
        lines.append(_past(f"| |Phi({x})|^2/T - 1 |", misses[:, column], PHI_BOUNDS))
        lines.append(_past(f"worst | |u({x})|/|uL| - 1 |", misses[:, column + 1], MODE_BOUNDS))
    lines.append(f"psi_exact maps not finite: {not_finite}")
    return lines


def against(rev: str) -> int:
    """Print the census of rev's package and of the working tree's as one."""
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True, check=True
        ).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = []
        for src in (Path(tmp) / "src", ROOT / "src"):
            run = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--src", str(src)],
                capture_output=True,
                text=True,
            )
            if run.returncode:
                raise RuntimeError(f"the census of {src} failed:\n{run.stderr}")
            sides.append(run.stdout.splitlines())
    print(f"census: - {rev}, + working tree")
    diff = [line for line in difflib.ndiff(*sides) if not line.startswith("?")]
    print("\n".join(diff))
    return int(sides[0] != sides[1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", metavar="REV", help="compare with the census of REV")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.against:
        return against(args.against)
    sys.path.insert(0, str(args.src))
    print("\n".join(report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
