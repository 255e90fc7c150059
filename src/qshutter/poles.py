"""S-matrix pole search: transmission-peak seeding plus complex Newton.

A pole is a zero of f(k) = 1/t(k) = m22(k) in the fourth quadrant of the
k plane, k_n = a_n - i b_n (a_n, b_n > 0); its complex energy is
E_n = (hbar^2/2m) k_n^2 = curlyE_n - i Gamma_n/2.  Third-quadrant partners
k_{-n} = -k_n* are derived by symmetry, never searched.

Seeding evaluates T(E) over the whole window grid in one array call of
transmission, then walks it for local maxima; each peak contributes the
seed k(E_peak - i * HWHM), which for sharp resonances sits within a few
percent of the pole.  Newton refinement uses a central-difference derivative
(relative step 1e-7, so ~7 digits of f' are lost) and stops on an absolute
test: |f| < 1e-10 with a last step below 1e-12 nm^-1.  For narrow or
thick-barrier poles that test cannot be met: Newton reaches k to its last
ulp while |f'| ulp(k) stays far above 1e-10, and refine_pole raises
PoleConvergenceError on a root it has found.  This stall is 31 of the 35
failed ops of the perfbench `structures` workload (seed 1); ROADMAP item 1
holds the measured diagnosis and the planned well-conditioned condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    OverflowGuardError,
    PoleConvergenceError,
    PoleCountError,
    QuadrantEscapeError,
)
from .model import PotentialProfile, energy_of, wavenumber
from .scattering import transfer_matrix, transmission

__all__ = [
    "ResonancePole",
    "pole_condition",
    "seed_poles",
    "refine_pole",
    "find_poles",
]

# seed-scan grid, points per meV of the window
_GRID_DENSITY = 40.0


@dataclass(frozen=True)
class ResonancePole:
    """One fourth-quadrant pole with its derived resonance parameters.

    hbar is carried in eV ps to match E (eV), so tau comes out in ps.
    """

    index: int
    k: complex
    E: complex
    hbar: float

    @property
    def E_position(self) -> float:
        """Resonance energy curlyE_n = Re E_n in eV."""
        return self.E.real

    @property
    def Gamma(self) -> float:
        """Resonance width Gamma_n = -2 Im E_n in eV."""
        return -2.0 * self.E.imag

    @property
    def tau(self) -> float:
        """Lifetime hbar/Gamma_n in ps."""
        return self.hbar / self.Gamma

    @property
    def k_mirror(self) -> complex:
        """Third-quadrant partner -k_n*."""
        return -np.conj(self.k)


def pole_condition(profile: PotentialProfile, k: complex) -> complex:
    """f(k) = 1/t(k) = m22(k); analytic away from k = 0, zero at poles.

    Elementwise over an array k, like transfer_matrix.
    """
    return transfer_matrix(profile, k).m22


def seed_poles(profile: PotentialProfile, E_max: float) -> list[complex]:
    """Seeds from T(E) maxima on (0, E_max]; HWHM sets the imaginary part.

    The grid holds _GRID_DENSITY points per meV and is evaluated as one array.
    Overlapping doublet peaks each get their own seed; when a half-height
    crossing is cut off by the adjacent valley, the valley stands in for the
    crossing.  An empty list is a valid result (free or sub-resonant window).
    """
    if not (E_max > 0):
        raise DomainError(f"E_max must be > 0 eV, got {E_max}")
    n = max(50, int(round(_GRID_DENSITY * E_max * 1e3)))
    energies = np.linspace(1e-6, E_max, n)
    T = transmission(profile, energies)[1]
    seeds = []
    for i in range(1, n - 1):
        if not (T[i] > T[i - 1] and T[i] >= T[i + 1]):
            continue
        half = T[i] / 2.0
        e_lo, crossed_lo = _half_crossing(energies, T, i, half, step=-1)
        e_hi, crossed_hi = _half_crossing(energies, T, i, half, step=+1)
        if not (crossed_lo or crossed_hi):
            # no side ever reaches half height: rounding ripple on a flat
            # background (free profile), not a resonance
            continue
        hwhm = (e_hi - e_lo) / 2.0
        if hwhm <= 0:
            hwhm = energies[1] - energies[0]
        seeds.append(wavenumber(complex(energies[i], -hwhm), profile))
    return seeds


def _half_crossing(energies, T, peak: int, half: float, step: int):
    """(energy, crossed) walking from the peak: the half-height crossing, or
    the nearest valley/end when the crossing is masked by an adjacent peak."""
    i = peak
    while 0 < i < len(T) - 1:
        j = i + step
        if T[j] < half:
            # linear interpolation between i and j
            frac = (T[i] - half) / (T[i] - T[j])
            return float(energies[i] + frac * (energies[j] - energies[i])), True
        if T[j] > T[i]:
            return float(energies[i]), False  # valley reached first
        i = j
    return float(energies[i]), False


def refine_pole(
    profile: PotentialProfile, seed: complex, tol: float = 1e-10
) -> ResonancePole:
    """Newton on pole_condition from a fourth-quadrant seed.

    Converged when |f| < tol and the last step is below 1e-12 nm^-1; raises
    with the iterate trace after 100 iterations or on leaving the quadrant.
    """
    k = complex(seed)
    if not (k.real > 0 and k.imag < 0):
        raise DomainError(f"seed {k} not in the fourth quadrant")
    trace = [k]
    step = np.inf
    for _ in range(100):
        h = abs(k) * 1e-7
        try:
            # f and its central-difference neighbours in one array evaluation
            f, f_plus, f_minus = pole_condition(profile, np.array([k, k + h, k - h]))
        except OverflowGuardError as err:
            # a diverging iterate has run deep into the lower half plane
            raise PoleConvergenceError(f"iterate {k} tripped the guard: {err}", trace) from err
        if abs(f) < tol and abs(step) < 1e-12:
            c = profile.constants
            return ResonancePole(index=0, k=k, E=energy_of(k, c), hbar=c.hbar_ev_ps)
        df = (f_plus - f_minus) / (2.0 * h)
        step = -f / df
        k = k + step
        trace.append(k)
        if not (k.real > 0 and k.imag < 0):
            raise QuadrantEscapeError(
                f"iterate {k} left the fourth quadrant", trace
            )
    raise PoleConvergenceError(
        f"no convergence after 100 iterations, last |f| = {abs(f):.3e}", trace
    )


def find_poles(profile: PotentialProfile, N: int) -> list[ResonancePole]:
    """The N lowest fourth-quadrant poles, indexed 1..N by increasing
    curlyE_n.

    The scan window starts at 50 meV and doubles (at most 8 times) until N
    seeds appear; duplicates collapse at |dk| < 1e-9 nm^-1.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if profile.is_free:
        raise PoleCountError(found=0, requested=N)
    E_max = 0.05
    seeds: list[complex] = []
    for _ in range(9):
        seeds = seed_poles(profile, E_max)
        if len(seeds) >= N:
            break
        E_max *= 2.0
    poles: list[ResonancePole] = []
    for seed in seeds:
        p = refine_pole(profile, seed)
        if any(abs(p.k - other.k) < 1e-9 for other in poles):
            continue
        poles.append(p)
    poles.sort(key=lambda p: p.E_position)
    if len(poles) < N:
        raise PoleCountError(found=len(poles), requested=N)
    c = profile.constants
    return [
        ResonancePole(index=i + 1, k=p.k, E=energy_of(p.k, c), hbar=c.hbar_ev_ps)
        for i, p in enumerate(poles[:N])
    ]
