"""S-matrix pole search: transmission-peak seeding plus matched-interface
Newton.

A pole is a zero of m22(k) = 1/t(k) (pole_condition) in the fourth quadrant
of the k plane, k_n = a_n - i b_n (a_n, b_n > 0); its complex energy is
E_n = (hbar^2/2m) k_n^2 = curlyE_n - i Gamma_n/2.  Third-quadrant partners
k_{-n} = -k_n* are derived by symmetry, never searched.

Seeding scans T(E) on one nested grid, E_j = 1e-6 eV + j/(40 per meV):
every window (0, E_max] is a prefix of the next, so find_poles, doubling its
window from 50 meV, evaluates each energy once, and seed_poles(profile,
E_max) sees exactly the seeds find_poles sees for that window.  Being
nested, the grid's wave numbers are one array per mass ratio: find_poles
slices each window's new points from a kept array of the grid's first
_KEPT_POINTS k (formed once, as transmission forms k, and never longer
than that cap) and scans them through scattering's _scan, which skips
transmission's input checks (every grid point is a valid energy) but keeps
its unitarity check and overflow guard.  The scan's end pair is read as
the real s = P11 + P22 and d = k P12 - P21/k (_condition): T is
(2/hypot(s, d))^2, |t|^2 with no complex arithmetic, and s and d are kept
for every point of the window, since g(E) = s - i d = 2 e^{-ikL} m22
vanishes exactly at the poles.  A window that is not the last and holds
fewer than N peaks of T cannot give N seeds, so find_poles doubles it
without seeding it.

Local maxima of T come from one array mask.  A peak seeds only where T
falls to half its height on at least one side before rising again (each
half-height crossing is one array search between the peak and the next
point where T rises); a peak with no crossing is rounding ripple on a flat
background.  Each kept peak i is seeded by one step of Muller's method
(D. E. Muller, MTAC 10, 208 (1956)) on g: E_i + x, with x the root nearest
0 of the quadratic through g at the points i - 1, i and i + 1 (_muller).
Over the first 83 `structures` ops of seeds 1, 2, 3 and 11 the median
relative distance from seed to pole is 9e-9 (2e-4 for E_i - i HWHM), and
the Newton batch takes 2.98 rounds per op (4.46 from E_i - i HWHM).  E_i -
i HWHM, with the half width from the two crossings, remains the seed
wherever x is not finite or has Im x >= 0.

Newton works not on m22, whose rounding at the far end of a thick barrier
grows by up to e^{|Im q| w}, so that |m22| cannot fall below |m22'| ulp(k)
near the root, but on the Wronskian W of scattering's outgoing pieces at
one join edge, where the summed |Im q| w on either side balances at the
seed.  The derivative is a central difference (relative step 1e-7).
Newton stops on backward error: the step is within _STEP_ULPS ulps of |k|
and scattering's join test (_join) reads at most _W_TOL.  W does not
depend on x, so every edge certifies the same root; the returned k takes
that last step.  A step that would leave the fourth quadrant is halved
until it stays in; an iterate it leaves within _STEP_ULPS ulps of the
imaginary axis is a quadrant escape.

find_poles refines all of a window's seeds in lockstep (_newton).  Each
round evaluates every active seed's iterate and its two difference points
as one (3, n_seeds) array, through one kernel call and one march of both
outgoing pieces, which cost about as much for 18 points as for 3.  W is
formed only at each seed's own join edge, and one join test
(scattering._join) serves every seed whose step has reached
rounding level.  Each seed keeps its own join edge, stop test, halving and
trace, and takes its step in Python complex arithmetic from its own
column, so every pole is bit for bit the one refine_pole (the one-seed
call) returns.  A seed leaves the
batch once it converges or fails; a tripped guard fails the seed that owns
the guarded point, and the others are evaluated again.  The error raised
is the lowest-index failing seed's, as a loop over the seeds would raise.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    OverflowGuardError,
    PoleConvergenceError,
    PoleCountError,
    QuadrantEscapeError,
)
from .model import PhysicalConstants, PotentialProfile, energy_of, wavenumber
from .scattering import (
    _BLOCK,
    _W_TOL,
    _growth,
    _join,
    _joins,
    _layers,
    _outgoing,
    _scan,
    _wronskian,
    transfer_matrix,
)

__all__ = [
    "ResonancePole",
    "pole_condition",
    "seed_poles",
    "refine_pole",
    "find_poles",
]

# seed-scan grid: E_j = _E_FIRST + j / _GRID_DENSITY eV, 40 points per meV
_E_FIRST = 1e-6
_GRID_DENSITY = 40e3
# find_poles keeps the real k of the grid's first _KEPT_POINTS points per
# mass ratio, 128 KiB each (the 400 meV window has 16000 points; 495 of the
# first 498 `structures` ops of seeds 1, 2 and 11 stop there), and forms the
# k of a larger window's points afresh; a multiple of scattering's _BLOCK
_KEPT_POINTS = 1 << 14
# Newton stop: |step| <= _STEP_ULPS eps |k| and the join test at _W_TOL
_STEP_ULPS = 16
_MAX_ITERATIONS = 100
_EPS = float(np.finfo(float).eps)
# halvings of a step that would leave the fourth quadrant before giving up
_MAX_HALVINGS = 60
# the scan window stops doubling at this many times the highest first
# full-transmission energy V + (hbar^2/2m)(pi/w)^2 of a barrier, past which
# T(E) ripples near 1 (`structures` searches never pass 1.74 V_max)
_WINDOW_CAP = 4.0


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


def _join_edge(growth: np.ndarray) -> int:
    """The join edge where the growth on either side balances."""
    joins = _joins(len(growth) - 1)
    return int(joins[np.abs(2.0 * growth[joins] - growth[-1]).argmin()])


def _points(E_max: float) -> int:
    """The number of the nested scan grid's points up to E_max (at least three)."""
    return max(3, int((E_max - _E_FIRST) * _GRID_DENSITY) + 1)


def _grid(E_max: float) -> np.ndarray:
    """The nested scan grid's points up to E_max."""
    return _E_FIRST + np.arange(_points(E_max)) / _GRID_DENSITY


@lru_cache(maxsize=4)
def _kept_k(constants: PhysicalConstants) -> np.ndarray:
    """The real k of the grid's first _KEPT_POINTS points, read-only, formed
    in blocks of _BLOCK points so that no complex array of its size is
    held while it is built."""
    k = np.empty(_KEPT_POINTS)
    for start in range(0, _KEPT_POINTS, _BLOCK):
        k[start : start + _BLOCK] = _fresh_k(constants, start, start + _BLOCK)
    k.flags.writeable = False
    return k


def _fresh_k(constants: PhysicalConstants, start: int, stop: int) -> np.ndarray:
    """The real k of the grid's points start to stop - 1, as transmission
    forms k (wavenumber's complex sqrt)."""
    return wavenumber(_E_FIRST + np.arange(start, stop) / _GRID_DENSITY, constants).real


def _grid_k(constants: PhysicalConstants, start: int, stop: int) -> np.ndarray:
    """_fresh_k, sliced from the kept array when it holds the points."""
    if stop <= _KEPT_POINTS:
        return _kept_k(constants)[start:stop]
    return _fresh_k(constants, start, stop)


def _peaks(T) -> np.ndarray:
    """The grid indices of the local maxima of T."""
    inner = T[1:-1]
    return np.flatnonzero((inner > T[:-2]) & (inner >= T[2:])) + 1


def _condition(profile: PotentialProfile, k: np.ndarray, s, d):
    """The pole search's read of a scan block (scattering._scan): (s, d), the
    real and minus the imaginary part of the pole condition g = s - i d =
    2 e^{-ikL} m22, and T = (2/hypot(s, d))^2, all in real arithmetic."""
    T = np.hypot(s, d)
    np.divide(2.0, T, out=T)
    return s, d, np.square(T, out=T)


def _scanned(profile: PotentialProfile, start: int, stop: int):
    """(s, d, T) of _condition at the grid's points start to stop - 1."""
    return _scan(profile, _grid_k(profile.constants, start, stop), _condition)


def _muller(energies, condition, i: int) -> complex | None:
    """E_i + x, x the root nearest 0 of the quadratic through g = s - i d at
    the grid points i - 1, i and i + 1 (one step of Muller's method), or None
    where x is not finite or has Im x >= 0; condition is (s, d).

    The quadratic is a t^2 + b t + 1 in t = x/h, through g/g_i (|g| >= 2 on
    the real axis, as T <= 1), and its root nearest 0 is -2/(b +- sqrt(b^2 -
    4a)), with the sign that makes the denominator larger.
    """
    h = (energies[i + 1] - energies[i - 1]) / 2.0
    s, d = (part[i - 1 : i + 2].tolist() for part in condition)
    below, at, above = (complex(re, -im) for re, im in zip(s, d))
    below, above = below / at, above / at
    a, b = (above + below) / 2.0 - 1.0, (above - below) / 2.0
    root = cmath.sqrt(b * b - 4.0 * a)
    try:
        x = -2.0 * h / max(b + root, b - root, key=abs)
    except ZeroDivisionError:
        return None
    return energies[i] + x if cmath.isfinite(x) and x.imag < 0 else None


def _seeds(profile: PotentialProfile, energies, T, condition) -> list[complex]:
    """Seeds from the local maxima of T on the grid `energies`: _muller on
    the pole condition (s, d) at each kept peak, else the peak's E - i HWHM."""
    peaks = _peaks(T)
    # the walk down the grid is the walk up the reversed grid
    up, down = (energies, T), (energies[::-1], T[::-1])
    rises_up, rises_down = (np.flatnonzero(t[1:] > t[:-1]) + 1 for _, t in (up, down))
    seeds = []
    for i in peaks:
        half = T[i] / 2.0
        e_lo, crossed_lo = _half_crossing(*down, len(T) - 1 - i, half, rises_down)
        e_hi, crossed_hi = _half_crossing(*up, i, half, rises_up)
        if not (crossed_lo or crossed_hi):
            # no side ever reaches half height: rounding ripple on a flat
            # background (free profile), not a resonance
            continue
        seed = _muller(energies, condition, i)
        if seed is None:
            hwhm = (e_hi - e_lo) / 2.0
            if hwhm <= 0:
                hwhm = energies[1] - energies[0]
            seed = complex(energies[i], -hwhm)
        seeds.append(wavenumber(seed, profile))
    return seeds


def seed_poles(profile: PotentialProfile, E_max: float) -> list[complex]:
    """Seeds from T(E) maxima on (0, E_max]: one Muller step on the pole
    condition at each resonance peak, else the peak's E - i HWHM.

    The grid is the nested one of the module docstring, scanned as
    find_poles scans it (scattering._scan, read by _condition), so that the
    seeds are those find_poles refines for this window.  A peak seeds only
    where T falls to half its height on either side; overlapping doublet
    peaks each get their own seed, and when a half-height crossing is cut
    off by the adjacent valley, the valley stands in for the crossing.  An
    empty list is a valid result (free or sub-resonant window).
    """
    if not (E_max > 0):
        raise DomainError(f"E_max must be > 0 eV, got {E_max}")
    energies = _grid(E_max)
    s, d, T = _scanned(profile, 0, len(energies))
    return _seeds(profile, energies, T, (s, d))


def _half_crossing(energies, T, peak: int, half: float, rises):
    """(energy, crossed) walking up the grid from the peak: the half-height
    crossing, or the nearest valley/end when the crossing is masked by an
    adjacent peak.

    rises holds the sorted j where T[j] > T[j - 1].  The walk stops at the
    first point below half height, interpolating between it and the point
    before, unless the first rise past the peak comes sooner: the point
    before that rise is the valley.
    """
    at = int(rises.searchsorted(peak, side="right"))
    stop = int(rises[at]) if at < len(rises) else len(T) - 1
    below = np.flatnonzero(T[peak + 1 : stop + 1] < half)
    if not below.size:
        return float(energies[stop - 1 if at < len(rises) else stop]), False
    j = peak + 1 + int(below[0])
    i = j - 1
    # linear interpolation between i and j
    frac = (T[i] - half) / (T[i] - T[j])
    return float(energies[i] + frac * (energies[j] - energies[i])), True


def refine_pole(profile: PotentialProfile, seed: complex) -> ResonancePole:
    """Newton on the matched Wronskian from a fourth-quadrant seed.

    Stops on the backward-error test of the module docstring; raises
    PoleConvergenceError with the iterate trace after _MAX_ITERATIONS
    iterations or when an iterate trips an overflow guard (a layer's or the
    march's), and QuadrantEscapeError when halving cannot keep a step in
    the quadrant or keeps it only within _STEP_ULPS ulps of Re k = 0.
    """
    k = complex(seed)
    if not (k.real > 0 and k.imag < 0):
        raise DomainError(f"seed {k} not in the fourth quadrant")
    return _newton(profile, [k])[0]


def _newton(profile: PotentialProfile, seeds) -> list[ResonancePole]:
    """refine_pole from every fourth-quadrant seed in lockstep (module
    docstring): one array evaluation per round for all unfinished seeds.

    Raises what refine_pole raises for the lowest-index seed that fails;
    seeds after a failed one are dropped, as their poles cannot be returned.
    """
    ks = [complex(seed) for seed in seeds]
    traces = [[k] for k in ks]
    edges: dict[int, int] = {}
    last = {}  # each seed's last (W, step)
    poles: dict[int, ResonancePole] = {}
    failed: dict[int, PoleConvergenceError] = {}
    active = list(range(len(ks)))
    rounds = 0
    while rounds < _MAX_ITERATIONS:
        active = [i for i in active if not failed or i < min(failed)]
        if not active:
            break
        # each seed's W and its central-difference neighbours, as columns
        now = [ks[i] for i in active]
        hs = [abs(k) * 1e-7 for k in now]
        points = np.array(
            [now, [k + h for k, h in zip(now, hs)], [k - h for k, h in zip(now, hs)]]
        )
        try:
            layers = _layers(profile, points)
        except OverflowGuardError as err:
            # a diverging iterate has run deep into the lower half plane:
            # fail its seed and evaluate the rest again.  The guarded point
            # is the first of its seed's column, so its row is the index the
            # seed's own 3-point evaluation would name
            n = len(active)
            i = active.pop(err.point % n)
            err.point //= n
            failed[i] = PoleConvergenceError(
                f"iterate {ks[i]} tripped the guard: {err}", traces[i]
            )
            failed[i].__cause__ = err
            continue
        growth = _growth(layers)[:, 0]
        if rounds == 0:
            edges = {i: _join_edge(growth[:, col]) for col, i in enumerate(active)}
        left, right = _outgoing(layers, points)
        # W at each seed's own join edge only, as Python complexes
        cols = np.arange(len(active))
        at = [edges[i] for i in active]
        wronskians = _wronskian(left[at, :, :, cols], right[at, :, :, cols]).tolist()
        steps = []
        for (w, w_plus, w_minus), h in zip(wronskians, hs):
            try:
                steps.append(-w / ((w_plus - w_minus) / (2.0 * h)))
            except ZeroDivisionError:
                steps.append(complex(np.nan))
        # one join test for every seed whose step has reached rounding level
        near = [
            col for col, (k, step) in enumerate(zip(now, steps))
            if abs(step) <= _STEP_ULPS * _EPS * abs(k)
        ]
        certified = set()
        if near:
            mismatch = _join(
                growth[:, near], left[:, :, 0, near], right[:, :, 0, near], points[0, near]
            )[1]
            certified = {col for col, m in zip(near, mismatch) if m <= _W_TOL}
        stepping = []
        for col, (i, step) in enumerate(zip(active, steps)):
            k, trace = ks[i], traces[i]
            if col in certified:
                k = k + step
                c = profile.constants
                poles[i] = ResonancePole(index=0, k=k, E=energy_of(k, c), hbar=c.hbar_ev_ps)
                continue
            if step == 0 or not np.isfinite(step):
                failed[i] = PoleConvergenceError(
                    f"no Newton step from uncertified iterate {k}", trace
                )
                continue
            for _ in range(_MAX_HALVINGS):
                if (k + step).real > 0 and (k + step).imag < 0:
                    break
                step /= 2.0
            else:
                failed[i] = QuadrantEscapeError(
                    f"iterate {k + step} left the fourth quadrant", trace
                )
                continue
            last[i] = wronskians[col][0], step
            ks[i] = k + step
            trace.append(ks[i])
            if ks[i].real < _STEP_ULPS * _EPS * abs(ks[i]):
                # a root off the quadrant: halving would hold Re k at
                # rounding level for every remaining round
                failed[i] = QuadrantEscapeError(
                    f"iterate {ks[i]} reached the imaginary axis", trace
                )
                continue
            stepping.append(i)
        active = stepping
        rounds += 1
    for i in active:
        w, step = last[i]
        failed[i] = PoleConvergenceError(
            f"no convergence after {_MAX_ITERATIONS} iterations, "
            f"last |W| = {abs(w):.3e}, last step {abs(step):.3e}",
            traces[i],
        )
    if failed:
        raise failed[min(failed)]
    return [poles[i] for i in range(len(ks))]


def find_poles(profile: PotentialProfile, N: int) -> list[ResonancePole]:
    """The N lowest fourth-quadrant poles, indexed 1..N by increasing
    curlyE_n.

    The scan window starts at 50 meV and doubles (at most 8 times) until N
    seeds appear or it reaches the profile bound of _WINDOW_CAP; each
    doubling evaluates T(E) only past the previous window, at k sliced from
    the kept grid (module docstring), and a window with fewer than N peaks
    is seeded only when it is the last.  Duplicates collapse at |dk| <
    1e-9 nm^-1.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if profile.is_free:
        raise PoleCountError(found=0, requested=N)
    h22m = profile.constants.hbar2_over_2m
    barriers = [l for l in profile.layers if l.height > 0]
    cap = _WINDOW_CAP * max(l.height + h22m * (np.pi / l.width) ** 2 for l in barriers)
    E_max = 0.05
    s, d, T = (np.empty(0),) * 3
    for attempt in range(9):
        # joined one array at a time, each block part dropped once joined, so
        # the old arrays, the block and the three joined ones never coexist
        block = list(_scanned(profile, len(T), _points(E_max)))
        s = np.concatenate((s, block.pop(0)))
        d = np.concatenate((d, block.pop(0)))
        T = np.concatenate((T, block.pop(0)))
        last = attempt == 8 or E_max >= cap
        # each peak gives at most one seed: a window of fewer than N peaks
        # is not searched for them
        if last or len(_peaks(T)) >= N:
            seeds = _seeds(profile, _grid(E_max), T, (s, d))
            if last or len(seeds) >= N:
                break
        E_max *= 2.0
    poles: list[ResonancePole] = []
    for p in _newton(profile, seeds):
        if any(abs(p.k - other.k) < 1e-9 for other in poles):
            continue
        poles.append(p)
    poles.sort(key=lambda p: p.E_position)
    if len(poles) < N:
        raise PoleCountError(found=len(poles), requested=N)
    return [replace(p, index=i + 1) for i, p in enumerate(poles[:N])]
