"""Time-dependent shutter solution inside the structure.

At t = 0 a shutter at x = 0 releases the cutoff standing wave

    Psi(x, k; 0) = e^{ikx} - e^{-ikx}   (x <= 0),      0   (x > 0).

For 0 <= x <= L the solution is the resonance expansion

    Psi = Phi_k M(y_k) - Phi_k* M(y_{-k})
          - sum_n [ rho_n M(y_{k_n}) + rho_{-n} M(y_{k_{-n}}) ]

with x-independent arguments y_s = e^{i 3pi/4} sqrt(hbar/2m) s sqrt(t) and
the sum over the retained fourth-quadrant poles and their third-quadrant
partners.  The partner terms are not optional: they carry the cancellation
that makes Psi vanish as t -> 0+.  The truncated sum leaves a residual
there: at the triple barrier's doublet center |Psi(L, 1e-6 ps)|^2/T reads
1.2e-1, 6.1e-5, 7.7e-5, 9.3e-6, 6.3e-4, 3.3e-4 for N = 1..6, which is not
monotone and so no measure of convergence in N (ROADMAP item 5).  Every
M-function method is a partial sum of this one expansion (see _sums).

On a free profile the expansion degenerates (no poles) and does not reduce
to the free propagation of the cutoff wave; psi_exact dispatches to the
closed-form free-shutter solution with the position-dependent argument in
that case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .mfunc import m_function, y_values
from .model import PhysicalConstants, PotentialProfile, wavenumber
from .modes import ResonantMode, rho, rho_mirror, solve_mode
from .poles import ResonancePole, find_poles
from .scattering import StationaryField, solve_stationary, stationary_wave
from .twolevel import (
    _broadcast_xt,
    density_resonant_exponential,
    density_two_level,
    frequencies,
)

__all__ = [
    "METHOD_EXACT",
    "METHOD_TWO_LEVEL_M",
    "METHOD_TWO_LEVEL_CLOSED",
    "METHOD_EXPONENTIAL",
    "METHODS",
    "ShutterProblem",
    "Spectrum",
    "make_spectrum",
    "make_problem",
    "TransientTrace",
    "psi_exact",
    "psi_doublet_M",
    "delta_term",
    "free_shutter_psi",
    "evolve_trace",
]

METHOD_EXACT = "exact-N"
METHOD_TWO_LEVEL_M = "two-level-M"
METHOD_TWO_LEVEL_CLOSED = "two-level-closed"
METHOD_EXPONENTIAL = "exponential"
METHODS = (
    METHOD_EXACT,
    METHOD_TWO_LEVEL_M,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_EXPONENTIAL,
)
# modes each method needs, in METHODS order (exact-N: none on a free profile)
_MODES_NEEDED = dict(zip(METHODS, (0, 2, 2, 1)))


@dataclass(frozen=True)
class ShutterProblem:
    """Profile + incidence energy + retained modes + stationary field."""

    profile: PotentialProfile
    E: float
    k: float
    modes: tuple[ResonantMode, ...]
    field: StationaryField

    @property
    def constants(self) -> PhysicalConstants:
        return self.profile.constants

    @property
    def L(self) -> float:
        return self.profile.total_length


@dataclass(frozen=True)
class Spectrum:
    """The retained resonant modes of one profile, for every incidence energy.

    Poles and modes belong to the potential alone; the incidence energy
    enters only through the stationary field, so `at` costs one stationary
    solve and every problem it returns shares these mode objects.
    """

    profile: PotentialProfile
    modes: tuple[ResonantMode, ...]

    @property
    def poles(self) -> tuple[ResonancePole, ...]:
        return tuple(m.pole for m in self.modes)

    def at(self, E: float) -> ShutterProblem:
        """The ShutterProblem at real incidence energy E (eV)."""
        if not (0 < E < np.inf):
            raise DomainError(f"incidence energy must be finite and > 0 eV, got {E}")
        k = wavenumber(E, self.profile).real
        return ShutterProblem(
            profile=self.profile,
            E=float(E),
            k=k,
            modes=self.modes,
            field=solve_stationary(self.profile, k),
        )


def make_spectrum(profile: PotentialProfile, n_poles: int = 4) -> Spectrum:
    """Find the first n_poles poles of profile and solve their modes.

    n_poles = 0 is allowed only for a free profile (no resonances exist to
    retain); otherwise at least one mode is required.
    """
    if n_poles == 0 or profile.is_free:
        if not profile.is_free:
            raise DomainError("n_poles = 0 is only valid for a free profile")
        return Spectrum(profile, ())
    poles = find_poles(profile, n_poles)
    return Spectrum(profile, tuple(solve_mode(profile, p) for p in poles))


def make_problem(
    profile: PotentialProfile, E: float, n_poles: int = 4
) -> ShutterProblem:
    """ShutterProblem at real incidence energy E (eV); see make_spectrum.

    Builds a fresh spectrum: for several energies on one profile, call
    make_spectrum once and then its `at`.
    """
    return make_spectrum(profile, n_poles).at(E)


def _times(t) -> np.ndarray:
    """t (ps) as a float array; every time must be finite and > 0."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all((t_arr > 0) & (t_arr < np.inf)):
        raise DomainError("t must be finite and > 0 ps (t = 0 is the initial condition)")
    return t_arr


def _positions(problem: ShutterProblem, x) -> np.ndarray:
    """x (nm) as a float array; every position must lie in [0, L]."""
    x_arr = np.asarray(x, dtype=float)
    if not np.all((x_arr >= 0) & (x_arr <= problem.L)):
        raise DomainError(f"x must lie in [0, {problem.L}] nm")
    return x_arr


def _result(psi):
    return complex(psi) if np.ndim(psi) == 0 else psi


def _sums(problem: ShutterProblem, x, t, n_modes: int):
    """(rho_n of the summed modes, doublet sum, full sum) of the expansion.

    The rows [Phi, -Phi*, -rho_1, -rho_-1, ...] times their M(y_s) columns
    are added in place one term at a time through pole pair n_modes, so
    memory stays at a few arrays of the broadcast (x, t) shape.  The doublet
    sum stops after two pairs (with n_modes <= 2 it is the full sum).  A
    free profile has no poles; both sums are then the free-shutter solution.
    """
    if len(problem.modes) < n_modes:
        raise DomainError(f"needs {n_modes} mode(s), problem has {len(problem.modes)}")
    x = _positions(problem, x)
    t_arr = _times(t)
    _broadcast_xt(x, t_arr)
    if not problem.modes:
        if not problem.profile.is_free:
            raise DomainError("problem carries no modes for a non-free profile")
        psi = free_shutter_psi(problem.k, x, t, problem.constants)
        return (), psi, psi
    c = problem.constants
    k = problem.k
    phi = stationary_wave(problem.field, x)
    psi = phi * m_function(y_values(k, t_arr, c)) - np.conj(phi) * m_function(
        y_values(-k, t_arr, c)
    )
    rhos = []
    doublet = None
    for n, mode in enumerate(problem.modes[:n_modes]):
        if n == 2:
            doublet = psi.copy()
        rhos.append(rho(mode, k, x))
        psi -= rhos[-1] * m_function(y_values(mode.pole.k, t_arr, c))
        psi -= rho_mirror(mode, k, x) * m_function(
            y_values(mode.pole.k_mirror, t_arr, c)
        )
    return rhos, psi if doublet is None else doublet, psi


def psi_exact(problem: ShutterProblem, x, t):
    """Psi(x, t) from the full retained pole set.

    x and t broadcast against each other: psi_exact(p, xs[:, None], t)
    gives the (len(xs), len(t)) map in one call.

    Free profiles dispatch to the closed-form free-shutter solution (the
    pole expansion is empty there and does not represent free propagation).
    """
    _, _, psi = _sums(problem, x, t, len(problem.modes))
    return _result(psi)


def psi_doublet_M(problem: ShutterProblem, x, t):
    """The doublet-restricted M-function form: modes 1 and 2 only.

    x and t broadcast against each other, as in psi_exact.
    """
    _, psi, _ = _sums(problem, x, t, 2)
    return _result(psi)


def delta_term(problem: ShutterProblem, x, t):
    """Remainder Delta(x, t) of the two-level reduction.

    Delta = psi_doublet_M - sum_{n=1,2} rho_n [e^{y_k^2} - e^{y_{k_n}^2}];
    the bracket exponentials are the evolution phases e^{-iEt/hbar} and
    e^{-iE_n t/hbar}.  Delta is algebraically the collection of all
    M(y_{-k}) and M(y_{k_{-n}}) pieces, decaying as an inverse power of t;
    at small t it is O(1) and enforces the vanishing initial condition.
    x and t broadcast against each other, as in psi_exact.
    """
    (rho_1, rho_2), doublet, _ = _sums(problem, x, t, 2)
    t_arr = np.asarray(t, dtype=float)
    hbar = problem.constants.hbar_ev_ps
    phase_k, phase_1, phase_2 = (
        np.exp(-1j * E * t_arr / hbar)
        for E in (problem.E, problem.modes[0].pole.E, problem.modes[1].pole.E)
    )
    kept = rho_1 * (phase_k - phase_1) + rho_2 * (phase_k - phase_2)
    return _result(doublet - kept)


def free_shutter_psi(k: float, x: float, t, constants: PhysicalConstants):
    """Closed-form free evolution of the cutoff standing wave, x >= 0.

    Psi = M(x, k, t) - M(x, -k, t) with the position-dependent argument

        M(x, s, t) = 1/2 e^{i x^2/(4 beta t)} w(i zeta_s),
        zeta_s     = e^{-i pi/4} (x - 2 beta s t) / sqrt(4 beta t),

    beta = hbar/2m in nm^2/ps.  Exponent-safe for all real x, t > 0.
    """
    t_arr = _times(t)
    beta = constants.hbar_over_2m
    root = np.sqrt(4.0 * beta * t_arr)
    front = np.exp(1j * x * x / (4.0 * beta * t_arr))
    phase = np.exp(-1j * np.pi / 4.0)
    zeta_p = phase * (x - 2.0 * beta * k * t_arr) / root
    zeta_m = phase * (x + 2.0 * beta * k * t_arr) / root
    return _result(front * (m_function(zeta_p) - m_function(zeta_m)))


@dataclass(frozen=True)
class TransientTrace:
    """|Psi|^2 on a time grid at fixed position and incidence energy."""

    x: float
    E: float
    tau_1: float
    times: np.ndarray
    densities: dict[str, np.ndarray]

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.densities.keys())


def evolve_trace(
    problem: ShutterProblem,
    x: float,
    time_grid,
    methods=(METHOD_EXACT,),
) -> TransientTrace:
    """Densities for the requested method tags on a strictly increasing grid.

    t = 0 entries are served from the initial condition (density 0 inside
    [0, L]).  "exact-N" uses the problem's full mode list; the two-level
    tags use modes 1 and 2; "exponential" is the on-resonance envelope
    T(E) (1 - e^{-t/(2 hbar/Gamma_1)})^2, whose time constant is the
    amplitude decay time 2 hbar/Gamma_1 dictated by the closed two-level
    form at omega_hat_1 = 0.
    """
    _positions(problem, x)
    times = np.asarray(time_grid, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise DomainError("time grid must be a 1-D array")
    if not (np.all(times >= 0) and np.all(np.diff(times) > 0)):
        raise DomainError("time grid must be strictly increasing and >= 0")
    for method in methods:
        if method not in METHODS:
            raise DomainError(f"unknown method tag '{method}'; valid: {METHODS}")
        if len(problem.modes) < _MODES_NEEDED[method]:
            raise DomainError(f"{method} needs {_MODES_NEEDED[method]} mode(s)")
    positive = times > 0
    t_pos = times[positive]
    tau_1 = problem.modes[0].pole.tau if problem.modes else np.nan

    # exact-N and two-level-M are two partial sums of one expansion
    amplitudes = {}
    if METHOD_EXACT in methods or METHOD_TWO_LEVEL_M in methods:
        n_modes = len(problem.modes) if METHOD_EXACT in methods else 2
        _, doublet, full = _sums(problem, x, t_pos, n_modes)
        amplitudes = {METHOD_EXACT: full, METHOD_TWO_LEVEL_M: doublet}

    densities: dict[str, np.ndarray] = {}
    for method in methods:
        if method in amplitudes:
            d = np.abs(amplitudes[method]) ** 2
        elif method == METHOD_TWO_LEVEL_CLOSED:
            mode_1, mode_2 = problem.modes[:2]
            freqs = frequencies(problem.E, mode_1.pole, mode_2.pole)
            d = density_two_level(mode_1, mode_2, freqs, x, problem.k, t_pos)
        else:
            T = abs(problem.field.t) ** 2
            gamma_1 = problem.modes[0].pole.Gamma
            tau_amp = 2.0 * problem.constants.hbar_ev_ps / gamma_1
            d = density_resonant_exponential(T, tau_amp, t_pos)
        densities[method] = np.zeros_like(times)
        densities[method][positive] = d
    return TransientTrace(
        x=float(x), E=problem.E, tau_1=float(tau_1), times=times, densities=densities
    )
