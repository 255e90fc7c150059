"""Closed-form two-level transient density and its frequency bookkeeping.

Dropping the algebraically decaying remainder from the doublet-restricted
solution leaves, up to the global phase e^{-iEt/hbar} (irrelevant for
densities),

    Psi ~ sum_{n=1,2} rho_n (1 - e^{i omega_hat_n t - Gamma_n t/2 hbar})

with omega_hat_n = (E - curlyE_n)/hbar.  density_two_level evaluates this
sum and takes its squared modulus, which is never negative.  The paper
expands the modulus squared into

    |Psi|^2 = |rho_1|^2 chi_1 + |rho_2|^2 chi_2 + 2 Re{rho_1 rho_2* xi_12}

    chi_n  = 1 - 2 cos(omega_hat_n t) e^{-Gamma_n t/2 hbar} + e^{-Gamma_n t/hbar}
    xi_mn  = 1 - e^{i omega_hat_m t - Gamma_m t/2 hbar}
               - e^{-i omega_hat_n t - Gamma_n t/2 hbar}
               + e^{i (omega_hat_m - omega_hat_n) t - (Gamma_m+Gamma_n) t/2 hbar}

chi and xi stay public as that expansion, pinned by the tests; the
evaluator does not use it, because its terms cancel near t = 0, where
rounding can push the expanded sum below 0.
The sign of the cross exponential is pinned by the factorization identity
xi_mn = (1 - e^{i omega_hat_m t - ...})(1 - e^{-i omega_hat_n t - ...}),
which the test suite asserts to 1e-13; chi_n is likewise the squared
modulus |1 - e^{i omega_hat_n t - Gamma_n t/2 hbar}|^2.

On resonance (omega_hat_1 = 0, second mode negligible) the density reduces
to the envelope T (1 - e^{-t/tau})^2 with tau the *amplitude* decay time
2 hbar/Gamma_1, twice the pole lifetime hbar/Gamma_1; chi_1 makes the
factor of two explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .modes import ResonantMode, _rho
from .poles import ResonancePole
from .scattering import _locate, _wave

__all__ = [
    "DoubletFrequencies",
    "frequencies",
    "chi",
    "xi",
    "density_two_level",
    "density_resonant_exponential",
    "dominant_frequency_series",
    "clamp_count",
]


def clamp_count() -> int:
    """Always 0: density_two_level evaluates a squared modulus, which is
    never negative, so nothing is clamped.  Kept because perfbench/run.py
    reads it for its twolevel.clamps metric; it goes when that metric is
    retired with the benchmark's next revision."""
    return 0


def _times(t) -> np.ndarray:
    """t (ps) as a float array; NaN, infinite and negative times raise."""
    t_arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t_arr) & (t_arr >= 0)):
        raise DomainError("t must be finite and >= 0 ps")
    return t_arr


def _broadcast_xt(x, t) -> None:
    """Raise DomainError unless x and t broadcast against each other."""
    try:
        np.broadcast_shapes(np.shape(x), np.shape(t))
    except ValueError:
        raise DomainError(
            f"x of shape {np.shape(x)} and t of shape {np.shape(t)} do not broadcast"
        ) from None


@dataclass(frozen=True)
class DoubletFrequencies:
    """Signed detunings and the Bohr frequency of a resonance doublet.

    omega_hat_n = (E - curlyE_n)/hbar and omega_hat_21 = (curlyE_2 -
    curlyE_1)/hbar in rad/ps; omega_21 = |omega_hat_21|.  Gammas in eV,
    E in eV.
    """

    E: float
    omega_hat_1: float
    omega_hat_2: float
    omega_hat_21: float
    Gamma_1: float
    Gamma_2: float
    hbar: float

    @property
    def omega_21(self) -> float:
        return abs(self.omega_hat_21)

    def _pick(self, n: int) -> tuple[float, float]:
        if n == 1:
            return self.omega_hat_1, self.Gamma_1
        if n == 2:
            return self.omega_hat_2, self.Gamma_2
        raise DomainError(f"level index must be 1 or 2, got {n}")


def frequencies(E: float, pole_1: ResonancePole, pole_2: ResonancePole
                ) -> DoubletFrequencies:
    """Doublet frequencies at incidence energy E (eV); requires
    curlyE_2 > curlyE_1 (ordered, non-degenerate doublet)."""
    if not (0 < E < np.inf):
        raise DomainError(f"E must be finite and > 0 eV, got {E}")
    e1, e2 = pole_1.E_position, pole_2.E_position
    if not (e2 > e1):
        raise DomainError(
            f"doublet must be ordered curlyE_2 > curlyE_1, got {e2} <= {e1}"
        )
    hbar = pole_1.hbar
    return DoubletFrequencies(
        E=float(E),
        omega_hat_1=(E - e1) / hbar,
        omega_hat_2=(E - e2) / hbar,
        omega_hat_21=(e2 - e1) / hbar,
        Gamma_1=pole_1.Gamma,
        Gamma_2=pole_2.Gamma,
        hbar=hbar,
    )


def chi(freqs: DoubletFrequencies, n: int, t):
    """chi_n(E, t) in [0, 4]; vectorized over t >= 0."""
    omega, gamma = freqs._pick(n)
    t_arr = _times(t)
    g = gamma * t_arr / (2.0 * freqs.hbar)
    out = 1.0 - 2.0 * np.cos(omega * t_arr) * np.exp(-g) + np.exp(-2.0 * g)
    return float(out) if np.asarray(t).ndim == 0 else out


def xi(freqs: DoubletFrequencies, m: int, n: int, t):
    """xi_mn(E, t), complex; the cross term of the two-level density."""
    if m == n:
        raise DomainError(f"xi needs m != n, got m = n = {m}")
    om, gm = freqs._pick(m)
    on, gn = freqs._pick(n)
    t_arr = _times(t)
    h2 = 2.0 * freqs.hbar
    out = (
        1.0
        - np.exp(1j * om * t_arr - gm * t_arr / h2)
        - np.exp(-1j * on * t_arr - gn * t_arr / h2)
        + np.exp(1j * (om - on) * t_arr - (gm + gn) * t_arr / h2)
    )
    return complex(out) if np.asarray(t).ndim == 0 else out


def density_two_level(
    mode_1: ResonantMode,
    mode_2: ResonantMode,
    freqs: DoubletFrequencies,
    x,
    k: float,
    t,
):
    """|Psi|^2 = |sum_{n=1,2} rho_n (1 - e^{i omega_hat_n t - Gamma_n t/2 hbar})|^2.

    x and t broadcast against each other, as in psi_exact; the result is a
    float only when both are scalars.  It is 0 at t = 0 and tends to
    |rho_1 + rho_2|^2 as t -> infinity.  A squared modulus is never
    negative; the chi/xi expansion reaches the same value by cancelling
    terms of order |rho_n|^2 and loses digits near t = 0.
    """
    _broadcast_xt(x, t)
    located = _locate(mode_1.edges, x)
    r1, r2 = (_rho(m, k, _wave(m.q, m.coefficients, *located)) for m in (mode_1, mode_2))
    t_arr = _times(t)
    h2 = 2.0 * freqs.hbar
    psi = sum(
        r * (1.0 - np.exp((1j * omega - gamma / h2) * t_arr))
        for r, (omega, gamma) in ((r1, freqs._pick(1)), (r2, freqs._pick(2)))
    )
    d = np.abs(psi) ** 2
    return float(d) if d.ndim == 0 else d


def density_resonant_exponential(T_peak: float, tau_1: float, t):
    """Envelope T_peak (1 - e^{-t/tau_1})^2.

    tau_1 is whatever decay time the caller intends; for the on-resonance
    density envelope that is the amplitude time 2 hbar/Gamma_1 (see module
    docstring), while pole lifetimes remain hbar/Gamma_n.
    """
    if not (0.0 <= T_peak <= 1.0):
        raise DomainError(f"T_peak must be in [0, 1], got {T_peak}")
    if not (tau_1 > 0):
        raise DomainError(f"tau_1 must be > 0 ps, got {tau_1}")
    t_arr = _times(t)
    out = T_peak * (1.0 - np.exp(-t_arr / tau_1)) ** 2
    return float(out) if np.asarray(t).ndim == 0 else out


def dominant_frequency_series(times, values) -> float | None:
    """Angular frequency (rad/ps) of the strongest non-DC spectral peak.

    Mean-subtracted rfft with 16x zero padding and three-point parabolic
    peak interpolation; the padding buys the interpolation enough bin
    resolution for percent-level accuracy on a 10-lifetime window.
    Returns None when the series carries no oscillation above the noise
    floor (flat trace, or no peak standing out of the spectral background).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.ndim != 1 or times.shape != values.shape or len(times) < 8:
        raise DomainError("need matching 1-D arrays with >= 8 samples")
    if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
        raise DomainError("times and values must be finite")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise DomainError("time grid must be uniform")
    dt = float(steps[0])
    s = values - values.mean()
    scale = max(float(np.max(np.abs(values))), 1e-300)
    if float(np.max(np.abs(s))) < 1e-12 * scale:
        return None
    n_pad = 16 * len(s)
    amp = np.abs(np.fft.rfft(s, n=n_pad))
    if len(amp) < 4:
        return None
    p = int(np.argmax(amp[1:])) + 1
    if amp[p] < 5.0 * np.median(amp[1:]):
        return None
    if 1 <= p < len(amp) - 1:
        a, b, c = amp[p - 1], amp[p], amp[p + 1]
        denom = a - 2.0 * b + c
        delta = 0.5 * (a - c) / denom if denom != 0 else 0.0
    else:
        delta = 0.0
    return float(2.0 * np.pi * (p + delta) / (n_pad * dt))

