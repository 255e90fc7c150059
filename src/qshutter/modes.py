"""Resonant (Gamow) states u_n(x) and the expansion factors rho_n(x, k).

A resonant state solves the stationary equation at the complex pole wave
number k_n with purely outgoing boundary conditions,

    u'(0) = -i k_n u(0),      u'(L) = +i k_n u(L),

and is normalized by the resonant-state convention

    integral_0^L u_n^2 dx + i [u_n^2(0) + u_n^2(L)] / (2 k_n) = 1

(note: square, not modulus squared; the surface term regularizes the
divergent exterior of an outgoing solution).  This convention is what makes
the two-level truncation of the stationary wave quantitatively correct; the
truncation test in the suite doubles as its validation.

solve_mode builds u_n from scattering's two outgoing pieces, each exact at
its own end: the right piece is scaled to meet the left one at the edge
scattering's join test (_join) picks, the test the pole search certifies
its poles with.  At a converged pole the Wronskian of the pieces vanishes,
so (u, u') agree there to rounding.

The expansion factor of the transient solution is

    rho_n(x, k) = 2 i k u_n(0) u_n(x) / (k^2 - k_n^2),

with third-quadrant partners k_{-n} = -k_n*, u_{-n} = u_n*.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PoleQualityError
from .model import PotentialProfile, _real_finite
from .poles import ResonancePole
from .scattering import _growth, _join, _layers, _outgoing, layered_wave

__all__ = ["ResonantMode", "solve_mode", "rho", "rho_mirror"]


@dataclass(frozen=True)
class ResonantMode:
    """Normalized u_n represented by per-edge (value, derivative) pairs.

    Row j of the complex (n_layers + 1, 2) coefficients array is (u, u') at
    edges[j], so inside layer j

        u(edges[j] + xi) = A_j cos(q_j xi) + B_j sin(q_j xi)/q_j .

    outgoing_residual is the join test's relative mismatch of (u, u') at the
    join edge (scattering module docstring); with the join at x = L, where
    u_R = 1 and u_R' = i k_n, it is the exit-condition residual
    |u'(L) - i k_n u(L)| / (|u'(L)| + |k_n u(L)|).
    normalization_residual is |integral + surface term - 1| after scaling.
    u0 is 1/sqrt(N), N the unscaled integral + surface term, on numpy's
    principal branch, so Re u0 >= 0 (solve_mode).  Row n = n_layers is
    (u(L), i k_n u(L)) at x = L, with q[n] = k_n; u0 and uL are rows 0 and
    n's values, so u(0) == u0 and u(L) == uL bit for bit.
    edges, q and coefficients are read-only: make_spectrum hands one mode
    to every caller that asks for its profile.
    """

    pole: ResonancePole
    edges: np.ndarray
    q: np.ndarray
    coefficients: np.ndarray
    u0: complex
    uL: complex
    outgoing_residual: float
    normalization_residual: float

    def u(self, x):
        """u_n(x) for x in [0, L]; scalar or array."""
        return layered_wave(self.edges, self.q, self.coefficients, x)


def _layer_integral(a: complex, b: complex, q: complex, w: float) -> complex:
    """integral_0^w (a cos(q xi) + b sin(q xi)/q)^2 d xi in closed form.

    From |2 q w| = 0.1 up the wave is A e^{iq xi} + B e^{-iq(xi - w)} with
    Im q >= 0, A from (u, u') at xi = 0 and B from (u, u') at xi = w, so
    that each part is largest at its own edge, and

        (A^2 + B^2) (e^{2iqw} - 1)/(2iq) + 2 A B w e^{iqw}

    keeps its digits in an evanescent layer, where the cosh^2 and sinh^2
    terms of the (a, b) form below cancel.  Below, where A and B cancel
    instead, it is a^2 (w/2)(1+S) + 2 b^2 w^3 U + 2 a b w^2 V with z = 2 q w,
    S = sin(z)/z, U = (1-S)/z^2 and V = (1-cos z)/z^2, each summed as its
    series in z^2 through z^6 (~3e-14 truncation).
    """
    z = 2.0 * q * w
    if abs(z) < 0.1:
        z2 = np.complex128(z * z)  # numpy's complex / float rounds unlike Python's
        s = 1.0 - z2 / 6.0 + z2 * z2 / 120.0 - z2**3 / 5040.0
        u = 1.0 / 6.0 - z2 / 120.0 + z2 * z2 / 5040.0 - z2**3 / 362880.0
        v = 0.5 - z2 / 24.0 + z2 * z2 / 720.0 - z2**3 / 40320.0
        return a * a * (w / 2.0) * (1.0 + s) + 2.0 * b * b * w**3 * u + 2.0 * a * b * w**2 * v
    q = q if q.imag >= 0 else -q
    c, s, h = cmath.cos(q * w), cmath.sin(q * w), cmath.exp(1j * q * w)
    value, slope = a * c + b * s / q, b * c - a * q * s
    A = (a - 1j * b / q) / 2.0
    B = (value + 1j * slope / q) / 2.0
    return (A * A + B * B) * (h * h - 1.0) / (2j * q) + 2.0 * A * B * w * h


def _norm_square(coeffs: np.ndarray, q: np.ndarray, profile: PotentialProfile, k_n):
    """integral_0^L u^2 dx over the layers (rows 0 to n - 1) + surface term,
    with u(0) and u(L) read from rows 0 and n."""
    total = 0.0 + 0.0j
    for (a, b), q_j, w in zip(coeffs.tolist(), q.tolist(), profile.widths.tolist()):
        total += _layer_integral(a, b, q_j, w)
    u0, uL = coeffs[0, 0], coeffs[-1, 0]
    return total + 1j * (u0 * u0 + uL * uL) / (2.0 * k_n)


def solve_mode(profile: PotentialProfile, pole: ResonancePole) -> ResonantMode:
    """Join the two outgoing pieces, verify the join, and normalize u_n.

    The left piece starts as (1, -i k_n) at x = 0, the right piece as
    (1, +i k_n) at x = L; the right piece is scaled to meet the left one at
    the join edge (see ResonantMode).  That edge is never x = 0, so the
    unscaled u(0) is the left start's 1, and the scale is u_n(0).
    """
    k_n = pole.k
    # a batch of one point: the pieces walk in Python numbers (_outgoing)
    k = np.array([k_n])
    layers = _layers(profile, k)
    q = np.append(layers[0][:, 0], k_n)
    left, right = _outgoing(layers, k)
    (edge,), (residual,), (alpha,) = _join(_growth(layers), left, right, k)
    if residual == np.inf:
        raise PoleQualityError(
            f"pole n={pole.index}: no join edge where both outgoing pieces keep "
            f"their digits; pole likely unconverged"
        )
    if residual > 1e-6:
        raise PoleQualityError(
            f"pole n={pole.index}: outgoing residual {residual:.3e} at the join "
            f"x = {profile.edges[edge]:g} nm; pole likely unconverged"
        )
    coeffs = np.concatenate((left[:edge, :, 0], alpha * right[edge:, :, 0]))
    coeffs = coeffs * (1.0 / np.sqrt(_norm_square(coeffs, q, profile, k_n)))
    norm_residual = abs(_norm_square(coeffs, q, profile, k_n) - 1.0)
    for array in (profile.edges, q, coeffs):
        array.flags.writeable = False
    u0, uL = coeffs[0, 0], coeffs[-1, 0]
    return ResonantMode(
        pole, profile.edges, q, coeffs, u0, uL, float(residual), float(norm_residual)
    )


def rho(mode: ResonantMode, k: float, x):
    """rho_n(x, k) = 2 i k u_n(0) u_n(x) / (k^2 - k_n^2) for real k."""
    return _rho(mode, _real_finite(k, "k"), mode.u(x))


def _rho(mode: ResonantMode, k: float, u):
    """rho's formula for a caller that already holds u = u_n(x)."""
    k = float(k)
    k_n = mode.pole.k
    return 2j * k * mode.u0 * u / (k * k - k_n * k_n)


def rho_mirror(mode: ResonantMode, k: float, x):
    """rho_{-n}(x, k): partner at k_{-n} = -k_n* with u_{-n} = u_n*.

    Substituting the partner into rho's formula gives rho_n(x, -k)* = -rho_n(x, k)*.
    """
    return -np.conj(rho(mode, k, x))
