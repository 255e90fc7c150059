"""Stationary scattering on a layered profile via the transfer matrix.

Interior propagation uses the fundamental pair (cos qx, sin qx / q), which
is entire in q^2, so evanescent layers (q imaginary) and the q -> 0
degeneracy need no separate code path; one complex formula covers every
layer.  Exterior phase convention:

    x <= 0:  e^{ikx} + r e^{-ikx}
    x >= L:  t e^{ikx}            (so Phi(L) = t e^{ikL}, |Phi(L)|^2 = T)

The transfer matrix M relates exterior plane-wave coefficient pairs,
(A_right, B_right) = M (A_left, B_left), with det M = 1 for equal exterior
potentials; then t = 1/m22 and r = -m21/m22.  m22 is analytic in k away
from k = 0, and its zeros are exactly the transmission-amplitude poles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OverflowGuardError, QShutterError
from .model import PotentialProfile

__all__ = [
    "TransferMatrix",
    "StationaryField",
    "transfer_matrix",
    "solve_stationary",
    "transmission",
    "stationary_wave",
    "layered_wave",
]

# |Im(q) * width| above this would push layer exponentials toward the
# double-precision ceiling; raise a diagnosable error instead
OVERFLOW_GUARD = 300.0


@dataclass(frozen=True)
class TransferMatrix:
    m11: complex
    m12: complex
    m21: complex
    m22: complex

    @property
    def determinant(self) -> complex:
        return self.m11 * self.m22 - self.m12 * self.m21

    @property
    def t(self) -> complex:
        """Transmission amplitude (det M = 1 identities fold into m22)."""
        return 1.0 / self.m22

    @property
    def r(self) -> complex:
        return -self.m21 / self.m22


@dataclass(frozen=True)
class StationaryField:
    """Phi(x, k) inside [0, L]: exterior amplitudes plus per-layer data.

    Layer j covers [edges[j], edges[j+1]] with local wave number q[j]; row j
    of the complex (n_layers, 2) coefficients array is (A_j, B_j) = (Phi,
    Phi') at the layer's left edge, so

        Phi(edges[j] + xi) = A_j cos(q_j xi) + B_j sin(q_j xi)/q_j .
    """

    k: complex
    r: complex
    t: complex
    edges: np.ndarray
    q: np.ndarray
    coefficients: np.ndarray


def _layer_q(profile: PotentialProfile, k: complex) -> np.ndarray:
    """Local wave numbers q_j = sqrt(k^2 - V_j/(hbar^2/2m)), principal branch.

    The propagation formulas are even in q, so the branch is irrelevant;
    principal is used for determinism.
    """
    h22m = profile.constants.hbar2_over_2m
    v = np.array([l.height for l in profile.layers], dtype=complex)
    return np.sqrt(complex(k) ** 2 - v / h22m)


def _cos_sinc(z: complex) -> tuple[complex, complex]:
    """cos z and sin(z)/z, series fallback below |z| = 1e-6."""
    if abs(z) < 1e-6:
        z2 = z * z
        return 1.0 - z2 / 2.0, 1.0 - z2 / 6.0
    return np.cos(z), np.sin(z) / z


def _propagate(profile: PotentialProfile, k: complex):
    """Per-layer fundamental matrices; raises on guarded overflow."""
    q = _layer_q(profile, k)
    mats = []
    for j, layer in enumerate(profile.layers):
        z = q[j] * layer.width
        if abs(z.imag) > OVERFLOW_GUARD:
            raise OverflowGuardError(j, abs(z.imag))
        c, s = _cos_sinc(z)
        w_sinc = layer.width * s
        mats.append(np.array([[c, w_sinc], [-q[j] ** 2 * w_sinc, c]], dtype=complex))
    return q, mats


def _march(mats, start) -> tuple[np.ndarray, np.ndarray]:
    """(value, derivative) at each layer's left edge, and at x = L."""
    pairs = np.empty((len(mats), 2), dtype=complex)
    vec = np.asarray(start, dtype=complex)
    for j, m in enumerate(mats):
        pairs[j] = vec
        vec = m @ vec
    return pairs, vec


def transfer_matrix(profile: PotentialProfile, k: complex) -> TransferMatrix:
    """Exterior plane-wave transfer matrix at (possibly complex) k != 0."""
    k = complex(k)
    if k == 0:
        raise DomainError("k = 0: exterior plane waves undefined")
    _, mats = _propagate(profile, k)
    # P maps (psi, psi') at x=0 to x=L
    p = np.eye(2, dtype=complex)
    for m in mats:
        p = m @ p
    L = profile.total_length
    ekl = np.exp(1j * k * L)
    # basis change (A, B) -> (psi, psi') at x = 0 and its inverse at x = L
    c0 = np.array([[1.0, 1.0], [1j * k, -1j * k]], dtype=complex)
    cl_inv = np.array(
        [[0.5 / ekl, 1.0 / (2j * k * ekl)], [0.5 * ekl, -ekl / (2j * k)]],
        dtype=complex,
    )
    m = cl_inv @ p @ c0
    return TransferMatrix(m11=m[0, 0], m12=m[0, 1], m21=m[1, 0], m22=m[1, 1])


def solve_stationary(profile: PotentialProfile, k: complex) -> StationaryField:
    """Full interior solution Phi(x, k) for exterior incidence from the left."""
    tm = transfer_matrix(profile, k)
    k = complex(k)
    r, t = tm.r, tm.t
    q, mats = _propagate(profile, k)
    # (Phi, Phi') at x = 0 from the exterior convention
    pairs, _ = _march(mats, (1.0 + r, 1j * k * (1.0 - r)))
    return StationaryField(k=k, r=r, t=t, edges=profile.edges, q=q, coefficients=pairs)


def transmission(profile: PotentialProfile, E: float) -> tuple[complex, float]:
    """(t, T = |t|^2) at real incidence energy E > 0 (eV)."""
    if not (np.isreal(E) and E > 0):
        raise DomainError(f"transmission needs real E > 0 eV, got {E}")
    from .model import wavenumber

    t = transfer_matrix(profile, wavenumber(float(E), profile)).t
    T = abs(t) ** 2
    if T > 1.0 + 1e-9:
        raise QShutterError(f"unitarity violated: T = {T}")
    return t, float(T)


def layered_wave(edges: np.ndarray, q: np.ndarray, coefficients: np.ndarray, x):
    """A_j cos(q_j xi) + B_j xi sin(q_j xi)/(q_j xi) in the layer j holding x.

    xi = x - edges[j]; x must lie in [0, L] and may be a scalar (gives a
    complex) or an array (gives an array of its shape).  A point on an
    interface belongs to the layer on its right, x = L to the last layer.
    """
    x = np.asarray(x, dtype=float)
    if not np.all((x >= 0.0) & (x <= edges[-1])):
        raise DomainError(f"x must lie in [0, {float(edges[-1])}] nm")
    j = np.minimum(edges.searchsorted(x, side="right") - 1, len(q) - 1)
    xi = x - edges[j]
    z = q[j] * xi
    # sin(z)/z is accurate as it stands down to z = 0, where it takes its limit 1
    at_zero = z == 0
    sinc = np.sin(z) / (z + at_zero) + at_zero
    wave = coefficients[j, 0] * np.cos(z) + coefficients[j, 1] * xi * sinc
    return complex(wave) if wave.ndim == 0 else wave


def stationary_wave(field: StationaryField, x):
    """Phi(x, k) for x in [0, L]; accepts scalars or arrays."""
    return layered_wave(field.edges, field.q, field.coefficients, x)
