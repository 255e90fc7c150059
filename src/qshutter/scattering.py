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

One kernel, _layers, builds every layer's matrix entries elementwise over
a scalar or an array of k, and transfer_matrix, solve_stationary and the
resonant-mode solver all consume it.  transfer_matrix and transmission
therefore take whole arrays: a T(E) scan over a window (the pole seeding,
the CLI sweep) is a few array passes with no Python loop over points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OverflowGuardError, QShutterError
from .model import PotentialProfile, wavenumber

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

# points per array evaluation in transmission: scan windows reach ~10^6
# points, and one unblocked pass holds several complex arrays of that size
# per layer
_BLOCK = 2048


@dataclass(frozen=True)
class TransferMatrix:
    """Entries of M: complex for a scalar k, arrays of k's shape for an array."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex

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


def _layers(profile: PotentialProfile, k):
    """Per-layer (q, c, ws), elementwise over a scalar or array k.

    Each output has shape (n_layers, *k.shape).  Layer j's fundamental
    matrix, mapping (psi, psi') across the layer, is [[c, ws], [-q^2 ws, c]]
    with z = q w, c = cos z and ws = w sin(z)/z (series below |z| = 1e-6).
    q = sqrt(k^2 - V_j/(hbar^2/2m)) on the principal branch; the matrix is
    even in q, so the branch only fixes q for determinism.  Raises
    OverflowGuardError for the first point of k (in C order) that trips the
    guard, naming its lowest offending layer.
    """
    k = np.asarray(k, dtype=complex)
    h22m = profile.constants.hbar2_over_2m
    column = (-1,) + (1,) * k.ndim
    v = np.array([l.height for l in profile.layers]).reshape(column) / h22m
    w = np.array([l.width for l in profile.layers]).reshape(column)
    q = np.sqrt(k * k - v)
    z = q * w
    exponent = np.abs(z.imag).reshape(len(w), -1)
    over = exponent > OVERFLOW_GUARD
    if over.any():
        point = int(over.any(axis=0).argmax())
        layer = int(over[:, point].argmax())
        raise OverflowGuardError(layer, float(exponent[layer, point]), point)
    small = np.abs(z) < 1e-6
    z2 = z * z
    zs = np.where(small, 1.0, z)
    c = np.where(small, 1.0 - z2 / 2.0, np.cos(z))
    ws = w * np.where(small, 1.0 - z2 / 6.0, np.sin(zs) / zs)
    return q, c, ws


def _march(layers, value, slope) -> tuple[np.ndarray, np.ndarray]:
    """Carry (psi, psi') from x = 0 across the layers, elementwise.

    value and slope broadcast against the layers' point shape s; returns the
    pairs at each layer's left edge, shape (n_layers, 2, *s), and the pair
    at x = L, shape (2, *s).
    """
    q, c, ws = layers
    shape = np.broadcast_shapes(np.shape(value), np.shape(slope), q.shape[1:])
    pairs = np.empty((len(q), 2, *shape), dtype=complex)
    for j, (qj, cj, wsj) in enumerate(zip(q, c, ws)):
        pairs[j, 0], pairs[j, 1] = value, slope
        value, slope = cj * value + wsj * slope, -qj * qj * wsj * value + cj * slope
    return pairs, np.array((value, slope), dtype=complex)


def _nonzero_k(k):
    k = np.asarray(k, dtype=complex)
    if (k == 0).any():
        raise DomainError("k = 0: exterior plane waves undefined")
    return k


def _exterior(profile: PotentialProfile, k, layers):
    """Transfer matrix from the kernel output, plus the per-layer pairs.

    The basis waves e^{+ikx} and e^{-ikx}, (psi, psi') = (1, +-ik) at x = 0,
    are marched to x = L together (the product P c0 of the layer matrices
    and the basis change), then read off as plane-wave amplitudes there.
    """
    ik = 1j * k
    slope = np.array([ik, -ik])
    pairs, (value, slope) = _march(layers, np.ones_like(slope), slope)
    ekl = np.exp(ik * profile.total_length)
    # column j holds the exterior amplitudes at x = L of basis wave j
    right = 0.5 * (value + slope / ik) / ekl
    left = 0.5 * (value - slope / ik) * ekl
    return TransferMatrix(m11=right[0], m12=right[1], m21=left[0], m22=left[1]), pairs


def transfer_matrix(profile: PotentialProfile, k) -> TransferMatrix:
    """Exterior plane-wave transfer matrix at (possibly complex) k != 0.

    Elementwise over k: a scalar gives complex fields, an array gives
    arrays of its shape.
    """
    k = _nonzero_k(k)
    return _exterior(profile, k, _layers(profile, k))[0]


def solve_stationary(profile: PotentialProfile, k: complex) -> StationaryField:
    """Full interior solution Phi(x, k) for exterior incidence from the left."""
    k = _nonzero_k(complex(k))
    layers = _layers(profile, k)
    tm, pairs = _exterior(profile, k, layers)
    r, t = tm.r, tm.t
    # Phi = e^{ikx} + r e^{-ikx} at x = 0, so its pairs combine the two basis waves
    coefficients = pairs[..., 0] + r * pairs[..., 1]
    return StationaryField(
        k=complex(k), r=r, t=t, edges=profile.edges, q=layers[0], coefficients=coefficients
    )


def transmission(profile: PotentialProfile, E):
    """(t, T = |t|^2) at real, finite incidence energies E > 0 (eV).

    A scalar E gives (complex, float); an array gives arrays of its shape,
    evaluated in blocks of _BLOCK points to bound the working memory.  The
    unitarity and overflow errors are raised for the point a loop over E
    in C order would meet first.
    """
    E = np.asarray(E)
    valid = np.isreal(E) & (E.real > 0) & (E.real < np.inf)
    if not valid.all():
        raise DomainError(f"transmission needs real finite E > 0 eV, got {E[~valid][0]}")
    k = np.atleast_1d(wavenumber(E.real, profile)).ravel()
    t = np.empty(k.shape, dtype=complex)
    for start in range(0, k.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        try:
            t[block] = transfer_matrix(profile, k[block]).t
        except OverflowGuardError as err:
            # a loop over E meets the points before the guarded one first
            _check_unitarity(transfer_matrix(profile, k[block][: err.point]).t)
            raise
        _check_unitarity(t[block])
    T = np.abs(t) ** 2
    if E.ndim == 0:
        return complex(t[0]), float(T[0])
    return t.reshape(E.shape), T.reshape(E.shape)


def _check_unitarity(t: np.ndarray) -> None:
    T = np.abs(t) ** 2
    over = T > 1.0 + 1e-9
    if over.any():
        raise QShutterError(f"unitarity violated: T = {float(T[over.argmax()])}")


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
