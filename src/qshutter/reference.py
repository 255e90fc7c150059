"""Arbitrary-precision references for the selftest and the tests: mpmath at
_DPS digits on the binary inputs the pipeline sees (layer widths, heights and
hbar^2/2m, or float arguments).  `import qshutter` loads neither it nor mpmath.
Each oracle takes Python, numpy and mpmath numbers, and refuses a string or a
bool (_numbers), which mpmath would parse or read as 0 or 1, and an array.
"""

import mpmath as mp
import numpy as np

from .errors import DomainError, PoleConvergenceError

__all__ = ["faddeeva", "free_shutter_psi", "transmission", "pole", "layer_integral"]

_DPS = 50


def _numbers(*args) -> None:
    """Raise DomainError if an argument is a str, a bool or not 0-d (a
    ragged sequence, which numpy refuses to read as an array, included)."""
    try:
        if not any(isinstance(arg, (str, bool, np.bool_)) or np.ndim(arg) for arg in args):
            return
    except ValueError:
        pass
    raise DomainError(f"the references take numbers, got {args!r}")


def faddeeva(z):
    """w(z) = e^{-z^2} erfc(-iz) as an mpc; z a complex or an mpc."""
    _numbers(z)
    with mp.workdps(_DPS):
        z = mp.mpc(z)
        return mp.exp(-z * z) * mp.erfc(-1j * z)


def free_shutter_psi(k: float, x: float, t: float, beta: float) -> complex:
    """transient.free_shutter_psi's closed form, M(y) = w(iy)/2, as a complex."""
    _numbers(k, x, t, beta)
    with mp.workdps(_DPS):
        root, phase = mp.sqrt(4 * mp.mpf(beta) * t), mp.exp(-1j * mp.pi / 4)
        zp, zm = (phase * (x - 2 * beta * s * t) / root for s in (k, -k))
        front = mp.exp(1j * mp.mpf(x) ** 2 / (4 * mp.mpf(beta) * t))
        return complex(front * (faddeeva(1j * zp) - faddeeva(1j * zm)) / 2)


def _march(profile, k, u, du):
    """(u, u') at x = L from (u, du) at x = 0, at the caller's precision (findroot adds 20 bits)."""
    h22m = mp.mpf(profile.hbar2_over_2m)
    for layer in profile.layers:
        q = mp.sqrt(k * k - mp.mpf(layer.height) / h22m)
        c, s = mp.cos(q * layer.width), mp.sin(q * layer.width)
        u, du = c * u + s / q * du, -q * s * u + c * du
    return u, du


def transmission(profile, k: float):
    """T = 4/(s^2 + d^2) at a real k as an mpf, s = P11 + P22 and d = k P12 - P21/k
    as scattering._m22 forms them."""
    _numbers(k)
    with mp.workdps(_DPS):
        k = mp.mpmathify(k)
        (p11, p21), (p12, p22) = _march(profile, k, 1, 0), _march(profile, k, 0, 1)
        s, d = p11 + p22, k * p12 - p21 / k
        return mp.re(4 / (s * s + d * d))


def pole(profile, k0: complex) -> complex:
    """The zero of m22 next to k0 as a complex, by mpmath's secant on ik u(L) - u'(L)
    for the wave marched from (1, -ik).  A root to less than ~1e-26 (|f| not far
    below f's change over a relative 1e-20) raises PoleConvergenceError."""
    _numbers(k0)
    with mp.workdps(_DPS):
        def outgoing(k):
            u, du = _march(profile, k, 1, -1j * k)
            return 1j * k * u - du

        start = mp.mpc(k0)
        root = mp.findroot(outgoing, (start, start * (1 + mp.mpf(10) ** -10)), verify=False)
        if not abs(outgoing(root)) < 1e-6 * abs(outgoing(root * (1 + mp.mpf(10) ** -20))):
            raise PoleConvergenceError(f"the secant from {k0} found no root", [complex(root)])
        return complex(root)


def layer_integral(a: complex, b: complex, q: complex, w: float):
    """integral_0^w (a cos(q xi) + b sin(q xi)/q)^2 d xi by mp.quad, as an mpc."""
    _numbers(a, b, q, w)
    with mp.workdps(_DPS):
        return mp.quad(lambda xi: (a * mp.cos(q * xi) + b * mp.sin(q * xi) / q) ** 2, [0, w])
