"""Transient M-functions and their Faddeeva-function kernel.

    w(z)  = e^{-z^2} erfc(-iz)          (Faddeeva / complex error function)
    M(y)  = w(iy)/2
    y_s   = e^{i 3pi/4} sqrt(hbar/2m) s sqrt(t),   s a (complex) wave number

M(y_s) carries the entire time dependence of the transient solution.  The
argument construction embeds the identity

    y_s^2 = -i (hbar s^2 / 2m) t = -i E_s t / hbar

so e^{y_s^2} is the evolution phase of energy E_s: unimodular for real s,
decaying like e^{-Gamma t/2 hbar} for fourth-quadrant poles.

Accuracy contract: relative 1e-12 for |z| <= 10 and 1e-10 elsewhere, all
quadrants.  scipy's wofz meets this with two orders of margin (checked
against the 50-digit reference.faddeeva in the test suite); near the
lower-half-plane zeros of w the *relative* error is limited by the
condition number of the reflection w(z) = 2e^{-z^2} - w(-z), which no
double-precision algorithm escapes.

All four argument classes occurring in the transient solution (s = +-k real,
s = k_n fourth quadrant, s = -k_n* third quadrant) map to regions where wofz
is exponent-safe: |e^{y^2}| <= 1 whenever the reflection is triggered
internally, and the algebraic 1/(2 sqrt(pi) y) sector otherwise.

scipy.special is imported on the first evaluation, not with the package:
transfer matrices, T(E), poles and modes never need it, and it is most of
the package's import time.
"""

from __future__ import annotations

import numpy as np

from .model import _complex_array, _complex_finite, _real_finite, _times

__all__ = [
    "faddeeva",
    "m_function",
    "m_function_scaled",
    "y_values",
    "Y_PHASE",
]

# e^{i 3pi/4}, the fixed phase of every transient argument
Y_PHASE = complex(np.exp(1j * 3.0 * np.pi / 4.0))

# scipy's wofz once _wofz has imported it
_WOFZ = None


def _wofz():
    """scipy.special.wofz, imported on the first call and kept."""
    global _WOFZ
    if _WOFZ is None:
        from scipy.special import wofz

        _WOFZ = wofz
    return _WOFZ


def faddeeva(z):
    """w(z) = e^{-z^2} erfc(-iz), vectorized over complex arrays."""
    return _wofz()(_complex_array(z, "z"))


def m_function(y):
    """M(y) = w(iy)/2, vectorized."""
    return 0.5 * _wofz()(1j * np.asarray(_complex_array(y, "y"), dtype=complex))


def m_function_scaled(y):
    """M(y) e^{-y^2}, stable when Re(y^2) is large and positive.

    Direct evaluation of M(y) overflows for Re y < 0 with Re(y^2) large
    (M(y) ~ e^{y^2}); the reflection M(y) = e^{y^2} - M(-y) factors the
    exponential out:  M(y) e^{-y^2} = 1 - M(-y) e^{-y^2}, where M(-y) is in
    the bounded algebraic sector.  Intended for Re(y^2) >= 0; for
    Re(y^2) < 0 the product itself is exponentially large and the direct
    branch overflows honestly.
    """
    wofz = _wofz()
    y = np.asarray(_complex_array(y, "y"), dtype=complex)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.empty(y.shape, dtype=complex)
    left = y.real < 0.0
    # bounded sector: M(y) <= O(1), e^{-y^2} <= 1 when Re(y^2) >= 0
    out[~left] = 0.5 * wofz(1j * y[~left]) * np.exp(-y[~left] ** 2)
    out[left] = 1.0 - 0.5 * wofz(-1j * y[left]) * np.exp(-y[left] ** 2)
    return out[0] if scalar else out


def y_values(s, t, hbar_over_2m: float):
    """y_s for a finite wave number s (nm^-1) at times t (ps); scalar or array t.

    hbar/2m = (hbar^2/2m)/hbar > 0 has units nm^2/ps, so y is dimensionless.
    """
    t = _times(t)
    beta = _real_finite(hbar_over_2m, "hbar_over_2m (nm^2/ps)", positive=True)
    return Y_PHASE * np.sqrt(beta) * _complex_finite(s, "s") * np.sqrt(t)
