"""Locally periodic structures and their exact oracles (Chebyshev identities).

nb equal barriers with equal wells between them have nb - 1 quasi-levels
per miniband.  Let P_1 be the fundamental matrix of one cell (a barrier,
then a well), mapping (psi, psi') across it, with det 1 and xi = tr P_1 / 2.
N cells then give

    P_N = U_{N-1}(xi) P_1 - U_{N-2}(xi) I,

with U the Chebyshev polynomials of the second kind, and T = 1 exactly where
U_{N-1}(xi) = 0, at xi(E) = cos(j pi/N), j = 1..N-1 (Griffiths & Steinke,
Am. J. Phys. 69, 137 (2001); Sprung, Wu & Martorell, Am. J. Phys. 61, 1118
(1993)).  A trailing well only shifts a phase, so nb barriers count as
N = nb cells for |t| and for the poles.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from qshutter.model import wavenumber


def layers(nb: int, barrier: tuple[float, float], well: float, trailing: bool = False):
    """nb barriers (width nm, height eV) with wells of `well` nm between them,
    and one more well after the last barrier when `trailing`."""
    cells = [barrier, (well, 0.0)] * nb
    return tuple(cells if trailing else cells[:-1])


def cell_matrix(profile, k, barrier: tuple[float, float], well: float) -> np.ndarray:
    """P_1 at an array of real k, shape (2, 2, *k.shape): each layer's
    [[cos qw, sin(qw)/q], [-q sin qw, cos qw]] in complex arithmetic."""
    b, v = barrier[0], barrier[1] / profile.hbar2_over_2m

    def layer(q, w):
        return np.array([[np.cos(q * w), np.sin(q * w) / q], [-q * np.sin(q * w), np.cos(q * w)]])

    bar = layer(np.sqrt(k * k - v + 0j), b).real
    return np.einsum("ij...,jk...->ik...", layer(k, well), bar)


def chebyshev_power(p1: np.ndarray, n: int) -> np.ndarray:
    """P_1^n as U_{n-1}(xi) P_1 - U_{n-2}(xi) I, U by its recurrence."""
    xi = (p1[0, 0] + p1[1, 1]) / 2.0
    below, u = np.zeros_like(xi), np.ones_like(xi)  # U_{-1}, U_0
    for _ in range(n - 1):
        below, u = u, 2.0 * xi * u - below
    return u * p1 - below * np.eye(2).reshape(2, 2, *(1,) * xi.ndim)


def xi(profile, E, barrier: tuple[float, float], well: float) -> np.ndarray:
    """xi(E) = tr P_1 / 2 at real energies E (eV)."""
    p1 = cell_matrix(profile, wavenumber(np.atleast_1d(E), profile).real, barrier, well)
    return (p1[0, 0] + p1[1, 1]) / 2.0


def full_transmission_energies(profile, nb: int, barrier, well) -> tuple[list[float], float]:
    """(the T = 1 energies xi(E) = cos(j pi/nb), j = 1..nb-1, of the first
    miniband, the miniband's top), where xi falls from 1 to -1."""
    E = np.linspace(1e-5, barrier[1], 20001)
    x = xi(profile, E, barrier, well)
    bottom = int(np.flatnonzero(x < 1.0)[0])
    top = bottom + int(np.flatnonzero(x[bottom:] < -1.0)[0])

    def at(e, level):
        return float(xi(profile, e, barrier, well)[0]) - level

    lo, hi = brentq(at, E[bottom - 1], E[bottom], args=(1.0,)), brentq(at, E[top - 1], E[top], args=(-1.0,))
    levels = np.cos(np.arange(1, nb) * np.pi / nb)
    return [brentq(at, lo, hi, args=(level,), xtol=1e-15) for level in levels], hi
