"""Time-dependent shutter solution inside the structure.

At t = 0 a shutter at x = 0 releases the cutoff standing wave

    Psi(x, k; 0) = e^{ikx} - e^{-ikx}   (x <= 0),      0   (x > 0).

For 0 <= x <= L the solution is the resonance expansion

    Psi = Phi_k M(y_k) - Phi_k* M(y_{-k})
          - sum_n [ rho_n M(y_{k_n}) + rho_{-n} M(y_{k_{-n}}) ]

with x-independent arguments y_s = e^{i 3pi/4} sqrt(hbar/2m) s sqrt(t) and
the sum over the retained fourth-quadrant poles and their third-quadrant
partners.  As M(y) + M(-y) = e^{y^2} and y_k^2 = -iEt/hbar, the incidence
pair is Phi_k e^{-iEt/hbar} - 2 Re(Phi_k) M(y_{-k}): the stationary wave
appears explicitly, and it takes one Faddeeva column.  The partner terms
are not optional: they carry the cancellation that makes Psi vanish as
t -> 0+.  The truncated sum leaves a residual there: at the triple barrier's
doublet center |Psi(L, 1e-6 ps)|^2/T reads 1.2e-1, 6.1e-5, 7.7e-5, 9.3e-6,
6.3e-4, 3.3e-4 for N = 1..6, which is not monotone and so no measure of
convergence in N (ROADMAP item 8).  Every M-function method is a partial
sum of this one expansion (see _sums).  x enters only through the 2 + 2N
coefficients [Phi, -Phi*, -rho_n, rho_n*] and t only through the M(y_s)
columns, both in conjugate pairs, so the sum is one real matrix product of
the x rows and a block of pair columns.  The columns are kept per time grid
(see _block), and a problem keeps the rows of each scalar x it evaluates
(see ShutterProblem._x_rows).

On a free profile the expansion degenerates (no poles) and does not reduce
to the free propagation of the cutoff wave; psi_exact dispatches to the
closed-form free-shutter solution with the position-dependent argument in
that case.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DomainError
from .mfunc import m_function, y_values
from .model import (
    HBAR_EV_PS, PotentialProfile, _broadcast_xt, _count, _positive_times, _real_array,
    _real_finite, _times, wavenumber,
)
from .modes import ResonantMode, _rho, solve_mode
from .poles import ResonancePole, find_poles
from .scattering import StationaryField, _locate, _wave, solve_stationary
from .twolevel import density_resonant_exponential, density_two_level, frequencies

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
# (profile, n_poles) pairs whose spectra make_spectrum keeps
_SPECTRUM_MEMO_SIZE = 32
# time grids _grid keeps, and the most points a kept grid has (output keeps
# the time cells of as many grids, under the same cap on points, and a
# problem the x rows of as many positions)
_GRID_MEMO_SIZE = 8
_COLUMN_MEMO_POINTS = 4096
_GEMV_FLOATS = 2**18  # the most floats one dgemv of _product reads


@dataclass(frozen=True)
class ShutterProblem:
    """Profile + incidence energy + retained modes + stationary field."""

    profile: PotentialProfile
    E: float
    k: float
    modes: tuple[ResonantMode, ...]
    field: StationaryField

    @property
    def L(self) -> float:
        return self.profile.total_length

    @cached_property
    def _wave_numbers(self) -> tuple[complex, ...]:
        """(k, -k, k_1, k_-1, k_2, k_-2, ...): the s of each M(y_s) column."""
        poles = (m.pole for m in self.modes)
        return (complex(self.k), complex(-self.k)) + tuple(
            complex(s) for p in poles for s in (p.k, p.k_mirror)
        )

    @cached_property
    def _x_rows(self) -> dict:
        """float x -> the read-only 2 + 2N real rows of a scalar x; see _sums.

        Keyed by x's Python float (-0.0 and 0.0 share a key), for at most
        4096 positions (_COLUMN_MEMO_POINTS; a later one is not kept).  An
        array x is never kept; psi_exact.cache_clear() leaves the rows alone.
        """
        return {}


@dataclass(frozen=True)
class Spectrum:
    """The retained resonant modes of one profile, for every incidence energy.

    Poles and modes belong to the potential alone; the incidence energy
    enters only through the stationary field, so `at` costs one stationary
    solve and every problem it returns shares these mode objects.  A
    spectrum from make_spectrum is also shared by every later caller that
    asks for the same (profile, n_poles), so its modes' arrays are
    read-only.
    """

    profile: PotentialProfile
    modes: tuple[ResonantMode, ...]

    @property
    def poles(self) -> tuple[ResonancePole, ...]:
        return tuple(m.pole for m in self.modes)

    def at(self, E: float) -> ShutterProblem:
        """The ShutterProblem at incidence energy E (eV), a real scalar in (0, inf)."""
        E = _real_finite(E, "incidence energy (eV)", positive=True)
        k = wavenumber(E, self.profile).real
        return ShutterProblem(
            profile=self.profile,
            E=E,
            k=k,
            modes=self.modes,
            field=solve_stationary(self.profile, k),
        )


def make_spectrum(profile: PotentialProfile, n_poles: int = 4) -> Spectrum:
    """The first n_poles poles of profile and their solved modes.

    n_poles is a count (model._count), >= 1 unless the profile is free
    (no resonances exist to retain), and a free profile's spectrum is empty.

    A spectrum is a pure function of (profile, n_poles), and a profile is
    immutable, so the spectra of the 32 most recently used pairs
    (_SPECTRUM_MEMO_SIZE) are kept and returned again: every caller asking
    for one pair gets the same Spectrum object, whose mode arrays are
    read-only.  A search that raises keeps nothing and raises again on the
    next call.  make_spectrum.cache_info() reports the reuse, and
    make_spectrum.cache_clear() empties the memo.
    """
    n_poles = _count(n_poles, "n_poles", least=0 if profile.is_free else 1)
    return Spectrum(profile, ()) if profile.is_free else _search(profile, n_poles)


@lru_cache(maxsize=_SPECTRUM_MEMO_SIZE)
def _search(profile: PotentialProfile, n_poles: int) -> Spectrum:
    poles = find_poles(profile, n_poles)
    return Spectrum(profile, tuple(solve_mode(profile, p) for p in poles))


make_spectrum.cache_info = _search.cache_info
make_spectrum.cache_clear = _search.cache_clear


def make_problem(
    profile: PotentialProfile, E: float, n_poles: int = 4
) -> ShutterProblem:
    """ShutterProblem at real incidence energy E (eV); see make_spectrum.

    The poles and modes come from make_spectrum's memo, so several energies
    on one profile search it once; only the stationary field is solved per
    call.
    """
    return make_spectrum(profile, n_poles).at(E)


def _result(psi):
    return psi if isinstance(psi, np.ndarray) and psi.ndim else complex(psi)


class _GridKey:
    """A time grid's bytes as a memo key: the hash reads only the length and
    the first and last 64 bytes, and equality still compares every byte."""

    __slots__ = ("data", "_hash")

    def __init__(self, data: bytes):
        self.data = data
        self._hash = hash((len(data), data[:64], data[-64:]))

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        return isinstance(other, _GridKey) and self.data == other.data


class _Grid:
    """One checked time grid and the read-only M(y_s) columns it keeps.

    The grid is checked when it is built, and one that fails is not kept.
    The shape is part of the key, since a (n, 1) grid has the bytes of an
    (n,) grid; so is hbar/2m, the one profile number a column reads.
    `block` holds the columns of the wave numbers `s` of the grid's latest
    problem, and `stamp` orders the kept grids by when a block was last
    stacked on them (see _block).
    """

    def __init__(self, shape: tuple, t_key: _GridKey, hbar_over_2m: float):
        self.t = _positive_times(np.frombuffer(t_key.data).reshape(shape))
        self.hbar_over_2m = hbar_over_2m
        self.s, self.block = (), None


_grid = lru_cache(maxsize=_GRID_MEMO_SIZE)(_Grid)
# the kept grids a block was stacked on, and the stamp of each stack
_kept, _stamps = weakref.WeakSet(), itertools.count()


def _block(grid: _Grid, s: tuple[complex, ...]) -> np.ndarray:
    """The read-only (len(s), *t.shape) block of grid's M(y_s) columns.

    s is a problem's whole (k, -k, k_1, k_-1, ...), whose columns come in
    pairs (C_2j, C_2j+1) = (M(y_s), M(y_-s*)), kept as the rows [D_0, S_0,
    D_1, S_1, ...], D_j = C_2j - C_2j+1 and S_j = i (C_2j + C_2j+1) (see
    _sums), so the times run along a row.  The k pair takes one column:
    M(y) + M(-y) = e^{y^2} and y_k^2 = -i (hbar/2m) k^2 t = -iEt/hbar, so
    its rows are D_0 = e^{-iEt/hbar} - 2 M(y_-k) and S_0 = i e^{-iEt/hbar}.
    The block is read-only between calls, and a grid that is not kept
    goes with its call.  The memo keeps two rules:

    1. A kept grid holds at most one block: the pole rows of one pole
       set, s[2:], and the k rows of that pole set's latest energy, so a
       per-x loop stacks it once.  A new energy of that pole set writes
       its k pair into the block in place; any other pole set stacks a
       whole block of its own.
    2. A pole set keeps blocks on the two kept grids it stacked on last:
       each stack stamps its grid, and the pole set's older holders lose
       their block and keep their times.  One window per pole set, or two
       in turn, keeps every block; a pole set stepping through fresh
       windows holds two blocks, whatever other pole sets stack between.
    """
    if grid.s == s:
        return grid.block
    in_place = grid.s[2:] == s[2:]
    block = grid.block if in_place else np.empty((len(s), *grid.t.shape), dtype=complex)
    block.flags.writeable = True
    beta = grid.hbar_over_2m
    wave = np.exp(-1j * (beta * s[0].real ** 2 * grid.t))
    minus = m_function(y_values(s[1], grid.t, beta))
    block[0], block[1] = wave - 2.0 * minus, 1j * wave
    for j in range(len(s) if in_place else 2, len(s), 2):
        plus, minus = (m_function(y_values(w, grid.t, beta)) for w in s[j : j + 2])
        block[j], block[j + 1] = plus - minus, 1j * (plus + minus)
    block.flags.writeable = False
    grid.s, grid.block = s, block
    if grid.t.size <= _COLUMN_MEMO_POINTS:
        grid.stamp = next(_stamps)
        _kept.add(grid)
        holders = sorted((g for g in _kept if g.s[2:] == s[2:]), key=lambda g: g.stamp)
        for old in holders[:-2]:
            old.s, old.block = (), None
    return block


def _product(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """sum_j rows[..., j] block[j] over the broadcast of x and t.

    rows is real, (*x.shape, K), and block complex, (K, *t.shape).  An outer
    product of x and t (a 0-d x, a 0-d t, or an x whose trailing t.ndim axes
    are 1) is one matrix product with the same bits at 1 and 2 BLAS threads:
    one row, the per-x call, is a real dgemv of the block's float view per
    run of times of at most 2^18 floats (OpenBLAS 0.3 ran a dgemv on one
    thread up to m n ~ 460,800 and split it past that, which moves bits),
    and a map one zgemm of the rows, made complex, and the block, with the
    bits of (block.view(float).T @ rows.T).T (rows @ block.view(float)
    moves bits at odd grid lengths).  Any other broadcast, such as x and t
    of one length taken as pairs, goes through einsum.
    """
    if rows.ndim == 1 and block.ndim == 2 and 2 * block.size <= _GEMV_FLOATS:
        return (rows @ block.view(float)).view(complex)
    k, x_shape, t_shape = len(block), rows.shape[:-1], block.shape[1:]
    lead = x_shape[: max(len(x_shape) - len(t_shape), 0)]
    if any(d != 1 for d in x_shape[len(lead) :]):
        return np.einsum("...k,k...->...", rows, block)
    rows, columns = rows.reshape(-1, k), block.reshape(k, -1)
    if len(rows) > 1:
        return (rows.astype(complex) @ columns).reshape(lead + t_shape)
    floats, run = columns.view(float), _GEMV_FLOATS // (2 * k) * 2
    psi = np.concatenate([rows[0] @ floats[:, a : a + run] for a in range(0, floats.shape[1], run)])
    return psi.view(complex).reshape(lead + t_shape)


def _sums(problem: ShutterProblem, x, t, *n_modes: int):
    """One partial sum of Psi(x, t) per count in n_modes.

    Psi(x, t) is the separable sum R(x) . C(t): x enters only through the
    2 + 2N coefficients R = [Phi, -Phi*, -rho_1, rho_1*, ...] and t only
    through the M(y_s) columns C.  As R_2j+1 = -R_2j*, it is the real rows
    [Re R_0, Im R_0, Re R_2, Im R_2, ...] times _block's pair columns, and
    the sum through pole pair n, one matrix product (see _product) for
    each count asked for, takes the leading 2 + 2n of both.  With one more
    rounding per block entry, each component lies within
    sqrt(2) gamma_{K+1} sum_j |R_j||C_j| of the exact sum for K terms, so
    it meets the term-by-term sum to the dot-product bound
    2 gamma_{K+2} sum_j |R_j||C_j| (Higham 2002, section 3.1), not bit for
    bit, and a per-x loop meets a broadcast call to the same bound.  A
    free profile has no poles; every sum is then the free-shutter solution.

    The rows are evaluated at x located once.  A scalar x's rows are kept on
    the problem (_x_rows), and a hit returns the rows its miss computed and
    skips _locate and every _wave, so a per-x map on a kept problem
    evaluates each position once, whatever its time window.  A Python or
    numpy float x is looked up before it is read as an array; any other x,
    and a float that misses, is read by _real_array first, so a lookup never
    admits an x the check refuses.  A float64 array t is used as given, and
    any other t read by _real_array.  One _grid lookup checks t when it
    builds the grid (a free profile only checks t), after x and before the
    broadcast of x against t; the columns come as one block (see _block), so
    a warm per-x call is one row lookup, one grid lookup and one real dgemv.
    """
    if len(problem.modes) < max(n_modes):
        raise DomainError(f"needs {max(n_modes)} mode(s), problem has {len(problem.modes)}")
    # a float x at a kept position skips the array conversion as well
    key = float(x) if type(x) is float or type(x) is np.float64 else None
    rows = problem._x_rows.get(key)
    if rows is None:
        x = _real_array(x, "x")
        key = x.item() if x.ndim == 0 else None
        rows = problem._x_rows.get(key)
        if rows is None:
            located = _locate(problem.field.edges, x)
    t_arr = t if type(t) is np.ndarray and t.dtype == float else _real_array(t, "t")
    grid = (_grid if t_arr.size <= _COLUMN_MEMO_POINTS else _grid.__wrapped__)(
        t_arr.shape, _GridKey(t_arr.tobytes()), problem.profile.hbar_over_2m
    )
    # a kept x is 0-d, and a 0-d x broadcasts against any t
    if rows is None and x.ndim:
        _broadcast_xt(x, t_arr)
    if not problem.modes:
        if not problem.profile.is_free:
            raise DomainError("problem carries no modes for a non-free profile")
        psi = free_shutter_psi(problem.k, x, t, problem.profile.hbar_over_2m)
        return [psi] * len(n_modes)
    block = _block(grid, problem._wave_numbers)
    if rows is None:
        phi = _wave(problem.field.q, problem.field.coefficients, *located)
        rhos = [_rho(m, problem.k, _wave(m.q, m.coefficients, *located)) for m in problem.modes]
        # [Phi, -rho_1, ...] as floats: [Re Phi, Im Phi, -Re rho_1, -Im rho_1, ...]
        rows = np.stack([phi] + [-rho for rho in rhos], axis=-1).view(float)
        if key is not None and len(problem._x_rows) < _COLUMN_MEMO_POINTS:
            rows.flags.writeable = False
            problem._x_rows[key] = rows
    return [_product(rows[..., : 2 + 2 * n], block[: 2 + 2 * n]) for n in n_modes]


def psi_exact(problem: ShutterProblem, x, t):
    """Psi(x, t) from the full retained pole set.

    x and t broadcast against each other: psi_exact(p, xs[:, None], t)
    gives the (len(xs), len(t)) map as one matrix product, which agrees
    with a loop of per-x calls to the dot-product rounding bound (see
    _sums), not bit for bit, and with the same bits at any BLAS thread
    count (see _product).  Free profiles dispatch to the closed-form
    free-shutter solution (the pole expansion is empty there and does not
    represent free propagation).

    The evaluators share one memo of the M(y_s) columns, which depend on t
    and not on x: it keeps the 8 most recently used time grids
    (_GRID_MEMO_SIZE) of at most 4096 points (_COLUMN_MEMO_POINTS); a kept
    grid holds at most one block, the 2 + 2N columns of one pole set's
    latest problem with N modes (16 (2 + 2N) B a time), and a pole set
    keeps blocks on two kept grids (the two rules: _block).  A problem keeps the
    x rows of each scalar x it evaluates (ShutterProblem._x_rows).  A miss
    runs the uncached arithmetic, so results are bit-identical with or
    without either memo.  psi_exact.cache_info() counts grids (a miss checks one);
    psi_exact.cache_clear() empties the grid memo, blocks and all.
    """
    (psi,) = _sums(problem, x, t, len(problem.modes))
    return _result(psi)


psi_exact.cache_info = _grid.cache_info
psi_exact.cache_clear = _grid.cache_clear


def psi_doublet_M(problem: ShutterProblem, x, t):
    """The doublet-restricted M-function form: modes 1 and 2 only.

    x and t broadcast against each other, as in psi_exact.
    """
    (psi,) = _sums(problem, x, t, 2)
    return _result(psi)


def free_shutter_psi(k: float, x: float, t, hbar_over_2m: float):
    """Closed-form free evolution of the cutoff standing wave, x >= 0.

    Psi = M(x, k, t) - M(x, -k, t) with the position-dependent argument

        M(x, s, t) = 1/2 e^{i x^2/(4 beta t)} w(i zeta_s),
        zeta_s     = e^{-i pi/4} (x - 2 beta s t) / sqrt(4 beta t),

    beta = hbar/2m > 0 in nm^2/ps.  Exponent-safe for all real x, t > 0.
    """
    k, x = _real_finite(k, "k"), _real_array(x, "x")
    if not ((x >= 0.0) & (x < np.inf)).all():
        raise DomainError("needs every x finite and >= 0 nm")
    t_arr = _positive_times(t)
    _broadcast_xt(x, t_arr)
    beta = _real_finite(hbar_over_2m, "hbar_over_2m (nm^2/ps)", positive=True)
    root = np.sqrt(4.0 * beta * t_arr)
    front = np.exp(1j * x * x / (4.0 * beta * t_arr))
    phase = np.exp(-1j * np.pi / 4.0)
    zeta_p = phase * (x - 2.0 * beta * k * t_arr) / root
    zeta_m = phase * (x + 2.0 * beta * k * t_arr) / root
    return _result(front * (m_function(zeta_p) - m_function(zeta_m)))


@dataclass(frozen=True)
class TransientTrace:
    """|Psi|^2 on a time grid at fixed position and incidence energy.

    `times` is the trace's own read-only 1-D float copy of the grid, and
    `densities` a read-only mapping of each method to its own read-only
    float copy of a curve with one value per time, so a later edit of the
    caller's arrays or dict reaches neither them nor text derived from
    them.  Times or a curve that are not real (_real_array), times that
    are not 1-D, or a curve of another shape raise DomainError.
    """

    x: float
    E: float
    tau_1: float
    times: np.ndarray
    densities: Mapping[str, np.ndarray]

    def __post_init__(self):
        times = np.array(_real_array(self.times, "times"))
        if times.ndim != 1:
            raise DomainError(f"times must be 1-D, got shape {times.shape}")
        curves = {
            method: np.array(_real_array(curve, f"the {method!r} curve"))
            for method, curve in self.densities.items()
        }
        for tag, curve in curves.items():
            if curve.shape != times.shape:
                raise DomainError(f"the {tag!r} curve has shape {curve.shape}, not {times.shape}")
        for array in (times, *curves.values()):
            array.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "densities", MappingProxyType(curves))

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.densities.keys())


def _method_tags(methods, name: str, error=DomainError) -> tuple[str, ...]:
    """methods, a tuple or list of one or more distinct METHODS, as a tuple; else error."""
    tags = tuple(methods) if isinstance(methods, (tuple, list)) else ()
    if not tags:
        raise error(f"{name} must be a tuple or list of one or more tags, got {methods!r}")
    for i, tag in enumerate(tags):
        if tag not in METHODS:
            raise error(f"unknown method {tag!r}; valid: {', '.join(METHODS)}")
        if tag in tags[:i]:
            raise error(f"duplicate method {tag!r}")
    return tags


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
    form at omega_hat_1 = 0.  x is a real number in [0, L], and methods a
    sequence of one or more distinct tags.
    """
    x = _real_finite(x, "x")
    _locate(problem.field.edges, x)
    times = _times(time_grid)
    if times.ndim != 1 or len(times) < 1:
        raise DomainError("time grid must be a 1-D array")
    if not np.all(np.diff(times) > 0):
        raise DomainError("time grid must be strictly increasing")
    methods = _method_tags(methods, "methods")
    for method in methods:
        if len(problem.modes) < _MODES_NEEDED[method]:
            raise DomainError(f"{method} needs {_MODES_NEEDED[method]} mode(s)")
    positive = times > 0
    t_pos = times[positive]
    tau_1 = problem.modes[0].pole.tau if problem.modes else np.nan

    # exact-N and two-level-M are two partial sums of one expansion
    counts = {METHOD_EXACT: len(problem.modes), METHOD_TWO_LEVEL_M: 2}
    counts = {method: n for method, n in counts.items() if method in methods}
    amplitudes = {}
    if counts:
        sums = _sums(problem, x, t_pos, *counts.values())
        amplitudes = dict(zip(counts, sums))

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
            tau_amp = 2.0 * HBAR_EV_PS / gamma_1
            d = density_resonant_exponential(T, tau_amp, t_pos)
        densities[method] = np.zeros_like(times)
        densities[method][positive] = d
    return TransientTrace(
        x=x, E=problem.E, tau_1=float(tau_1), times=times, densities=densities
    )
