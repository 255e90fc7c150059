"""Stationary scattering on a layered profile via the transfer matrix.

Interior propagation uses the fundamental pair (cos qx, sin qx / q), which
is entire in q^2, so evanescent layers (q imaginary) and the q -> 0
degeneracy need no separate code path.  Exterior phase convention:

    x <= 0:  e^{ikx} + r e^{-ikx}
    x >= L:  t e^{ikx}            (so Phi(L) = t e^{ikL}, |Phi(L)|^2 = T)

The transfer matrix M relates exterior plane-wave coefficient pairs,
(A_right, B_right) = M (A_left, B_left), with det M = 1 for equal exterior
potentials; then t = 1/m22 and r = -m21/m22.  m22 is analytic in k away
from k = 0, and its zeros are exactly the transmission-amplitude poles.

One kernel, _layers, builds every layer's matrix entries elementwise over
a scalar or an array of k, and each layer maps (psi, psi') to (c psi + ws
psi', m psi + c psi').  One walk, _walk, carries pairs across the layers
and yields the pair at every edge.  It takes Python numbers at one point of
k (a scalar T(E), solve_stationary and a mode's outgoing pieces) and arrays
at more (the Newton batch's outgoing pieces, and _layer_product:
transfer_matrix, the pole search's contour, and the T(E) scan, which _scan
runs in blocks with transmission's checks).

The split rests on two facts about numpy's rounding.  Real arithmetic
rounds the same in every representation (IEEE): a Python float, a numpy
scalar and an array entry give the same bits, so a real walk in Python
numbers is the array walk's entry.  Complex arithmetic does not: Python's
complex products and sums are numpy's scalar ones bit for bit (its
quotients are not), but numpy's array product (0-d and one-element arrays
included) rounds differently in about 45% of random products, and is not
even commutative bit for bit.  So a complex walk in Python numbers has the
bits of numpy-scalar arithmetic, and a one-point result that must be the
array path's entry (a scalar T(E), solve_stationary's r and t) reads M off
one-element arrays: only its walk runs in Python numbers.  A scalar T(E)
(one per pole in a structure's workload) is mostly fixed numpy call
overhead, which the walk in Python numbers avoids.

The kernel reuses its buffers where the bits allow it: every output is bit
for bit what the allocating expressions give.  numpy rounds a complex
product written over one of its own factors differently when the array has
a single entry, so the kernel's complex products go to a buffer of their
own; the walk writes nothing over a factor, and each of its products takes
the layer entry as its first factor.

M is read off the fundamental matrix (_read_off): the solutions F1 and F2,
starting as (1, 0) and (0, 1) at x = 0, are marched to x = L, where their
pairs are the columns of the layer product P; with s = P11 + P22 and d =
k P12 - P21/k, m22 = (1/2) e^{ikL} (s - i d).

On the real axis, where every scan and every stationary field lives, q^2
= k^2 - V/(hbar^2/2m) is real, so each layer matrix is real (cos and sin,
or cosh and sinh where the layer is evanescent) and so are P, s and d, and
T = 4 / (s^2 + d^2).  A real-typed k therefore runs the kernel and the
walk in real arithmetic, and builds no complex q (only solve_stationary
reads q, and forms it for its one k); only the read-off of M is complex.
A complex-typed k (Newton iterates, poles, modes) runs the same code in
complex arithmetic.

T(E) has one read-off, _transmitted: t = 1/m22 from P's entries through
_sd and _m22, with the bits of transfer_matrix's m22.  A scalar E hands it
_fundamental's end, a scan each block's _layer_product end.

The pole search and the resonant-mode solver share the outgoing pieces
(_outgoing): (1, -ik) at x = 0 marched forward and (1, +ik) at x = L
marched backward, as one stacked array walk for the Newton batch and in
Python numbers for a mode's one k.  A wave marched through a thick
barrier carries rounding amplified by up to e^{|Im q| w}, so the pieces
are joined at an interior edge and neither march crosses the whole
profile (the matching-point method of GAMOW: Vertse, Pal & Balogh,
Comput. Phys. Commun. 27, 309 (1982)).  Their Wronskian W = u_L u_R' -
u_L' u_R = 2 i k e^{-ikL} m22(k) does not depend on x and vanishes at a
pole.  The one join test, _join, reads the relative mismatch

    |W| / (max(|u_R|, |u_R'/k|) (|u_L'| + |k u_L|)),

that of (u, u') once the right piece is scaled to the left one on its
larger component of (u, u'/k), at the join edges where both keep digits,
at every point of a 1-D array of k in one pass: a batch of Newton
iterates, or a mode's one k as a batch of one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OverflowGuardError, QShutterError
from .model import PotentialProfile, _complex_array, _real_array, wavenumber

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
# a march multiplies its layers' growth, and the pole search multiplies two
# marches; their summed |Im(q) * width| stays below this, e^100 short of the
# double-precision ceiling e^709
MARCH_GUARD = 600.0

# the join test reads relative mismatches down to _W_TOL, so a piece is
# trusted at an edge where its size exceeds its march's rounding by 1/_W_TOL
_W_TOL = 1e-8
_TRUST_FLOOR = np.log(2.0 * np.finfo(float).eps / _W_TOL)

# points per array evaluation in transmission: an unblocked pass over a
# long scan holds several complex arrays of its size per layer
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


def _wave_numbers(k):
    """k as an array: float when every entry is real-typed, else complex."""
    return np.asarray(k, dtype=complex if np.iscomplexobj(k) else float)


def _layers(profile: PotentialProfile, k):
    """Per-layer (q, c, ws, m, g), elementwise over a scalar or array k.

    Each array has shape (n_layers, *k.shape).  Layer j's fundamental
    matrix, mapping (psi, psi') across the layer, is [[c, ws], [m, c]] with
    z = q w, c = cos z, ws = w sin(z)/z (series below |z| = 1e-6) and
    m = -q^2 ws.  q = sqrt(k^2 - V_j/(hbar^2/2m)) on the principal branch;
    the matrix is even in q, so the branch only fixes q for determinism.

    A real-typed k gives real c, ws and m and neither q nor g (both None):
    q^2 is then real, so |z| = sqrt(|q^2|) w, and c and sin(z)/z are cos and
    sin of |z| where q^2 >= 0 and cosh and sinh of it where q^2 < 0.  No
    real-k march reads q, so it is not built; solve_stationary forms it for
    its one k (_real_q).  g = |Im z| is the layer's growth exponent
    (_growth).  |z|, ws and m are formed in place.

    Raises OverflowGuardError for the first point of k (in C order) where a
    layer's |Im z| passes OVERFLOW_GUARD, naming its lowest such layer, or,
    failing that, where the summed |Im z| from x = 0 passes MARCH_GUARD,
    naming the layer where the sum crosses it.
    """
    k = _wave_numbers(k)
    column = (-1,) + (1,) * k.ndim
    v = (profile.heights / profile.hbar2_over_2m).reshape(column)
    w = profile.widths.reshape(column)
    q2 = k * k - v
    real = k.dtype != complex
    if real:
        wave = q2 >= 0.0
        evanescent = ~wave
        z = np.abs(q2)
        np.sqrt(z, out=z)
        z *= w
        _guard(np.where(wave, 0.0, z).reshape(len(w), -1))
        q = g = None
        small = z < 1e-6
    else:
        q = np.sqrt(q2)
        z = q * w
        g = np.abs(z.imag)
        _guard(g.reshape(len(w), -1))
        small = np.abs(z) < 1e-6
    series = small.any()
    zs = np.where(small, 1.0, z) if series else z
    if real:
        c, s = np.empty_like(z), np.empty_like(z)
        np.cos(z, out=c, where=wave)
        np.cosh(z, out=c, where=evanescent)
        np.sin(zs, out=s, where=wave)
        np.sinh(zs, out=s, where=evanescent)
    else:
        c, s = np.cos(z), np.sin(zs)
    s /= zs
    if series:
        z2 = q2 * w * w
        c = np.where(small, 1.0 - z2 / 2.0, c)
        s = np.where(small, 1.0 - z2 / 6.0, s)
    ws = np.multiply(s, w, out=s)
    # m = -q^2 ws into z's buffer: a complex product written over one of its
    # own factors can round differently when it has a single entry
    m = np.multiply(np.negative(q2, out=q2), ws, out=z)
    return q, c, ws, m, g


def _real_q(profile: PotentialProfile, k) -> np.ndarray:
    """q of _layers at one real k: sqrt(|q^2|), times i where q^2 < 0."""
    q2 = k * k - profile.heights / profile.hbar2_over_2m
    q = np.sqrt(np.abs(q2)).astype(complex)
    np.multiply(q, 1j, out=q, where=q2 < 0.0)
    return q


def _guard(exponent: np.ndarray) -> None:
    """Raise OverflowGuardError for exponent = |Im z|, shape (layers, points).

    No exponent is negative, so a largest per-point sum (0 for no points)
    of at most OVERFLOW_GUARD passes; above it one max over every entry
    decides.  Only a trip searches for its first point.
    """
    summed = exponent.sum(axis=0)
    top = summed.max(initial=0.0)
    if top <= OVERFLOW_GUARD or (top <= MARCH_GUARD and exponent.max() <= OVERFLOW_GUARD):
        return
    over = exponent > OVERFLOW_GUARD
    tripped = over.any(axis=0) | (summed > MARCH_GUARD)
    if not tripped.any():
        return
    point = int(tripped.argmax())
    if over[:, point].any():
        layer = int(over[:, point].argmax())
        raise OverflowGuardError(layer, float(exponent[layer, point]), OVERFLOW_GUARD, point)
    summed = np.cumsum(exponent[:, point])
    layer = int((summed > MARCH_GUARD).argmax())
    raise OverflowGuardError(layer, float(summed[layer]), MARCH_GUARD, point, summed=True)


def _walk(c, ws, m, value, slope):
    """Yield the pairs (psi, psi') at every edge, x = 0 first, from (value,
    slope) at x = 0: layer j maps (psi, psi') to (c psi + ws psi', m psi + c
    psi').

    c, ws and m list the layers' entries, in Python numbers at one k (floats
    for a real k, complexes for a complex one) or as arrays that broadcast
    against the pair.  Each product takes the layer entry as its first
    factor and no result is written over a factor, which fixes an array's
    complex bits.  A caller that needs only the end pair lets the others go
    as it walks: keeping a scan block's pair at every edge made the
    4000-point T(E) scan 1.2-1.3x slower.
    """
    yield value, slope
    for cj, wsj, mj in zip(c, ws, m):
        value, slope = cj * value + wsj * slope, mj * value + cj * slope
        yield value, slope


def _layer_product(c, ws, m):
    """P = ((P11, P12), (P21, P22)) elementwise over k: layer 0's matrix,
    [[c, ws], [m, c]] (rows psi and psi', columns F1 and F2), walked across
    the other layers; each row is an array of shape (2, *k.shape)."""
    start = np.array((c[0], ws[0])), np.array((m[0], c[0]))
    return deque(_walk(c[1:], ws[1:], m[1:], *start), maxlen=1)[0]


def _outgoing(layers, k):
    """(u, u') of the left- and right-outgoing waves at every edge.

    The left wave starts as (1, -ik) at x = 0 and is walked forward.  The
    right wave starts as (1, +ik) at x = L; it is walked backward as the
    forward walk of (1, -ik) through the mirrored layers, with u' negated.
    Both have shape (n_layers + 1, 2, *k.shape): row e is the pair at
    edges[e].

    One point of k (a mode) walks each wave in Python numbers.  More points
    (the Newton batch) walk both waves as one array walk: each of c, ws and
    m is stacked with its mirror image along a wave axis.
    """
    if k.size == 1:
        c, ws, m = (a.ravel().tolist() for a in layers[1:4])
        slope = -1j * k.item()
        shape = (len(c) + 1, 2, *k.shape)
        left = np.array(list(_walk(c, ws, m, 1.0, slope))).reshape(shape)
        right = np.array(list(_walk(c[::-1], ws[::-1], m[::-1], 1.0, slope))[::-1]).reshape(shape)
    else:
        c, ws, m = (np.stack((a, a[::-1]), axis=1) for a in layers[1:4])
        one = np.ones(c.shape[1:], complex)
        # (edge, row, wave, *k.shape)
        pairs = np.array(list(_walk(c, ws, m, one, -1j * k * one)))
        left, right = pairs[:, :, 0], pairs[::-1, :, 1]
    right[:, 1] *= -1.0
    return left, right


def _joins(n_layers: int) -> slice:
    """Edges where the two outgoing waves may be joined, as a slice of the
    edges: the interior ones, or x = L for a single layer, which has none."""
    return slice(1, max(n_layers, 2))


def _growth(layers) -> np.ndarray:
    """Summed |Im z| from x = 0 to each edge, shape (n_layers + 1, *s).

    A march from x = 0 to edge e can amplify rounding by about
    e^{growth[e]}, one from x = L by about e^{growth[-1] - growth[e]}.
    """
    g = layers[4]
    growth = np.zeros((len(g) + 1, *g.shape[1:]))
    np.cumsum(g, axis=0, out=growth[1:])
    return growth


def _wronskian(left, right):
    """u_L u_R' - u_L' u_R, elementwise over the edges and points."""
    return left[:, 0] * right[:, 1] - left[:, 1] * right[:, 0]


def _join(growth: np.ndarray, left, right, k: np.ndarray):
    """(edge, mismatch, alpha): the join test at each point of a 1-D array k.

    growth has shape (n_layers + 1, len(k)) and left and right (n_layers +
    1, 2, len(k)).  A join edge is trusted at a point where each pair's size
    |u| + |u'|/|k|, against 2 at its start, exceeds its march's rounding
    eps e^growth by 1/_W_TOL.  edge is the point's first trusted join edge
    of least relative mismatch (module docstring), and alpha scales the
    right piece onto the left one there, on the larger of |u_R| and
    |u_R'/k|.  With no trusted edge, edge is 0, the mismatch inf and alpha
    nan.  Every point takes the arithmetic of a join of its own; a mode's
    join is a batch of one point.
    """
    joins = _joins(len(growth) - 1)
    join_l, join_r, grown = left[joins], right[joins], growth[joins]
    abs_l, abs_r = np.abs(join_l), np.abs(join_r)
    # |k| as Python's abs of a complex forms it: numpy's array abs can
    # differ in the last bit
    abs_k = np.hypot(k.real, k.imag)
    abs_du = np.abs(join_r[:, 1] / k)
    # a pair of zeros has log size -inf, and where it is not trusted a
    # mismatch or alpha may be 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_l = np.log(abs_l[:, 0] + abs_l[:, 1] / abs_k)
        log_r = np.log(abs_r[:, 0] + abs_r[:, 1] / abs_k)
        size_r = np.maximum(abs_r[:, 0], abs_du)
        scale = size_r * (abs_l[:, 1] + np.abs(k * join_l[:, 0]))
        mismatch = np.abs(_wronskian(join_l, join_r)) / scale
        trusted = (log_l >= _TRUST_FLOOR + grown) & (log_r >= _TRUST_FLOOR + growth[-1] - grown)
        least = np.where(trusted, mismatch, np.inf)
        at, points = least.argmin(axis=0), np.arange(len(k))
        edge, mismatch = at + joins.start, least[at, points]
        # row 0 (u) where the right piece scales on u, else row 1 (u')
        row = (abs_r[at, 0, points] < abs_du[at, points]).astype(np.intp)
        alpha = left[edge, row, points] / right[edge, row, points]
    found = mismatch != np.inf
    return np.where(found, edge, 0), mismatch, np.where(found, alpha, np.nan)


def _nonzero_k(k):
    k = _complex_array(k, "k")
    if not (np.isfinite(k) & (k != 0)).all():
        raise DomainError("k must be finite and != 0 (at k = 0 exterior plane waves are undefined)")
    return k


def _sd(k, end):
    """(s, d) = (P11 + P22, k P12 - P21/k) from P's entries end = ((P11, P12),
    (P21, P22)): the sum and difference of the module docstring."""
    (p11, p12), (p21, p22) = end
    return p11 + p22, k * p12 - p21 / k


def _m22(profile: PotentialProfile, k, s, d):
    """(m22, e^{ikL}/2) from the sum s and difference d (_sd); the other
    entries of M are read off the same factor."""
    half = 0.5 * np.exp(1j * k * profile.total_length)
    return (s - 1j * d) * half, half


def _read_off(profile: PotentialProfile, k, end) -> TransferMatrix:
    """M from P's entries end = ((P11, P12), (P21, P22)), elementwise over k.

    With the exterior basis C(x) = [[e^{ikx}, e^{-ikx}], [ik e^{ikx}, -ik
    e^{-ikx}]], M is C(L)^{-1} P C(0), whose entries need only the sums and
    differences below.
    """
    (p11, p12), (p21, p22) = end
    s, d = _sd(k, end)
    m22, half = _m22(profile, k, s, d)
    split, cross = p11 - p22, k * p12 + p21 / k
    half_inv = 0.25 / half
    return TransferMatrix(
        m11=(s + 1j * d) * half_inv,
        m12=(split - 1j * cross) * half_inv,
        m21=(split + 1j * cross) * half,
        m22=m22,
    )


def _fundamental(profile: PotentialProfile, k: np.ndarray):
    """(layers, F1's pairs, F2's pairs, P's entries on one-element arrays)
    at a one-element array k: F1 and F2 walk from (1, 0) and (0, 1)."""
    layers = _layers(profile, k)
    c, ws, m = (a.ravel().tolist() for a in layers[1:4])
    f1, f2 = list(_walk(c, ws, m, 1.0, 0.0)), list(_walk(c, ws, m, 0.0, 1.0))
    end = np.array([*f1[-1], *f2[-1]])  # P11, P21, P12, P22
    return layers, f1, f2, ((end[0:1], end[2:3]), (end[1:2], end[3:4]))


def transfer_matrix(profile: PotentialProfile, k) -> TransferMatrix:
    """Exterior plane-wave transfer matrix at (possibly complex) k != 0.

    Elementwise over k: a scalar gives complex fields, an array gives
    arrays of its shape.  A real-typed k takes the real-arithmetic walk;
    k + 0j takes the complex one.  F1 and F2 are walked as one array walk
    (_layer_product) whose end pair holds the columns of P.
    """
    k = _nonzero_k(k)
    return _read_off(profile, k, _layer_product(*_layers(profile, k)[1:4]))


def solve_stationary(profile: PotentialProfile, k: float | complex) -> StationaryField:
    """Full interior solution Phi(x, k) for exterior incidence from the left.

    A real k walks in real arithmetic, a complex one in complex.  M is read
    off on one-element arrays, so at a real k, r and t are
    transfer_matrix's entries at np.array([k]) bit for bit.
    """
    k = _nonzero_k(np.reshape(k, 1))
    layers, f1, f2, end = _fundamental(profile, k)
    tm = _read_off(profile, k, end)
    r, t = tm.r[0], tm.t[0]
    q = _real_q(profile, k) if layers[0] is None else layers[0][:, 0]
    k = k.item()
    # Phi = e^{ikx} + r e^{-ikx} starts as (1 + r, ik (1 - r)) at x = 0
    coefficients = (1.0 + r) * np.array(f1[:-1]) + 1j * k * (1.0 - r) * np.array(f2[:-1])
    return StationaryField(
        k=complex(k), r=r, t=t, edges=profile.edges, q=q, coefficients=coefficients
    )


def transmission(profile: PotentialProfile, E):
    """(t, T = |t|^2) at real, finite incidence energies E > 0 (eV).

    A scalar E gives (complex, float); an array gives arrays of its shape,
    evaluated at real k, in real arithmetic, in blocks of _BLOCK points to
    bound the working memory.  The unitarity and overflow errors are raised
    for the point a loop over E in C order would meet first.

    A Python or numpy float E in (0, inf) takes a one-point path, bit for
    bit the array path's entry: k (wavenumber's complex sqrt), the layers
    and the complex read-off (_transmitted) are formed on one-element
    arrays, and the real walk in Python floats (_fundamental).  Every other
    E (0-d arrays, ints, other dtypes, complex, invalid values) takes the
    array path.
    """
    if isinstance(E, float) and 0.0 < E < np.inf:
        k = wavenumber(np.array([E]), profile).real
        t, T = _transmitted(profile, k, _fundamental(profile, k)[3])
        _check_unitarity(T)
        return complex(t[0]), float(T[0])
    E = _complex_array(E, "E")
    valid = np.isreal(E) & (E.real > 0) & (E.real < np.inf)
    if not valid.all():
        raise DomainError(f"transmission needs real finite E > 0 eV, got {E[~valid][0]}")
    t, T = _scan(profile, np.atleast_1d(wavenumber(E.real, profile)).real.ravel())
    if E.ndim == 0:
        return complex(t[0]), float(T[0])
    return t.reshape(E.shape), T.reshape(E.shape)


def _transmitted(profile: PotentialProfile, k: np.ndarray, end):
    """(t, T = |t|^2) from P's entries end = ((P11, P12), (P21, P22)): t =
    1/m22, with m22 formed through _sd and _m22 as _read_off forms it."""
    t = 1.0 / _m22(profile, k, *_sd(k, end))[0]
    return t, np.abs(t) ** 2


def _scan(profile: PotentialProfile, k: np.ndarray):
    """(t, T) of _transmitted at a 1-D array of real k > 0, without
    transmission's input checks: _layer_product's end in blocks of _BLOCK
    points, each written into whole arrays as it is read, with the guard
    and the unitarity check of T."""
    t, T = np.empty(k.shape, complex), np.empty(k.shape)
    for start in range(0, k.size, _BLOCK):
        block = k[start : start + _BLOCK]
        try:
            layers = _layers(profile, block)
        except OverflowGuardError as err:
            # a loop over E meets the points before the guarded one first
            _scan(profile, block[: err.point])
            err.point += start
            raise
        part = _transmitted(profile, block, _layer_product(*layers[1:4]))
        _check_unitarity(part[1])
        t[start : start + block.size], T[start : start + block.size] = part
    return t, T


def _check_unitarity(T: np.ndarray) -> None:
    over = T > 1.0 + 1e-9
    if over.any():
        raise QShutterError(f"unitarity violated: T = {float(T[over.argmax()])}")


def layered_wave(edges: np.ndarray, q: np.ndarray, coefficients: np.ndarray, x):
    """A_j cos(q_j xi) + B_j xi sin(q_j xi)/(q_j xi) in the layer j holding x.

    xi = x - edges[j]; x must lie in [0, L] and may be a scalar (gives a
    complex) or an array (gives an array of its shape).  A point on an
    interface belongs to the layer on its right, x = L to the last layer.
    """
    return _wave(q, coefficients, *_locate(edges, x))


def _locate(edges: np.ndarray, x):
    """(j, xi) of layered_wave for x in [0, L]: x's layer and its offset."""
    x = _real_array(x, "x")
    if not ((x >= 0.0) & (x <= edges[-1])).all():
        raise DomainError(f"x must lie in [0, {float(edges[-1])}] nm")
    j = np.minimum(edges.searchsorted(x, side="right") - 1, len(edges) - 2)
    return j, x - edges[j]


def _wave(q: np.ndarray, coefficients: np.ndarray, j, xi):
    """layered_wave at an x that _locate has placed in layer j at offset xi."""
    z = q[j] * xi
    # sin(z)/z is accurate as it stands down to z = 0, where it takes its limit 1
    at_zero = z == 0
    sinc = np.sin(z) / (z + at_zero) + at_zero
    wave = coefficients[j, 0] * np.cos(z) + coefficients[j, 1] * xi * sinc
    return complex(wave) if wave.ndim == 0 else wave


def stationary_wave(field: StationaryField, x):
    """Phi(x, k) for x in [0, L]; accepts scalars or arrays."""
    return layered_wave(field.edges, field.q, field.coefficients, x)
