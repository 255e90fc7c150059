"""S-matrix pole search: a contour count, moment seeds and matched-interface
Newton.

A pole is a zero of m22(k) = 1/t(k) (pole_condition) in the fourth quadrant
of the k plane, k_n = a_n - i b_n (a_n, b_n > 0); its complex energy is
E_n = (hbar^2/2m) k_n^2 = curlyE_n - i Gamma_n/2.  Third-quadrant partners
k_{-n} = -k_n* are derived by symmetry, never searched.

Depth rule.  find_poles returns the N lowest poles by curlyE_n among those
with -Im k <= Re k / 4 (Gamma_n <= 1.07 curlyE_n).  A pole that obeys the
rule has Re k^2 >= (Re k)^2 (1 - 1/16), so every such pole below a given
curlyE lies left of a known Re k, and "the N lowest" is a finite search.

Count.  The poles are the zeros of h(k) = k e^{-ikL} m22 = (k (P11 + P22) -
i (k^2 P12 - P21))/2, read off scattering's layer product P at complex k
(_h).  h is entire (g = e^{-ikL} m22 has a pole at k = 0, which stalls the
quadrature on a box's left side), and for V >= 0 none of its zeros lies in
the upper half plane, so the winding number of h around a box counts the
poles inside it.  A box is Re k in [left, right], Im k in [-depth, 0.05].
Its boundary is one closed chain of panels, one per side to begin with,
each holding its start and _PANEL_POINTS Gauss-Legendre nodes (Golub-
Welsch, computed once at import); the whole chain is one kernel call.
Every panel where a phase step of h between neighbouring points passes
1 rad is halved, all of them in one further call per round.  The count K
is the summed phase step over 2 pi.

Moments.  The power sums s_p = sum_n u_n^p of the K zeros, u = (k - c)/r
with c the box's centre and r its half diagonal, need no h': integrating
u^p h'/h by parts from the chain's first corner u_0 gives

    s_p = u_0^p K - (p / 2 pi i r) oint u^{p-1} Log h dk,

with Log h continued along the chain from u_0 (L. M. Delves and J. N.
Lyness, Math. Comp. 21, 543 (1967)).  The same nodes and weights take the
integral.  Newton's identities turn the sums into a monic polynomial,
whose roots (np.roots) are the seeds; a box that counts one pole takes s_1
itself, the root np.roots would return.  A pole a rounding distance below
the real axis can seed above it, so a seed's imaginary part is mirrored
into the lower half plane.

Boxes.  find_poles counts and seeds strips left to right: Re k from k(E_prev)
(0.01 nm^-1 for the first) to k(E_max), depth k(E_max)/4, with E_max
doubling from 50 meV for at most 9 strips and up to _WINDOW_CAP.  It stops
once N seeds obey the rule and k(E_max)^2 (1 - 1/16) >= Re z_N^2, z_N the
N-th lowest of them in Re k^2: past that no lower pole that obeys the rule
can lie further right.  One Newton batch then refines every seed.  A box
whose seeds give fewer distinct poles inside it than it counts (a cluster
of poles, whose moments are ill-conditioned: superlattices of many cells)
is halved on Re k and seeded again, for at most _MAX_ROUNDS rounds.  Over
the first 83 `structures` ops of seeds 1, 2, 3 and 11 every box found what
it counted (916 poles), and the seeds sat a median 5.8e-10 (at most
1.1e-3) from their poles, relative.

Newton works not on m22, whose rounding at the far end of a thick barrier
grows by up to e^{|Im q| w}, so that |m22| cannot fall below |m22'| ulp(k)
near the root, but on the Wronskian W of scattering's outgoing pieces at
one join edge, where the summed |Im q| w on either side balances at the
seed.  The derivative is a central difference (relative step 1e-7).
Newton stops on backward error: the step is within _STEP_ULPS ulps of |k|
and scattering's join test (_join) reads at most _W_TOL.  W does not
depend on x, so every edge certifies the same root; the returned k takes
that last step.  A step that would leave the fourth quadrant is halved
until it stays in; an iterate it leaves within _STEP_ULPS ulps of the
imaginary axis is a quadrant escape.

find_poles refines all of its seeds in lockstep (_newton).  Each
round evaluates every active seed's iterate and its two difference points
as one (3, n_seeds) array, through one kernel call and one walk of both
outgoing pieces, which cost about as much for 18 points as for 3.  The
first round picks every seed's join edge, where the growth on either side
balances, in one argmin over the batch.  W is formed only at each seed's
own join edge, and one join test (scattering._join) serves every seed
whose step has reached rounding level.  Each seed keeps its own join edge,
stop test, halving and trace, and takes its step in Python complex
arithmetic from its own column, so every pole is bit for bit the one
refine_pole (the one-seed call) returns.  A seed leaves the batch once it
converges; the first seed to fail ends the batch with its error (a tripped
guard fails the seed that owns the guarded point).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    OverflowGuardError,
    PoleConvergenceError,
    PoleCountError,
    PoleQualityError,
    QuadrantEscapeError,
)
from .model import (
    HBAR_EV_PS, PotentialProfile, _complex_finite, _count, _real_finite, energy_of, wavenumber,
)
from .scattering import (
    _W_TOL,
    _growth,
    _join,
    _joins,
    _layer_product,
    _layers,
    _outgoing,
    _wronskian,
    transfer_matrix,
)

__all__ = [
    "ResonancePole",
    "pole_condition",
    "seed_poles",
    "refine_pole",
    "find_poles",
]

# the depth rule: find_poles returns poles with -Im k <= _DEPTH Re k
_DEPTH = 0.25
# the boxes' top edge (Im k) and the first box's left edge (Re k), nm^-1
_TOP = 0.05
_LEFT = 0.01
# Gauss-Legendre nodes per contour panel; a panel is halved where a phase
# step of h between neighbouring points passes _MAX_PHASE_STEP rad
_PANEL_POINTS = 24
_MAX_PHASE_STEP = 1.0
# rounds of halving, of a contour's panels and of boxes that count more
# poles than their seeds find
_MAX_ROUNDS = 12
# Newton stop: |step| <= _STEP_ULPS eps |k| and the join test at _W_TOL
_STEP_ULPS = 16
_MAX_ITERATIONS = 100
_EPS = float(np.finfo(float).eps)
# halvings of a step that would leave the fourth quadrant before giving up
_MAX_HALVINGS = 60
# the boxes stop at this many times the highest first full-transmission
# energy V + (hbar^2/2m)(pi/w)^2 of a barrier, past which T(E) ripples
# near 1 (`structures` searches never pass 1.74 V_max)
_WINDOW_CAP = 4.0


@dataclass(frozen=True)
class ResonancePole:
    """One fourth-quadrant pole with its derived resonance parameters.

    hbar is carried in eV ps to match E (eV), so tau comes out in ps.
    """

    index: int
    k: complex
    E: complex
    hbar: float

    @property
    def E_position(self) -> float:
        """Resonance energy curlyE_n = Re E_n in eV."""
        return self.E.real

    @property
    def Gamma(self) -> float:
        """Resonance width Gamma_n = -2 Im E_n in eV."""
        return -2.0 * self.E.imag

    @property
    def tau(self) -> float:
        """Lifetime hbar/Gamma_n in ps."""
        return self.hbar / self.Gamma

    @property
    def k_mirror(self) -> complex:
        """Third-quadrant partner -k_n*."""
        return -np.conj(self.k)


def pole_condition(profile: PotentialProfile, k: complex) -> complex:
    """f(k) = 1/t(k) = m22(k); analytic away from k = 0, zero at poles.

    Elementwise over an array k, like transfer_matrix.
    """
    return transfer_matrix(profile, k).m22


def _gauss_legendre(n: int):
    """Nodes and weights of n-point Gauss-Legendre quadrature on [-1, 1],
    from the eigenvectors of the Jacobi matrix (Golub-Welsch)."""
    j = np.arange(1.0, n)
    nodes, vectors = np.linalg.eigh(np.diag(j / np.sqrt(4.0 * j * j - 1.0), -1))
    return nodes, 2.0 * vectors[0] ** 2


_NODES, _WEIGHTS = _gauss_legendre(_PANEL_POINTS)
# a panel's points as fractions of the way along it: its start, then its nodes
_ABSCISSAE = np.concatenate(([0.0], (1.0 + _NODES) / 2.0))


def _h(profile: PotentialProfile, k: np.ndarray) -> np.ndarray:
    """h(k) = k e^{-ikL} m22 = (k (P11 + P22) - i (k^2 P12 - P21))/2 at a
    complex array k: entire, and off k = 0 zero exactly at the poles."""
    (p11, p12), (p21, p22) = _layer_product(*_layers(profile, k)[1:4])
    return (k * (p11 + p22) - 1j * (k * k * p12 - p21)) / 2.0


def _panels(starts: np.ndarray) -> np.ndarray:
    """The points of a closed chain of panels from their starts: each
    panel's start and its nodes, shape (n_panels, _PANEL_POINTS + 1)."""
    lengths = np.concatenate((starts[1:], starts[:1])) - starts
    return starts[:, None] + lengths[:, None] * _ABSCISSAE


def _contour(profile: PotentialProfile, corners: np.ndarray):
    """(points, h, steps) of the closed chain of panels around corners (one
    panel per side to begin with, counterclockwise): _panels' points, h
    there, and the phase step of h from each point to the next along the
    chain.  Every panel holding a step above _MAX_PHASE_STEP is halved, for
    at most _MAX_ROUNDS rounds of one kernel call each."""
    points = _panels(corners)
    h = _h(profile, points)
    for round_ in range(_MAX_ROUNDS + 1):
        chain = h.ravel()
        steps = np.angle(np.concatenate((chain[1:], chain[:1])) / chain).reshape(h.shape)
        # a step that is not finite (h = 0 on the chain) halves as well
        rough = ~(np.abs(steps) <= _MAX_PHASE_STEP).all(axis=1)
        if not rough.any() or round_ == _MAX_ROUNDS:
            return points, h, steps
        counts = 1 + rough
        second = (np.cumsum(counts) - 1)[rough]
        starts = np.repeat(points[:, 0], counts)
        starts[second] = (starts[second - 1] + starts[(second + 1) % len(starts)]) / 2.0
        points, h = _panels(starts), np.repeat(h, counts, axis=0)
        fresh = np.zeros(len(starts), dtype=bool)
        fresh[second] = fresh[second - 1] = True
        h[fresh] = _h(profile, points[fresh])


def _box_seeds(profile: PotentialProfile, left: float, right: float, depth: float):
    """(count, seeds) of the box Re k in [left, right], Im k in [-depth, _TOP]:
    the number of poles inside it (the winding number of h around it) and
    one seed for each, from the box's moments (module docstring)."""
    corners = np.array([left - 1j * depth, right - 1j * depth, right + 1j * _TOP, left + 1j * _TOP])
    points, h, steps = _contour(profile, corners)
    count = int(round(steps.sum() / (2.0 * np.pi)))
    if count < 1:
        return 0, []
    # Log h along the chain, continuous from the first corner on
    phase = np.angle(h.flat[0]) + (np.cumsum(steps) - steps.ravel()).reshape(h.shape)
    log_h = np.log(np.abs(h)) + 1j * phase
    # u = (k - c)/r, c the box's centre and r its half diagonal
    centre = corners.mean()
    radius = abs(corners[0] - centre)
    u = (points - centre) / radius
    starts = points[:, 0]
    lengths = np.concatenate((starts[1:], starts[:1])) - starts
    weighted = (log_h[:, 1:] * lengths[:, None] * (_WEIGHTS / 2.0)).ravel()
    moments = weighted @ np.vander(u[:, 1:].ravel(), count, increasing=True)
    p = np.arange(1, count + 1)
    sums = u[0, 0] ** p * count - p * moments / (2j * np.pi * radius)
    seeds = centre + radius * _roots(sums)
    # a pole a rounding distance below the real axis can seed above it
    return count, [complex(s.real, -abs(s.imag)) for s in seeds.tolist()]


def _roots(sums: np.ndarray) -> np.ndarray:
    """The numbers with power sums s_1, s_2, ...: np.roots of the monic
    polynomial of Newton's identities, or for one number s_1, its root."""
    if len(sums) == 1:
        return sums
    coefficients = [1.0]
    for m in np.arange(1, len(sums) + 1):
        coefficients.append(-np.dot(coefficients[::-1], sums[:m]) / m)
    return np.roots(coefficients)


def seed_poles(profile: PotentialProfile, E_max: float) -> list[complex]:
    """Seeds of the poles in the box Re k in [0.01 nm^-1, k(E_max)], Im k in
    [-k(E_max)/4, 0.05 nm^-1]: the contour count and moments of the module
    docstring, as find_poles forms them for its first box.  An empty list
    is a valid result (a free profile, or no pole in the box)."""
    right = wavenumber(_real_finite(E_max, "E_max (eV)", positive=True), profile).real
    return _box_seeds(profile, _LEFT, right, _DEPTH * right)[1]


def refine_pole(profile: PotentialProfile, seed: complex) -> ResonancePole:
    """Newton on the matched Wronskian from a fourth-quadrant seed.

    Stops on the backward-error test of the module docstring; raises
    PoleConvergenceError with the iterate trace after _MAX_ITERATIONS
    iterations or when an iterate trips an overflow guard (a layer's or the
    march's), and QuadrantEscapeError when halving cannot keep a step in
    the quadrant or keeps it only within _STEP_ULPS ulps of Re k = 0.
    It is the one-seed batch of _newton, which find_poles runs.
    """
    k = _complex_finite(seed, "seed")
    if not (0 < k.real and k.imag < 0):
        raise DomainError(f"seed {k} not a point of the fourth quadrant")
    return _newton(profile, [k])[0]


def _newton(profile: PotentialProfile, seeds) -> list[ResonancePole]:
    """refine_pole from every fourth-quadrant seed in lockstep (module
    docstring): one array evaluation per round for all unfinished seeds.

    The first seed to fail ends the batch, at once, with what refine_pole
    raises for it; after _MAX_ITERATIONS rounds, that is the first seed still active.
    """
    ks = [complex(seed) for seed in seeds]
    traces = [[k] for k in ks]
    edges: dict[int, int] = {}
    last = {}  # each seed's last (W, step)
    poles: dict[int, ResonancePole] = {}
    active = list(range(len(ks)))
    rounds = 0
    while active and rounds < _MAX_ITERATIONS:
        # each seed's W and its central-difference neighbours, as columns
        now = [ks[i] for i in active]
        hs = [abs(k) * 1e-7 for k in now]
        points = np.array(
            [now, [k + h for k, h in zip(now, hs)], [k - h for k, h in zip(now, hs)]]
        )
        try:
            layers = _layers(profile, points)
        except OverflowGuardError as err:
            # a diverging iterate has run deep into the lower half plane.
            # The guarded point is the first of its seed's column, so its
            # row is the index the seed's own 3-point evaluation would name
            i = active[err.point % len(active)]
            err.point //= len(active)
            raise PoleConvergenceError(
                f"iterate {ks[i]} tripped the guard: {err}", traces[i]
            ) from err
        growth = _growth(layers)[:, 0]
        if rounds == 0:
            # each seed's join edge, where the growth on either side balances
            joins = _joins(len(growth) - 1)
            balance = np.abs(2.0 * growth[joins] - growth[-1]).argmin(axis=0)
            edges = dict(zip(active, (balance + joins.start).tolist()))
        left, right = _outgoing(layers, points)
        # W at each seed's own join edge only, as Python complexes
        cols = np.arange(len(active))
        at = [edges[i] for i in active]
        wronskians = _wronskian(left[at, :, :, cols], right[at, :, :, cols]).tolist()
        steps = []
        for (w, w_plus, w_minus), h in zip(wronskians, hs):
            try:
                steps.append(-w / ((w_plus - w_minus) / (2.0 * h)))
            except ZeroDivisionError:
                steps.append(complex(np.nan))
        # one join test for every seed whose step has reached rounding level
        near = [
            col for col, (k, step) in enumerate(zip(now, steps))
            if abs(step) <= _STEP_ULPS * _EPS * abs(k)
        ]
        certified = set()
        if near:
            mismatch = _join(
                growth[:, near], left[:, :, 0, near], right[:, :, 0, near], points[0, near]
            )[1]
            certified = {col for col, m in zip(near, mismatch) if m <= _W_TOL}
        stepping = []
        for col, (i, step) in enumerate(zip(active, steps)):
            k, trace = ks[i], traces[i]
            if col in certified:
                k = k + step
                poles[i] = ResonancePole(index=0, k=k, E=energy_of(k, profile), hbar=HBAR_EV_PS)
                continue
            if step == 0 or not np.isfinite(step):
                raise PoleConvergenceError(
                    f"no Newton step from uncertified iterate {k}", trace
                )
            for _ in range(_MAX_HALVINGS):
                if (k + step).real > 0 and (k + step).imag < 0:
                    break
                step /= 2.0
            else:
                raise QuadrantEscapeError(
                    f"iterate {k + step} left the fourth quadrant", trace
                )
            last[i] = wronskians[col][0], step
            ks[i] = k + step
            trace.append(ks[i])
            if ks[i].real < _STEP_ULPS * _EPS * abs(ks[i]):
                # a root off the quadrant: halving would hold Re k at
                # rounding level for every remaining round
                raise QuadrantEscapeError(
                    f"iterate {ks[i]} reached the imaginary axis", trace
                )
            stepping.append(i)
        active = stepping
        rounds += 1
    if active:
        w, step = last[active[0]]
        raise PoleConvergenceError(
            f"no convergence after {_MAX_ITERATIONS} iterations, "
            f"last |W| = {abs(w):.3e}, last step {abs(step):.3e}",
            traces[active[0]],
        )
    return [poles[i] for i in range(len(ks))]


def _obeys(k: complex) -> bool:
    """The depth rule: -Im k <= Re k / 4."""
    return -k.imag <= _DEPTH * k.real


def find_poles(profile: PotentialProfile, N: int) -> list[ResonancePole]:
    """The N lowest poles by curlyE_n among those with -Im k <= Re k / 4,
    indexed 1..N by increasing curlyE_n.

    Boxes of the k plane are counted and seeded left to right (module
    docstring) until N seeds obey the rule and no lower pole that obeys it
    can lie past the last box; all seeds are then refined in one lockstep
    batch, which the first seed to fail ends with refine_pole's error for
    it.  A box whose count exceeds the distinct poles found inside it is
    halved on Re k and seeded again.  Duplicates collapse at |dk| < 1e-9
    nm^-1.  A returned pole with Im k >= 0, whose width is below the
    rounding of Im k, raises PoleQualityError naming it.
    """
    N = _count(N, "N")
    if profile.is_free:
        raise PoleCountError(found=0, requested=N)
    h22m = profile.hbar2_over_2m
    barriers = [l for l in profile.layers if l.height > 0]
    cap = _WINDOW_CAP * max(l.height + h22m * (np.pi / l.width) ** 2 for l in barriers)
    E_max, left = 0.05, _LEFT
    boxes, seeds = [], []
    for attempt in range(9):
        right = wavenumber(E_max, profile).real
        box = (left, right, _DEPTH * right)
        count, box_seeds = _box_seeds(profile, *box)
        boxes.append((box, count))
        seeds += box_seeds
        # Re k^2 of the seeds that obey the rule; one that obeys it with Re
        # k > right has Re k^2 > right^2 (1 - _DEPTH^2)
        lowest = sorted((s * s).real for s in seeds if _obeys(s))
        found = len(lowest) >= N and right * right * (1.0 - _DEPTH**2) >= lowest[N - 1]
        if found or attempt == 8 or E_max >= cap:
            break
        left, E_max = right, 2.0 * E_max
    poles: list[ResonancePole] = []
    for _ in range(_MAX_ROUNDS):
        for p in _newton(profile, seeds):
            if not any(abs(p.k - other.k) < 1e-9 for other in poles):
                poles.append(p)
        short = [
            (left, right, depth)
            for (left, right, depth), count in boxes
            if sum(left <= p.k.real <= right and -depth <= p.k.imag for p in poles) < count
        ]
        if not short:
            break
        boxes, seeds = [], []
        for left, right, depth in short:
            middle = (left + right) / 2.0
            for half in ((left, middle, depth), (middle, right, depth)):
                count, half_seeds = _box_seeds(profile, *half)
                boxes.append((half, count))
                seeds += half_seeds
    poles = sorted((p for p in poles if _obeys(p.k)), key=lambda p: p.E_position)
    if len(poles) < N:
        capped = {"cap": cap, "window": E_max} if E_max >= cap else {}
        raise PoleCountError(found=len(poles), requested=N, **capped)
    for i, p in enumerate(poles[:N]):
        if p.k.imag >= 0:
            raise PoleQualityError(
                f"pole n={i + 1}: Im k = {p.k.imag:.3g} nm^-1 >= 0 (Gamma = {p.Gamma:.3g} eV)"
            )
    return [ResonancePole(i + 1, p.k, p.E, p.hbar) for i, p in enumerate(poles[:N])]
