"""Acceptance suite: ten numbered reproduction checks behind `selftest`.

Each criterion compares stated reference numbers (resonance parameters,
transmissions, fidelity bounds, invariants) against live computation and
prints one PASS/FAIL line plus expected-vs-measured sub-lines.  Several
stated pole digits are not reachable from the pinned constants
(hbar^2/2m_e = 0.0380998 eV nm^2, m/m_e = 0.067): the solver converges to
|f(k)| < 1e-12 and its values are stable under grid refinement, yet sit
0.008-0.024 meV away.  Those criteria fail honestly here; the suite never
substitutes computed values for stated ones, it records both.

A criterion's result is a numbered Manifest with notes whose verdict is ok;
its Checks are built by check_abs or check_bound, or, when it shares them
with a figure preset, by that preset's functions in presets.

Oracles used by criterion 10 (arbitrary-precision Faddeeva reference,
free-particle closed form, Crank-Nicolson grid propagation) live in this
module so the selftest is self-contained.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .config import Incidence
from .mfunc import faddeeva, m_function, m_function_scaled
from .model import PhysicalConstants, build_profile, energy_of, wavenumber
from .modes import rho
from .output import Check, Manifest, check_abs, check_bound
from .poles import find_poles
from .presets import (
    DOUBLE_LAYERS,
    MASS_RATIO,
    TRIPLE_LAYERS,
    check_closed_two_level,
    check_enhancement,
    check_envelope,
    check_frequency,
    check_stated_double_T,
    check_tau1,
    fig3b_layers,
)
from .scattering import stationary_wave, transfer_matrix, transmission
from .transient import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    Spectrum,
    evolve_trace,
    free_shutter_psi,
    make_problem,
    make_spectrum,
    psi_exact,
)
from .twolevel import chi, density_resonant_exponential, frequencies, xi

__all__ = ["CheckResult", "AcceptanceContext", "run_acceptance", "CRITERIA"]

MEV = 1e-3  # eV per meV


@dataclass
class CheckResult(Manifest):
    """One numbered criterion: a Manifest of checks plus notes."""

    number: int = field(kw_only=True)
    notes: list[str] = field(default_factory=list)

    def line(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return f"criterion {self.number:2d}: {verdict}  {self.title}"

    def render(self) -> str:
        out = [self.line()]
        out.extend(c.line() for c in self.checks)
        out.extend(f"    note: {n}" for n in self.notes)
        return "\n".join(out)


class AcceptanceContext:
    """Shared profiles; their spectra come from make_spectrum's memo."""

    def __init__(self):
        self.triple = build_profile(list(TRIPLE_LAYERS), MASS_RATIO)
        self.double = build_profile(list(DOUBLE_LAYERS), MASS_RATIO)
        self._profiles = {
            "triple": (self.triple, 4),
            "double": (self.double, 2),
            "b2_4": (build_profile(list(fig3b_layers(4.0)), MASS_RATIO), 4),
            "b2_5": (build_profile(list(fig3b_layers(5.0)), MASS_RATIO), 4),
        }

    def spectrum(self, name: str) -> Spectrum:
        return make_spectrum(*self._profiles[name])

    def poles_of(self, name: str):
        return self.spectrum(name).poles

    def doublet_center(self, name: str) -> float:
        return Incidence("doublet-center").energy(self.poles_of(name))

    @property
    def Ebar(self) -> float:
        return self.doublet_center("triple")

    @property
    def tau1(self) -> float:
        return self.poles_of("triple")[0].tau

    def problem(self, name: str, E: float):
        return self.spectrum(name).at(E)


# --- criteria 1-4: stated resonance parameters and transmissions ---------


def criterion_1(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("stated doublet parameters, triple barrier", number=1)
    t0 = time.perf_counter()
    poles = find_poles(ctx.triple, 4)
    runtime = time.perf_counter() - t0
    p1, p2 = poles[0], poles[1]
    cr.checks = [
        check_abs("curlyE1 (meV)", 11.512, p1.E_position / MEV, 0.001),
        check_abs("Gamma1 (meV)", 0.4089, p1.Gamma / MEV, 0.001),
        check_abs("curlyE2 (meV)", 14.387, p2.E_position / MEV, 0.001),
        check_abs("Gamma2 (meV)", 0.6365, p2.Gamma / MEV, 0.001),
        check_bound("pole search runtime (s)", "< 1", runtime, runtime < 1.0),
    ]
    cr.notes.append(
        "solver residual |f(k)| < 1e-12 at every root and the values are "
        "stable under seed-grid refinement; the remaining 0.008-0.024 meV "
        "offset from the stated digits is upstream of the root finder "
        "(constants or rounding in the source), so it is reported, not hidden"
    )
    return cr


def criterion_2(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("stated resonance parameters, double barrier", number=2)
    p1 = ctx.poles_of("double")[0]
    cr.checks = [
        check_abs("curlyE1 (meV)", 80.11, p1.E_position / MEV, 0.01),
        check_abs("Gamma1 (meV)", 1.033, p1.Gamma / MEV, 0.001),
    ]
    hbar_mev_ps = PhysicalConstants(mass_ratio=MASS_RATIO).hbar
    cr.notes.append(
        f"the stated lifetime 6.37 ps contradicts the stated width: "
        f"hbar/Gamma1 = {hbar_mev_ps / 1.033:.3f} ps from 1.033 meV "
        f"(measured tau1 = {p1.tau:.3f} ps); the width is the pinned "
        f"quantity and the factor-10 lifetime discrepancy is recorded here, "
        f"not reconciled"
    )
    return cr


def criterion_3(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("stated transmission values", number=3)
    T_center = transmission(ctx.triple, 12.949 * MEV)[1]
    T_res_t = transmission(ctx.triple, 11.512 * MEV)[1]
    T_res_d = transmission(ctx.double, 80.11 * MEV)[1]
    cr.checks = [
        check_abs("T(12.949 meV), triple", 0.119, T_center, 0.001),
        check_stated_double_T(ctx.double),
        check_bound("T at stated curlyE1, triple", ">= 0.99", T_res_t, T_res_t >= 0.99),
        check_bound("T at stated curlyE1, double", ">= 0.99", T_res_d, T_res_d >= 0.99),
    ]
    p1t = ctx.poles_of("triple")[0]
    p1d = ctx.poles_of("double")[0]
    cr.notes.append(
        f"at the self-computed resonance energies: T({p1t.E_position / MEV:.4f} meV) = "
        f"{transmission(ctx.triple, p1t.E_position)[1]:.6f} (triple), "
        f"T({p1d.E_position / MEV:.4f} meV) = "
        f"{transmission(ctx.double, p1d.E_position)[1]:.6f} (double)"
    )
    return cr


def criterion_4(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("derived doublet quantities, triple barrier", number=4)
    p1 = ctx.poles_of("triple")[0]
    offset_units = (ctx.Ebar - p1.E_position) / p1.Gamma
    cr.checks = [
        check_tau1(p1.tau),
        check_abs("doublet center Ebar (meV)", 12.949, ctx.Ebar / MEV, 0.001),
        check_abs("(Ebar - curlyE1)/Gamma1", 3.515, offset_units, 0.005),
    ]
    cr.notes.append(
        "Ebar and the offset inherit the pole offsets of criterion 1; "
        "tau1 is insensitive to them and lands inside its band"
    )
    return cr


# --- criteria 5-9: transient behavior ------------------------------------


def criterion_5(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("long-time asymptote |Psi(L)|^2 -> T(E) at t = 25 tau1", number=5)
    p_t, p_d = ctx.poles_of("triple"), ctx.poles_of("double")
    cases = [
        ("triple, E1 + 2 Gamma1", "triple", Incidence("offset", 2.0).energy(p_t)),
        ("triple, E1", "triple", Incidence("offset", 0.0).energy(p_t)),
        ("triple, doublet center", "triple", ctx.Ebar),
        ("double, E1 + 3.515 Gamma1", "double", Incidence("offset", 3.515).energy(p_d)),
    ]
    for b2, name in ((4.0, "b2_4"), (5.0, "b2_5")):
        label = f"wider central barrier b2 = {b2:g} nm, doublet center"
        cases.append((label, name, ctx.doublet_center(name)))
    for label, name, E in cases:
        prob = ctx.problem(name, E)
        T = abs(prob.field.t) ** 2
        d = abs(psi_exact(prob, prob.L, 25.0 * prob.modes[0].pole.tau)) ** 2
        rel = abs(d - T) / T
        cr.checks.append(
            check_bound(f"{label}: |density/T - 1| at 25 tau1", "< 0.03", rel, rel < 0.03)
        )
    return cr


def criterion_6(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("two-level fidelity against the exact N=4 density", number=6)
    prob = ctx.problem("triple", Incidence("offset", 2.0).energy(ctx.poles_of("triple")))
    tau1 = ctx.tau1
    times = np.linspace(0.1 * tau1, 10.0 * tau1, 1500)
    trace = evolve_trace(
        prob,
        prob.L,
        times,
        (METHOD_EXACT, METHOD_TWO_LEVEL_CLOSED, METHOD_TWO_LEVEL_M),
    )
    d4 = trace.densities[METHOD_EXACT]
    d7 = trace.densities[METHOD_TWO_LEVEL_M]
    dev7 = float(np.max(np.abs(d7 - d4) / d4))
    cr.checks = [
        check_closed_two_level(trace, tau1),
        check_bound(
            "doublet M-form vs exact, max rel dev on [0.1, 10] tau1",
            "< 0.05",
            dev7,
            dev7 < 0.05,
        ),
    ]
    i7 = int(np.argmax(np.abs(d7 - d4) / d4))
    T = abs(prob.field.t) ** 2
    dev7_T = float(np.max(np.abs(d7 - d4)) / T)
    cr.notes.append(
        f"the M-form deviation peaks at t = {times[i7] / tau1:.2f} tau1 where "
        f"the density itself is small; relative to the asymptote T the same "
        f"deviation is {dev7_T:.3f}, so the early-time miss is a "
        f"small-denominator effect of the dropped background terms"
    )
    return cr


def criterion_7(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("on-resonance envelope of the doublet M-form density", number=7)
    p = ctx.poles_of("triple")
    p1 = p[0]
    prob = ctx.problem("triple", Incidence("offset", 0.0).energy(p))
    times = np.linspace(0.0, 10.0 * p1.tau, 2000)
    trace = evolve_trace(prob, prob.L, times, (METHOD_TWO_LEVEL_M, METHOD_EXPONENTIAL))
    d7 = trace.densities[METHOD_TWO_LEVEL_M]
    T = abs(prob.field.t) ** 2
    cr.checks = check_envelope(trace, T, frequencies(prob.E, p[0], p[1]).omega_21)
    d_bare = density_resonant_exponential(float(T), p1.tau, times)
    cr.notes.append(
        f"the envelope time constant is the amplitude decay time "
        f"2 hbar/Gamma1 = {2.0 * p1.tau:.3f} ps; with the bare lifetime "
        f"hbar/Gamma1 the same comparison misses by "
        f"{float(np.max(np.abs(d7 - d_bare))) / T:.3f} T, which pins the "
        f"factor of two"
    )
    return cr


def criterion_8(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("single-frequency regime at the doublet center", number=8)
    prob = ctx.problem("triple", ctx.Ebar)
    tau1 = ctx.tau1
    times = np.linspace(0.0, 10.0 * tau1, 2000)
    trace = evolve_trace(prob, prob.L, times, (METHOD_EXACT,))
    target = 4.368 / 2.0
    check = check_frequency(
        "dominant frequency of the density trace (rad/ps)",
        f"{target:.4f} +- 3% (stated omega21/2)",
        times,
        trace.densities[METHOD_EXACT],
        target,
        0.03,
    )
    cr.checks.append(check)
    p = ctx.poles_of("triple")
    own = frequencies(ctx.Ebar, p[0], p[1]).omega_21 / 2.0
    f_dom = check.measured
    if not math.isnan(f_dom):
        cr.notes.append(
            f"self-computed omega21/2 = {own:.4f} rad/ps; the measured "
            f"frequency sits {abs(f_dom - own) / own:.2%} from it"
        )
    return cr


def criterion_9(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("transmission enhancement with central barrier width", number=9)
    T_of = {
        b2: transmission(ctx.spectrum(name).profile, ctx.doublet_center(name))[1]
        for b2, name in ((3.0, "triple"), (4.0, "b2_4"), (5.0, "b2_5"))
    }
    cr.checks = check_enhancement(list(T_of.values()))
    cr.notes.append(
        "measured: " + ", ".join(f"T({b2:g} nm) = {T_of[b2]:.4f}" for b2 in (3.0, 4.0, 5.0))
    )
    return cr


# --- criterion 10: invariant property suites ------------------------------


def _faddeeva_reference(z):
    """w(z) = e^{-z^2} erfc(-iz) to 50 digits; z a complex or an mpmath mpc."""
    import mpmath as mp

    with mp.workdps(50):
        zm = mp.mpc(z.real, z.imag)
        return mp.exp(-zm * zm) * mp.erfc(-1j * zm)


def _check_faddeeva_oracle(rng: np.random.Generator) -> list[Check]:
    import mpmath as mp

    checks = []
    for label, r_lo, r_hi, n_pts, tol in (
        ("disc |z| <= 10", 0.0, 10.0, 500, 1e-12),
        ("ring 10 < |z| <= 20", 10.0, 20.0, 200, 1e-10),
    ):
        radii = np.sqrt(rng.uniform(r_lo**2, r_hi**2, n_pts))
        angles = rng.uniform(0.0, 2.0 * np.pi, n_pts)
        zs = radii * np.exp(1j * angles)
        worst = 0.0
        skipped = 0
        for z in zs:
            ref = _faddeeva_reference(complex(z))
            if mp.fabs(ref) > 1e280:
                # beyond double range in the deep lower half plane; no
                # double-precision implementation can represent the value
                skipped += 1
                continue
            got = complex(faddeeva(complex(z)))
            err = abs(complex(got - complex(ref))) / float(mp.fabs(ref))
            worst = max(worst, err)
        name = f"Faddeeva vs 50-digit reference, {label}"
        if skipped:
            name += f" ({skipped} unrepresentable points skipped)"
        checks.append(check_bound(name, f"rel err < {tol:g}", worst, worst < tol))
    return checks


def _symmetry_residual(y: np.ndarray) -> float:
    """max |M(y) + M(-y) - exp(y^2)| over the largest participating term.

    Near the imaginary axis exp(y^2) is exponentially small against the
    two M values, so the residual relative to exp(y^2) alone is limited
    by conditioning (e^{|Re y^2|} amplification), not by the
    implementation; the largest-term denominator is the machine-testable
    statement of the identity.
    """
    m_plus = m_function(y)
    m_minus = m_function(-y)
    rhs = np.exp(y**2)
    scale = np.maximum(np.abs(rhs), np.maximum(np.abs(m_plus), np.abs(m_minus)))
    return float(np.max(np.abs(m_plus + m_minus - rhs) / scale))


def _check_m_symmetry(rng: np.random.Generator) -> list[Check]:
    radii = np.sqrt(rng.uniform(0.0, 25.0, 100))
    angles = rng.uniform(0.0, 2.0 * np.pi, 100)
    err_disc = _symmetry_residual(radii * np.exp(1j * angles))
    radii = np.sqrt(rng.uniform(25.0, 400.0, 200))
    angles = rng.uniform(0.0, 2.0 * np.pi, 200)
    y_ring = radii * np.exp(1j * angles)
    # exp(y^2) overflows the double range over most of the Re(y^2) > 0
    # sector of this ring, so there the identity is checked in the scaled
    # form M(y)e^{-y^2} + M(-y)e^{-y^2} = 1; the complementary sector has
    # all terms bounded and uses the plain residual
    grows = y_ring.real**2 >= y_ring.imag**2
    err_safe = float(
        np.max(
            np.abs(
                m_function_scaled(y_ring[grows])
                + m_function_scaled(-y_ring[grows])
                - 1.0
            )
        )
    )
    err_ring = max(err_safe, _symmetry_residual(y_ring[~grows]))
    return [
        check_bound(
            "M(y) + M(-y) = exp(y^2), disc |y| <= 5",
            "residual/largest term < 1e-11",
            err_disc,
            err_disc < 1e-11,
        ),
        check_bound(
            "symmetry on the ring 5 < |y| <= 20, exponent-safe form",
            "residual < 1e-8",
            err_ring,
            err_ring < 1e-8,
        ),
    ]


def _check_factorizations(ctx: AcceptanceContext) -> Check:
    p = ctx.poles_of("triple")
    worst = 0.0
    t = np.linspace(0.0, 10.0 * ctx.tau1, 400)
    for E in (ctx.Ebar, Incidence("offset", 2.0).energy(p)):
        fr = frequencies(E, p[0], p[1])
        h2 = 2.0 * fr.hbar
        z = {
            n: np.exp((1j * getattr(fr, f"omega_hat_{n}") - getattr(fr, f"Gamma_{n}") / h2) * t)
            for n in (1, 2)
        }
        for n in (1, 2):
            worst = max(worst, float(np.max(np.abs(chi(fr, n, t) - np.abs(1.0 - z[n]) ** 2))))
        for m, n in ((1, 2), (2, 1)):
            worst = max(
                worst,
                float(np.max(np.abs(xi(fr, m, n, t) - (1.0 - z[m]) * np.conj(1.0 - z[n])))),
            )
    return check_bound(
        "chi_n and xi_mn vs their factored forms", "abs err < 1e-13", worst, worst < 1e-13
    )


def _check_doublet_truncation(ctx: AcceptanceContext) -> list[Check]:
    p = ctx.poles_of("triple")
    modes = ctx.spectrum("triple").modes[:2]
    L = ctx.triple.total_length
    xs = np.array([L / 4.0, L / 2.0, L])

    def miss(E):
        """|Phi - (rho1 + rho2)|/|Phi| at xs."""
        prob = ctx.problem("triple", E)
        phi = stationary_wave(prob.field, xs)
        pair = rho(modes[0], prob.k, xs) + rho(modes[1], prob.k, xs)
        return np.abs(phi - pair) / np.abs(phi)

    energies = np.linspace(p[0].E_position - p[0].Gamma, p[1].E_position + p[1].Gamma, 20)
    worst = np.max([miss(E) for E in energies], axis=0)
    checks = [
        check_bound(
            f"|Phi - (rho1 + rho2)|/|Phi| over the doublet window, x = {x:g} nm",
            "< 0.15",
            w,
            w < 0.15,
        )
        for x, w in zip(xs, worst)
    ]
    rel = miss(ctx.Ebar)[-1]
    checks.append(check_bound("same at x = L, E = doublet center", "< 0.10", rel, rel < 0.10))
    return checks


def _free_psi_reference(k: float, x: float, t: float, beta: float) -> complex:
    """Independent free-shutter value via the arbitrary-precision route."""
    import mpmath as mp

    with mp.workdps(40):

        def M(y):
            # M(y) = e^{y^2} erfc(y) / 2 = w(iy) / 2
            return _faddeeva_reference(1j * y) / 2

        root = mp.sqrt(4 * mp.mpf(beta) * t)
        phase = mp.exp(1j * mp.mpf(x) ** 2 / (4 * mp.mpf(beta) * t))
        zp = mp.exp(-1j * mp.pi / 4) * (x - 2 * beta * k * t) / root
        zm = mp.exp(-1j * mp.pi / 4) * (x + 2 * beta * k * t) / root
        val = phase * (M(zp) - M(zm))
        return complex(val)


def _check_free_reduction() -> Check:
    constants = PhysicalConstants(mass_ratio=MASS_RATIO)
    free = build_profile([(1.0, 0.0)], MASS_RATIO)
    k = 0.142236183
    prob = make_problem(free, energy_of(k, constants).real, n_poles=0)
    worst = 0.0
    for x, t in ((0.5, 0.25), (0.25, 0.1), (1.0, 0.05)):
        mine = psi_exact(prob, x, t)
        ref = _free_psi_reference(k, x, t, constants.hbar_over_2m)
        worst = max(worst, abs(mine - ref) / abs(ref))
    return check_bound(
        "free-profile density vs arbitrary-precision free-shutter value",
        "rel err < 1e-8",
        worst,
        worst < 1e-8,
    )


def _crank_nicolson_free(
    k: float,
    t_final: float,
    constants: PhysicalConstants,
    domain_target: float = 680.0,
    dx: float = 0.02,
    dt: float = 2e-4,
):
    """Propagate the cutoff wave on a grid; returns (x_grid, psi at t_final).

    The left wall sits on a node of sin(kx) so the Dirichlet image term
    continues the initial condition exactly; the right wall is far enough
    that nothing reflected returns to the evaluation region by t_final.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    m_nodes = math.ceil(domain_target * k / math.pi)
    D = m_nodes * math.pi / k
    x = np.arange(-D, D + 0.5 * dx, dx)
    psi = np.where(x <= 0.0, 2j * np.sin(k * x), 0.0).astype(np.complex128)
    psi[0] = psi[-1] = 0.0
    beta = constants.hbar_over_2m
    lam = 1j * beta * dt / (2.0 * dx * dx)
    n = x.size
    ones = np.ones(n)
    A = sp.diags(
        [-lam * ones[1:], (1.0 + 2.0 * lam) * ones, -lam * ones[1:]],
        (-1, 0, 1),
        format="csc",
    )
    B = sp.diags(
        [lam * ones[1:], (1.0 - 2.0 * lam) * ones, lam * ones[1:]],
        (-1, 0, 1),
        format="csr",
    )
    lu = splu(A)
    steps = round(t_final / dt)
    for _ in range(steps):
        psi = lu.solve(B @ psi)
        psi[0] = psi[-1] = 0.0
    return x, psi


def _check_crank_nicolson() -> Check:
    constants = PhysicalConstants(mass_ratio=MASS_RATIO)
    k, t_final = 0.142236183, 0.25
    x, psi = _crank_nicolson_free(k, t_final, constants)
    j = int(np.argmin(np.abs(x - 0.5)))
    exact = free_shutter_psi(k, float(x[j]), t_final, constants)
    rel = abs(psi[j] - exact) / abs(exact)
    return check_bound(
        f"grid propagation vs closed form at x = {x[j]:.4f} nm, t = {t_final} ps",
        "rel err < 1e-3",
        rel,
        rel < 1e-3,
    )


def _check_short_time(ctx: AcceptanceContext) -> Check:
    prob = ctx.problem("triple", ctx.Ebar)
    T = abs(prob.field.t) ** 2
    d = abs(psi_exact(prob, prob.L, 1e-6)) ** 2
    return check_bound("|Psi(L)|^2 / T at t = 1e-6 ps", "< 1e-3", d / T, d / T < 1e-3)


def _check_unitarity(ctx: AcceptanceContext) -> Check:
    worst = 0.0
    for profile, e_hi in ((ctx.triple, 0.3), (ctx.double, 0.4)):
        M = transfer_matrix(profile, wavenumber(np.linspace(1e-3, e_hi, 200), profile).real)
        worst = max(worst, np.max(np.abs(np.abs(M.r) ** 2 + np.abs(M.t) ** 2 - 1.0)))
    return check_bound(
        "|r|^2 + |t|^2 = 1 over both structures", "abs err < 1e-10", worst, worst < 1e-10
    )


def criterion_10(ctx: AcceptanceContext) -> CheckResult:
    cr = CheckResult("invariant property suites", number=10)
    rng = np.random.default_rng(20260815)
    cr.checks = [
        *_check_faddeeva_oracle(rng),
        *_check_m_symmetry(rng),
        _check_factorizations(ctx),
        *_check_doublet_truncation(ctx),
        _check_free_reduction(),
        _check_crank_nicolson(),
        _check_short_time(ctx),
        _check_unitarity(ctx),
    ]
    if not all(c.passed for c in cr.checks if "rho1 + rho2" in c.name):
        cr.notes.append(
            "the two-term truncation misses hardest at interior points: at "
            "x = L/2 the antisymmetric doublet partner has a node "
            "(u2(L/2) ~ 0) and cannot help represent the stationary wave, "
            "and at x = L/4 the window edges pick up comparable background "
            "from out-of-doublet terms; the x = L column that feeds the "
            "transmitted density stays well within bounds"
        )
    return cr


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_acceptance() -> list[CheckResult]:
    """Run all ten criteria in order, printing one block per criterion."""
    ctx = AcceptanceContext()
    results = []
    for crit in CRITERIA:
        res = crit(ctx)
        print(res.render())
        results.append(res)
    n_pass = sum(r.ok for r in results)
    print(f"passed {n_pass} of {len(results)} criteria")
    return results
