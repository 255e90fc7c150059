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

Criterion 10 checks the Faddeeva function and the free-shutter closed
form against the arbitrary-precision references in `reference`.  Its grid
oracle (Crank-Nicolson propagation between Dirichlet walls, all of its
steps taken at once in the discrete sine basis) lives in this module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import reference
from .config import Incidence
from .mfunc import faddeeva, m_function, m_function_scaled
from .model import HBAR_EV_PS, HBAR_MEV_PS, build_profile, energy_of, wavenumber
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
    make_spectrum,
    psi_exact,
)
from .twolevel import chi, density_resonant_exponential, frequencies, xi

__all__ = ["CheckResult", "run_acceptance", "CRITERIA"]

MEV = 1e-3  # eV per meV


@dataclass
class CheckResult(Manifest):
    """One numbered criterion: a Manifest of checks plus notes."""

    number: int = field(kw_only=True)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        out = [f"criterion {self.number:2d}: {verdict}  {self.title}"]
        out.extend(c.line() for c in self.checks)
        out.extend(f"    note: {n}" for n in self.notes)
        return "\n".join(out)


# the selftest's structures: name -> (layers, pole count); make_spectrum
# returns the free profile's empty spectrum without a search
_STRUCTURES = {
    "triple": (TRIPLE_LAYERS, 4),
    "double": (DOUBLE_LAYERS, 2),
    "b2_4": (fig3b_layers(4.0), 4),
    "b2_5": (fig3b_layers(5.0), 4),
    "free": (((1.0, 0.0),), 0),
}
# the incident wave number (1/nm) of criterion 10's free-shutter checks
_FREE_K = 0.142236183


def _spectrum(name: str) -> Spectrum:
    """A selftest structure's spectrum, from make_spectrum's memo."""
    layers, n_poles = _STRUCTURES[name]
    return make_spectrum(build_profile(list(layers), MASS_RATIO), n_poles)


def _doublet_center(name: str) -> float:
    return Incidence("doublet-center").energy(_spectrum(name).poles)


# --- criteria 1-4: stated resonance parameters and transmissions ---------


def criterion_1() -> CheckResult:
    triple = build_profile(list(TRIPLE_LAYERS), MASS_RATIO)
    t0 = time.perf_counter()
    poles = find_poles(triple, 4)
    runtime = time.perf_counter() - t0
    p1, p2 = poles[0], poles[1]
    return CheckResult(
        "stated doublet parameters, triple barrier",
        number=1,
        checks=[
            check_abs("curlyE1 (meV)", 11.512, p1.E_position / MEV, 0.001),
            check_abs("Gamma1 (meV)", 0.4089, p1.Gamma / MEV, 0.001),
            check_abs("curlyE2 (meV)", 14.387, p2.E_position / MEV, 0.001),
            check_abs("Gamma2 (meV)", 0.6365, p2.Gamma / MEV, 0.001),
            check_bound("pole search runtime (s)", "< 1", runtime, runtime < 1.0),
        ],
        notes=[
            "solver residual |f(k)| < 1e-12 at every root and the values are "
            "stable under seed-grid refinement; the remaining 0.008-0.024 meV "
            "offset from the stated digits is upstream of the root finder "
            "(constants or rounding in the source), so it is reported, not hidden"
        ],
    )


def criterion_2() -> CheckResult:
    p1 = _spectrum("double").poles[0]
    return CheckResult(
        "stated resonance parameters, double barrier",
        number=2,
        checks=[
            check_abs("curlyE1 (meV)", 80.11, p1.E_position / MEV, 0.01),
            check_abs("Gamma1 (meV)", 1.033, p1.Gamma / MEV, 0.001),
        ],
        notes=[
            f"the stated lifetime 6.37 ps contradicts the stated width: "
            f"hbar/Gamma1 = {HBAR_MEV_PS / 1.033:.3f} ps from 1.033 meV "
            f"(measured tau1 = {p1.tau:.3f} ps); the width is the pinned "
            f"quantity and the factor-10 lifetime discrepancy is recorded here, "
            f"not reconciled"
        ],
    )


def criterion_3() -> CheckResult:
    triple, double = _spectrum("triple"), _spectrum("double")
    T_center = transmission(triple.profile, 12.949 * MEV)[1]
    T_res_t = transmission(triple.profile, 11.512 * MEV)[1]
    T_res_d = transmission(double.profile, 80.11 * MEV)[1]
    p1t, p1d = triple.poles[0], double.poles[0]
    return CheckResult(
        "stated transmission values",
        number=3,
        checks=[
            check_abs("T(12.949 meV), triple", 0.119, T_center, 0.001),
            check_stated_double_T(double.profile),
            check_bound("T at stated curlyE1, triple", ">= 0.99", T_res_t, T_res_t >= 0.99),
            check_bound("T at stated curlyE1, double", ">= 0.99", T_res_d, T_res_d >= 0.99),
        ],
        notes=[
            f"at the self-computed resonance energies: T({p1t.E_position / MEV:.4f} meV) = "
            f"{transmission(triple.profile, p1t.E_position)[1]:.6f} (triple), "
            f"T({p1d.E_position / MEV:.4f} meV) = "
            f"{transmission(double.profile, p1d.E_position)[1]:.6f} (double)"
        ],
    )


def criterion_4() -> CheckResult:
    p1, Ebar = _spectrum("triple").poles[0], _doublet_center("triple")
    offset_units = (Ebar - p1.E_position) / p1.Gamma
    return CheckResult(
        "derived doublet quantities, triple barrier",
        number=4,
        checks=[
            check_tau1(p1.tau),
            check_abs("doublet center Ebar (meV)", 12.949, Ebar / MEV, 0.001),
            check_abs("(Ebar - curlyE1)/Gamma1", 3.515, offset_units, 0.005),
        ],
        notes=[
            "Ebar and the offset inherit the pole offsets of criterion 1; "
            "tau1 is insensitive to them and lands inside its band"
        ],
    )


# --- criteria 5-9: transient behavior ------------------------------------


def criterion_5() -> CheckResult:
    p_t, p_d = _spectrum("triple").poles, _spectrum("double").poles
    cases = [
        ("triple, E1 + 2 Gamma1", "triple", Incidence("offset", 2.0).energy(p_t)),
        ("triple, E1", "triple", Incidence("offset", 0.0).energy(p_t)),
        ("triple, doublet center", "triple", _doublet_center("triple")),
        ("double, E1 + 3.515 Gamma1", "double", Incidence("offset", 3.515).energy(p_d)),
        ("wider central barrier b2 = 4 nm, doublet center", "b2_4", _doublet_center("b2_4")),
        ("wider central barrier b2 = 5 nm, doublet center", "b2_5", _doublet_center("b2_5")),
    ]
    checks = []
    for label, name, E in cases:
        prob = _spectrum(name).at(E)
        T = abs(prob.field.t) ** 2
        d = abs(psi_exact(prob, prob.L, 25.0 * prob.modes[0].pole.tau)) ** 2
        rel = abs(d - T) / T
        checks.append(
            check_bound(f"{label}: |density/T - 1| at 25 tau1", "< 0.03", rel, rel < 0.03)
        )
    return CheckResult(
        "long-time asymptote |Psi(L)|^2 -> T(E) at t = 25 tau1", number=5, checks=checks
    )


def criterion_6() -> CheckResult:
    triple = _spectrum("triple")
    prob = triple.at(Incidence("offset", 2.0).energy(triple.poles))
    tau1 = triple.poles[0].tau
    times = np.linspace(0.1 * tau1, 10.0 * tau1, 1500)
    trace = evolve_trace(
        prob,
        prob.L,
        times,
        (METHOD_EXACT, METHOD_TWO_LEVEL_CLOSED, METHOD_TWO_LEVEL_M),
    )
    d4 = trace.densities[METHOD_EXACT]
    d7 = trace.densities[METHOD_TWO_LEVEL_M]
    rel7 = np.abs(d7 - d4) / d4
    dev7 = float(np.max(rel7))
    i7 = int(np.argmax(rel7))
    T = abs(prob.field.t) ** 2
    dev7_T = float(np.max(np.abs(d7 - d4)) / T)
    return CheckResult(
        "two-level fidelity against the exact N=4 density",
        number=6,
        checks=[
            check_closed_two_level(trace, tau1),
            check_bound(
                "doublet M-form vs exact, max rel dev on [0.1, 10] tau1",
                "< 0.05",
                dev7,
                dev7 < 0.05,
            ),
        ],
        notes=[
            f"the M-form deviation peaks at t = {times[i7] / tau1:.2f} tau1 where "
            f"the density itself is small; relative to the asymptote T the same "
            f"deviation is {dev7_T:.3f}, so the early-time miss is a "
            f"small-denominator effect of the dropped background terms"
        ],
    )


def criterion_7() -> CheckResult:
    triple = _spectrum("triple")
    p, p1 = triple.poles, triple.poles[0]
    prob = triple.at(Incidence("offset", 0.0).energy(p))
    times = np.linspace(0.0, 10.0 * p1.tau, 2000)
    trace = evolve_trace(prob, prob.L, times, (METHOD_TWO_LEVEL_M, METHOD_EXPONENTIAL))
    d7 = trace.densities[METHOD_TWO_LEVEL_M]
    T = abs(prob.field.t) ** 2
    d_bare = density_resonant_exponential(float(T), p1.tau, times)
    return CheckResult(
        "on-resonance envelope of the doublet M-form density",
        number=7,
        checks=check_envelope(trace, T, frequencies(prob.E, p[0], p[1]).omega_21),
        notes=[
            f"the envelope time constant is the amplitude decay time "
            f"2 hbar/Gamma1 = {2.0 * p1.tau:.3f} ps; with the bare lifetime "
            f"hbar/Gamma1 the same comparison misses by "
            f"{float(np.max(np.abs(d7 - d_bare))) / T:.3f} T, which pins the "
            f"factor of two"
        ],
    )


def criterion_8() -> CheckResult:
    triple, Ebar = _spectrum("triple"), _doublet_center("triple")
    prob = triple.at(Ebar)
    tau1 = triple.poles[0].tau
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
    p = triple.poles
    own = frequencies(Ebar, p[0], p[1]).omega_21 / 2.0
    f_dom = check.measured
    return CheckResult(
        "single-frequency regime at the doublet center",
        number=8,
        checks=[check],
        notes=[] if math.isnan(f_dom) else [
            f"self-computed omega21/2 = {own:.4f} rad/ps; the measured "
            f"frequency sits {abs(f_dom - own) / own:.2%} from it"
        ],
    )


def criterion_9() -> CheckResult:
    T_of = {
        b2: transmission(_spectrum(name).profile, _doublet_center(name))[1]
        for b2, name in ((3.0, "triple"), (4.0, "b2_4"), (5.0, "b2_5"))
    }
    return CheckResult(
        "transmission enhancement with central barrier width",
        number=9,
        checks=check_enhancement(list(T_of.values())),
        notes=["measured: " + ", ".join(f"T({b2:g} nm) = {T:.4f}" for b2, T in T_of.items())],
    )


# --- criterion 10: invariant property suites ------------------------------


def _annulus(rng: np.random.Generator, r_lo: float, r_hi: float, n: int) -> np.ndarray:
    """n points uniform in area on r_lo <= |z| <= r_hi: n radii, then n angles."""
    radii = np.sqrt(rng.uniform(r_lo**2, r_hi**2, n))
    return radii * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))


def _check_faddeeva_oracle(rng: np.random.Generator) -> list[Check]:
    checks = []
    for label, r_lo, r_hi, n_pts, tol in (
        ("disc |z| <= 10", 0.0, 10.0, 500, 1e-12),
        ("ring 10 < |z| <= 20", 10.0, 20.0, 200, 1e-10),
    ):
        worst = 0.0
        for z in _annulus(rng, r_lo, r_hi, n_pts):
            ref = reference.faddeeva(complex(z))
            got = complex(faddeeva(complex(z)))
            worst = max(worst, abs(got - complex(ref)) / float(abs(ref)))
        name = f"Faddeeva vs 50-digit reference, {label}"
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
    err_disc = _symmetry_residual(_annulus(rng, 0.0, 5.0, 100))
    y_ring = _annulus(rng, 5.0, 20.0, 200)
    # on the Re(y^2) > 0 sector the identity is checked in its stated,
    # scaled form M(y)e^{-y^2} + M(-y)e^{-y^2} = 1, exponent-safe past
    # |y| ~ 26.6 where exp(y^2) overflows (on this ring Re(y^2) <= 366.5:
    # plain residual 5.7e-14, scaled 1.1e-16); the complementary sector
    # has all terms bounded and uses the plain residual
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


def _check_factorizations() -> Check:
    p = _spectrum("triple").poles
    worst = 0.0
    t = np.linspace(0.0, 10.0 * p[0].tau, 400)
    for E in (_doublet_center("triple"), Incidence("offset", 2.0).energy(p)):
        fr = frequencies(E, p[0], p[1])
        h2 = 2.0 * HBAR_EV_PS
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


def _check_doublet_truncation() -> list[Check]:
    triple = _spectrum("triple")
    p, modes = triple.poles, triple.modes[:2]
    L = triple.profile.total_length
    xs = np.array([L / 4.0, L / 2.0, L])

    def miss(E):
        """|Phi - (rho1 + rho2)|/|Phi| at xs."""
        prob = triple.at(E)
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
    rel = miss(_doublet_center("triple"))[-1]
    checks.append(check_bound("same at x = L, E = doublet center", "< 0.10", rel, rel < 0.10))
    return checks


def _check_free_reduction() -> Check:
    free = _spectrum("free")
    prob = free.at(energy_of(_FREE_K, free.profile).real)
    worst = 0.0
    for x, t in ((0.5, 0.25), (0.25, 0.1), (1.0, 0.05)):
        mine = psi_exact(prob, x, t)
        ref = reference.free_shutter_psi(_FREE_K, x, t, free.profile.hbar_over_2m)
        worst = max(worst, abs(mine - ref) / abs(ref))
    return check_bound(
        "free-profile density vs arbitrary-precision free-shutter value",
        "rel err < 1e-8",
        worst,
        worst < 1e-8,
    )


# the grid oracle's half-width (nm), step (nm) and time step (ps); they are
# fixed, since at a 300 nm half-width the check node moves and misses 1e-3
_CN_DOMAIN, _CN_DX, _CN_DT = 680.0, 0.02, 2e-4


def _crank_nicolson_free(k: float, t_final: float, beta: float):
    """Propagate the cutoff wave on a grid; returns (x_grid, psi at t_final).

    Crank-Nicolson with Dirichlet walls at both ends of the grid, taken
    t_final / _CN_DT steps at once: on the interior nodes the step
    (I + lam T) psi' = (I - lam T) psi, T = tridiag(-1, 2, -1), is diagonal
    in the discrete sine basis (DST-I), where T has the eigenvalues
    mu_j = 4 sin^2(j pi / (2 (N + 1))) and the step multiplies each
    coefficient by exp(-2i arctan(a_j)), a_j = beta dt mu_j / (2 dx^2).
    The left wall sits on a node of sin(kx) so the Dirichlet image term
    continues the initial condition exactly; the right wall is far enough
    that nothing reflected returns to the evaluation region by t_final.
    """
    from scipy.fft import dst, idst

    m_nodes = math.ceil(_CN_DOMAIN * k / math.pi)
    D = m_nodes * math.pi / k
    x = np.arange(-D, D + 0.5 * _CN_DX, _CN_DX)
    psi = np.where(x <= 0.0, 2j * np.sin(k * x), 0.0).astype(np.complex128)
    psi[0] = psi[-1] = 0.0
    n = x.size - 2
    mu = 4.0 * np.sin(np.arange(1, n + 1) * (math.pi / (2 * (n + 1)))) ** 2
    a = beta * _CN_DT / (2.0 * _CN_DX * _CN_DX) * mu
    steps = round(t_final / _CN_DT)
    phase = np.exp(-2j * steps * np.arctan(a))
    psi[1:-1] = idst(phase * dst(psi[1:-1], type=1), type=1)
    return x, psi


def _check_crank_nicolson() -> Check:
    beta = _spectrum("free").profile.hbar_over_2m
    t_final = 0.25
    x, psi = _crank_nicolson_free(_FREE_K, t_final, beta)
    j = int(np.argmin(np.abs(x - 0.5)))
    exact = free_shutter_psi(_FREE_K, float(x[j]), t_final, beta)
    rel = abs(psi[j] - exact) / abs(exact)
    return check_bound(
        f"grid propagation vs closed form at x = {x[j]:.4f} nm, t = {t_final} ps",
        "rel err < 1e-3",
        rel,
        rel < 1e-3,
    )


def _check_short_time() -> Check:
    prob = _spectrum("triple").at(_doublet_center("triple"))
    T = abs(prob.field.t) ** 2
    d = abs(psi_exact(prob, prob.L, 1e-6)) ** 2
    return check_bound("|Psi(L)|^2 / T at t = 1e-6 ps", "< 1e-3", d / T, d / T < 1e-3)


def _check_unitarity() -> Check:
    worst = 0.0
    for profile, e_hi in ((_spectrum("triple").profile, 0.3), (_spectrum("double").profile, 0.4)):
        M = transfer_matrix(profile, wavenumber(np.linspace(1e-3, e_hi, 200), profile).real)
        worst = max(worst, np.max(np.abs(np.abs(M.r) ** 2 + np.abs(M.t) ** 2 - 1.0)))
    return check_bound(
        "|r|^2 + |t|^2 = 1 over both structures", "abs err < 1e-10", worst, worst < 1e-10
    )


def criterion_10() -> CheckResult:
    rng = np.random.default_rng(20260815)
    checks = [
        *_check_faddeeva_oracle(rng),
        *_check_m_symmetry(rng),
        _check_factorizations(),
        *_check_doublet_truncation(),
        _check_free_reduction(),
        _check_crank_nicolson(),
        _check_short_time(),
        _check_unitarity(),
    ]
    return CheckResult(
        "invariant property suites",
        number=10,
        checks=checks,
        notes=[] if all(c.passed for c in checks if "rho1 + rho2" in c.name) else [
            "the two-term truncation misses hardest at interior points: at "
            "x = L/2 the antisymmetric doublet partner has a node "
            "(u2(L/2) ~ 0) and cannot help represent the stationary wave, "
            "and at x = L/4 the window edges pick up comparable background "
            "from out-of-doublet terms; the x = L column that feeds the "
            "transmitted density stays well within bounds"
        ],
    )


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
    results = []
    for crit in CRITERIA:
        res = crit()
        print(res.render())
        results.append(res)
    n_pass = sum(r.ok for r in results)
    print(f"passed {n_pass} of {len(results)} criteria")
    return results
