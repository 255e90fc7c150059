"""Exact shutter solution, doublet form, remainder term, and traces."""

import time

import numpy as np
import pytest

from conftest import FREE_PSI_PIN
from qshutter import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    DomainError,
    PhysicalConstants,
    density_two_level,
    evolve_trace,
    frequencies,
    make_problem,
    psi_exact,
    transmission,
)
from qshutter import transient
from qshutter.mfunc import m_function, y_values
from qshutter.modes import rho, rho_mirror
from qshutter.scattering import stationary_wave
from qshutter.transient import (
    METHODS,
    Spectrum,
    delta_term,
    free_shutter_psi,
    psi_doublet_M,
)


def reference_psi(problem, x, t, n_modes):
    """The resonance expansion added one term at a time, in order."""
    c, k = problem.constants, problem.k
    t = np.asarray(t, dtype=float)
    phi = stationary_wave(problem.field, x)
    psi = phi * m_function(y_values(k, t, c)) - np.conj(phi) * m_function(
        y_values(-k, t, c)
    )
    for mode in problem.modes[:n_modes]:
        k_n = mode.pole.k
        psi = psi - rho(mode, k, x) * m_function(y_values(k_n, t, c))
        psi = psi - rho_mirror(mode, k, x) * m_function(
            y_values(-np.conj(k_n), t, c)
        )
    return psi


def reference_delta(problem, x, t):
    """psi_doublet_M minus sum_{n=1,2} rho_n (e^{-iEt/hbar} - e^{-iE_n t/hbar})."""
    hbar = problem.constants.hbar_ev_ps
    t = np.asarray(t, dtype=float)
    kept = 0.0
    for mode in problem.modes[:2]:
        kept = kept + rho(mode, problem.k, x) * (
            np.exp(-1j * problem.E * t / hbar) - np.exp(-1j * mode.pole.E * t / hbar)
        )
    return reference_psi(problem, x, t, 2) - kept


class TestMakeProblem:
    def test_fields(self, problem_ebar, triple_profile, ebar):
        assert problem_ebar.E == pytest.approx(ebar)
        assert problem_ebar.L == triple_profile.total_length
        assert len(problem_ebar.modes) == 4
        positions = [m.pole.E_position for m in problem_ebar.modes]
        assert positions == sorted(positions)

    def test_nonpositive_energy_rejected(self, triple_profile, triple_poles):
        for bad in (0.0, np.inf):
            with pytest.raises(DomainError):
                make_problem(triple_profile, bad)
            with pytest.raises(DomainError):
                frequencies(bad, triple_poles[0], triple_poles[1])

    def test_zero_modes_only_for_free(self, triple_profile, free_profile):
        with pytest.raises(DomainError):
            make_problem(triple_profile, 0.01, n_poles=0)
        p = make_problem(free_profile, 0.01, n_poles=0)
        assert p.modes == ()

    def test_spectrum_at_matches_make_problem(
        self, triple_spectrum, triple_profile, ebar
    ):
        # triple_spectrum is make_spectrum(triple_profile, 4)
        spectrum = triple_spectrum
        a = spectrum.at(ebar)
        b = make_problem(triple_profile, ebar, 4)
        assert a.k == b.k
        assert a.field.t == b.field.t
        assert len(a.modes) == len(b.modes) == 4
        for ma, mb in zip(a.modes, b.modes):
            assert np.array_equal(ma.coefficients, mb.coefficients)
        # poles and modes are shared by every incidence energy
        other = spectrum.at(2.0 * ebar)
        assert all(m is n for m, n in zip(other.modes, a.modes))
        assert spectrum.poles == tuple(m.pole for m in a.modes)


class TestPsiExact:
    def test_nonpositive_time_rejected(self, problem_ebar):
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, problem_ebar.L, 0.0)
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, problem_ebar.L, -0.5)
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, problem_ebar.L, np.nan)
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, problem_ebar.L, np.inf)

    def test_x_outside_rejected(self, problem_ebar):
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, problem_ebar.L + 1.0, 1.0)
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, np.nan, 1.0)
        with pytest.raises(DomainError):
            psi_exact(problem_ebar, [1.0, problem_ebar.L + 1.0], 1.0)
        # the exponential envelope never reads x; the trace still checks it
        for bad in (99.0, np.nan):
            with pytest.raises(DomainError):
                evolve_trace(problem_ebar, bad, [0.0, 1.0], (METHOD_EXPONENTIAL,))

    def test_density_map_matches_per_x_loop(self, problem_ebar):
        # x and t broadcast: an (n_x, 1) column against n_t times is the map
        xs = np.linspace(0.0, problem_ebar.L, 40)
        t = np.linspace(0.01, 10.0 * problem_ebar.modes[0].pole.tau, 300)
        grid = psi_exact(problem_ebar, xs[:, None], t)
        loop = np.array([psi_exact(problem_ebar, x, t) for x in xs])
        assert grid.shape == (len(xs), len(t))
        assert np.max(np.abs(grid - loop)) <= 1e-13 * np.max(np.abs(loop))
        # one time against a column of positions, as an array or a list
        assert np.array_equal(psi_exact(problem_ebar, xs, t[7]), grid[:, 7])
        assert np.array_equal(psi_exact(problem_ebar, list(xs), t[7]), grid[:, 7])

    def test_shape_mismatch_rejected(self, problem_ebar):
        xs = np.linspace(0.0, problem_ebar.L, 3)
        t = np.linspace(0.1, 1.0, 5)
        with pytest.raises(DomainError, match=r"\(3,\).*\(5,\)"):
            psi_exact(problem_ebar, xs, t)
        m1, m2 = problem_ebar.modes[:2]
        freqs = frequencies(problem_ebar.E, m1.pole, m2.pole)
        with pytest.raises(DomainError, match=r"\(3,\).*\(5,\)"):
            density_two_level(m1, m2, freqs, xs, problem_ebar.k, t)

    def test_short_time_cancellation(self, problem_ebar):
        # just after opening, nothing has reached x = L yet
        tau_1 = problem_ebar.modes[0].pole.tau
        T = transmission(problem_ebar.profile, problem_ebar.E)[1]
        d = abs(psi_exact(problem_ebar, problem_ebar.L, 1e-6 * tau_1)) ** 2
        assert d < 1e-3 * T

    def test_long_time_limit_is_transmission(self, problem_ebar):
        tau_1 = problem_ebar.modes[0].pole.tau
        T = transmission(problem_ebar.profile, problem_ebar.E)[1]
        d = abs(psi_exact(problem_ebar, problem_ebar.L, 25.0 * tau_1)) ** 2
        assert d == pytest.approx(T, rel=0.03)

    def test_free_profile_dispatches_to_closed_form(self, free_profile):
        c = free_profile.constants
        E = float((0.142236183**2) * c.hbar2_over_2m)
        problem = make_problem(free_profile, E, n_poles=0)
        got = psi_exact(problem, 0.5, 0.25)
        assert abs(got - free_shutter_psi(problem.k, 0.5, 0.25, c)) == 0.0
        assert abs(got - FREE_PSI_PIN) < 1e-12

    def test_vectorized_over_time(self, problem_ebar):
        t = np.linspace(0.1, 5.0, 7)
        vec = psi_exact(problem_ebar, problem_ebar.L, t)
        assert vec.shape == t.shape
        for ti, vi in zip(t, vec):
            assert abs(vi - psi_exact(problem_ebar, problem_ebar.L, float(ti))) < 1e-14


class TestPsiDoubletM:
    def test_equals_exact_with_two_modes(self, triple_profile, ebar):
        # same formula regrouped; must agree to rounding, not physics
        p2 = make_problem(triple_profile, ebar, n_poles=2)
        t = np.linspace(0.05, 12.0, 50)
        a = psi_doublet_M(p2, p2.L, t)
        b = psi_exact(p2, p2.L, t)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_needs_two_modes(self, free_profile):
        p = make_problem(free_profile, 0.01, n_poles=0)
        with pytest.raises(DomainError):
            psi_doublet_M(p, 0.5, 1.0)

    def test_truncation_insensitivity(self, triple_profile, problem_ebar, ebar):
        # N = 4 vs N = 2 across the first doublet.  The far-resonance imprint
        # stays below 3% of T on the resonances; it peaks at 3.2% at the
        # doublet center while the short-lived second doublet still rings
        # (t ~ 0.35 tau_1), so the center gets the measured 3.5% ceiling.
        tau_1 = problem_ebar.modes[0].pole.tau
        t = np.linspace(0.05 * tau_1, 10.0 * tau_1, 400)
        for E, bound in (
            (problem_ebar.modes[0].pole.E_position, 0.03),
            (ebar, 0.035),
            (problem_ebar.modes[1].pole.E_position, 0.03),
        ):
            p4 = make_problem(triple_profile, E, n_poles=4)
            p2 = make_problem(triple_profile, E, n_poles=2)
            T = transmission(triple_profile, E)[1]
            d4 = np.abs(psi_exact(p4, p4.L, t)) ** 2
            d2 = np.abs(psi_exact(p2, p2.L, t)) ** 2
            assert np.max(np.abs(d4 - d2)) / T < bound


class TestDeltaTerm:
    def test_negligible_in_the_working_window(self, problem_ebar):
        tau_1 = problem_ebar.modes[0].pole.tau
        L = problem_ebar.L
        for t in np.linspace(0.5 * tau_1, 5.0 * tau_1, 40):
            ratio = abs(delta_term(problem_ebar, L, t)) / abs(
                psi_exact(problem_ebar, L, t)
            )
            assert ratio < 0.05

    def test_inverse_power_decay(self, problem_res1):
        # the M-function pieces of Delta decay as inverse powers of t; on
        # resonance they dominate long enough for the tau_1 -> 4 tau_1 drop
        # to show.  Off resonance Delta saturates earlier at the constant
        # |Phi - rho_1 - rho_2| floor inherited from the two-level split.
        tau_1 = problem_res1.modes[0].pole.tau
        L = problem_res1.L
        assert abs(delta_term(problem_res1, L, 4.0 * tau_1)) < abs(
            delta_term(problem_res1, L, tau_1)
        )

    def test_not_small_at_short_times(self, problem_ebar):
        # Delta cancels the exponential terms to enforce Psi(t=0) = 0
        tau_1 = problem_ebar.modes[0].pole.tau
        L = problem_ebar.L
        t = 1e-4 * tau_1
        delta = delta_term(problem_ebar, L, t)
        kept = psi_doublet_M(problem_ebar, L, t) - delta
        assert abs(delta) > 0.5 * abs(kept)


class TestEvaluator:
    """psi_exact, psi_doublet_M and delta_term are partial sums of one expansion."""

    @pytest.fixture(scope="class")
    def problems(self, triple_spectrum, ebar, double_profile, double_modes):
        double = Spectrum(double_profile, tuple(double_modes))
        e_double = double_modes[0].pole.E_position + 3.515 * double_modes[0].pole.Gamma
        return [
            triple_spectrum.at(ebar),
            triple_spectrum.at(triple_spectrum.poles[1].E_position),
            double.at(e_double),
        ]

    def test_matches_per_term_reference(self, problems):
        for p in problems:
            tau_1 = p.modes[0].pole.tau
            xs = np.linspace(0.0, p.L, 7)
            t = np.linspace(0.01 * tau_1, 20.0 * tau_1, 101)
            shapes = ((p.L, 0.3 * tau_1), (xs[:, None], t), (xs, tau_1), (0.4 * p.L, t))
            for x, tt in shapes:
                for got, ref in (
                    (psi_exact(p, x, tt), reference_psi(p, x, tt, len(p.modes))),
                    (psi_doublet_M(p, x, tt), reference_psi(p, x, tt, 2)),
                    (delta_term(p, x, tt), reference_delta(p, x, tt)),
                ):
                    assert np.shape(got) == np.shape(ref)
                    scale = np.max(np.abs(ref))
                    assert np.max(np.abs(got - ref)) <= 1e-14 * scale
                    if np.ndim(ref) == 0:
                        assert type(got) is complex

    def test_trace_sums_the_expansion_once(self, problem_ebar, monkeypatch):
        # exact-N and two-level-M share one pass: 2 + 2N M columns, not 2 + 2N + 6
        calls = []

        def counting(y):
            calls.append(np.shape(y))
            return m_function(y)

        p = problem_ebar
        times = np.linspace(0.0, 10.0 * p.modes[0].pole.tau, 2000)
        monkeypatch.setattr(transient, "m_function", counting)
        trace = evolve_trace(p, p.L, times, (METHOD_EXACT, METHOD_TWO_LEVEL_M))
        assert len(calls) == 2 + 2 * len(p.modes)
        monkeypatch.undo()
        exact = np.abs(psi_exact(p, p.L, times[1:])) ** 2
        doublet = np.abs(psi_doublet_M(p, p.L, times[1:])) ** 2
        assert np.array_equal(trace.densities[METHOD_EXACT][1:], exact)
        assert np.array_equal(trace.densities[METHOD_TWO_LEVEL_M][1:], doublet)


class TestFreeShutterPsi:
    def test_oracle_pin(self):
        c = PhysicalConstants(mass_ratio=0.067)
        psi = free_shutter_psi(0.142236183, 0.5, 0.25, c)
        assert abs(psi - FREE_PSI_PIN) < 1e-13

    def test_nonpositive_time_rejected(self):
        c = PhysicalConstants(mass_ratio=0.067)
        with pytest.raises(DomainError):
            free_shutter_psi(0.1, 0.5, 0.0, c)
        with pytest.raises(DomainError):
            free_shutter_psi(0.1, 0.5, np.nan, c)
        with pytest.raises(DomainError):
            free_shutter_psi(0.1, 0.5, np.inf, c)


class TestEvolveTrace:
    def test_all_methods_present_and_finite(self, problem_ebar):
        tau_1 = problem_ebar.modes[0].pole.tau
        times = np.linspace(0.0, 10.0 * tau_1, 200)
        trace = evolve_trace(problem_ebar, problem_ebar.L, times, methods=METHODS)
        assert set(trace.methods) == set(METHODS)
        for method in METHODS:
            d = trace.densities[method]
            assert d.shape == times.shape
            assert np.all(np.isfinite(d))
            assert np.all(d >= 0.0)
            assert d[0] == 0.0  # t = 0 served from the initial condition

    def test_methods_agree_on_scale(self, problem_ebar):
        # all four methods settle near T(E) at long times
        tau_1 = problem_ebar.modes[0].pole.tau
        T = transmission(problem_ebar.profile, problem_ebar.E)[1]
        times = np.array([0.0, 24.9 * tau_1, 25.0 * tau_1])
        trace = evolve_trace(problem_ebar, problem_ebar.L, times, methods=METHODS)
        for method in (METHOD_EXACT, METHOD_TWO_LEVEL_M, METHOD_TWO_LEVEL_CLOSED):
            assert trace.densities[method][-1] == pytest.approx(T, rel=0.1)

    def test_unknown_method_rejected(self, problem_ebar):
        with pytest.raises(DomainError):
            evolve_trace(problem_ebar, problem_ebar.L, [0.0, 1.0], methods=("euler",))

    def test_decreasing_grid_rejected(self, problem_ebar):
        with pytest.raises(DomainError):
            evolve_trace(problem_ebar, problem_ebar.L, [1.0, 0.5])
        with pytest.raises(DomainError):
            evolve_trace(problem_ebar, problem_ebar.L, [0.0, 1.0, np.nan, 3.0])

    def test_trace_performance(self, problem_ebar):
        # 2000-point exact trace in under a second
        tau_1 = problem_ebar.modes[0].pole.tau
        times = np.linspace(0.0, 10.0 * tau_1, 2000)
        start = time.perf_counter()
        evolve_trace(problem_ebar, problem_ebar.L, times, methods=(METHOD_EXACT,))
        assert time.perf_counter() - start < 1.0

    def test_exponential_method_time_constant(self, problem_res1, triple_poles):
        # envelope rises with the amplitude time 2 hbar / Gamma_1
        p1 = triple_poles[0]
        T = transmission(problem_res1.profile, problem_res1.E)[1]
        tau_amp = 2.0 * p1.hbar / p1.Gamma
        times = np.array([0.0, tau_amp])
        trace = evolve_trace(
            problem_res1, problem_res1.L, times, methods=(METHOD_EXPONENTIAL,)
        )
        assert trace.densities[METHOD_EXPONENTIAL][1] == pytest.approx(
            T * (1.0 - np.exp(-1.0)) ** 2, rel=1e-12
        )
