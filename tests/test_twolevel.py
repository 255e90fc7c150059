"""Closed-form two-level density: frequencies, chi/xi factors, spectra."""

import warnings

import mpmath as mp
import numpy as np
import pytest

from conftest import TRIPLE_OMEGA21
from qshutter import (
    METHOD_EXACT,
    METHOD_TWO_LEVEL_CLOSED,
    DomainError,
    chi,
    density_two_level,
    dominant_frequency_series,
    evolve_trace,
    frequencies,
    transmission,
    xi,
)
from qshutter import twolevel
from qshutter.model import HBAR_EV_PS
from qshutter.modes import rho
from qshutter.twolevel import clamp_count, density_resonant_exponential


def factored_sum(r1, r2, freqs, t):
    """sum_{n=1,2} rho_n (1 - e^{(i omega_hat_n - Gamma_n/2 hbar) t})."""
    h2 = 2.0 * HBAR_EV_PS
    return r1 * -np.expm1((1j * freqs.omega_hat_1 - freqs.Gamma_1 / h2) * t) + r2 * -np.expm1(
        (1j * freqs.omega_hat_2 - freqs.Gamma_2 / h2) * t
    )


def stationary_density(modes, x, k):
    """t -> infinity limit of the two-level density, |rho_1 + rho_2|^2."""
    return abs(rho(modes[0], k, x) + rho(modes[1], k, x)) ** 2


@pytest.fixture(scope="module")
def freqs_ebar(triple_poles, ebar):
    return frequencies(ebar, triple_poles[0], triple_poles[1])


class TestFrequencies:
    def test_difference_identity(self, triple_poles, rng):
        for E in rng.uniform(5e-3, 50e-3, size=20):
            f = frequencies(E, triple_poles[0], triple_poles[1])
            assert f.omega_hat_1 - f.omega_hat_2 == pytest.approx(
                f.omega_hat_21, rel=1e-12
            )
            assert f.omega_hat_21 > 0

    def test_doublet_center_symmetry(self, freqs_ebar):
        assert freqs_ebar.omega_hat_1 == pytest.approx(
            -freqs_ebar.omega_hat_2, rel=1e-12
        )
        assert freqs_ebar.omega_hat_1 == pytest.approx(
            freqs_ebar.omega_hat_21 / 2.0, rel=1e-12
        )

    def test_on_resonance_detunings(self, triple_poles):
        f = frequencies(triple_poles[0].E_position, triple_poles[0], triple_poles[1])
        assert f.omega_hat_1 == pytest.approx(0.0, abs=1e-15)
        assert f.omega_hat_2 == pytest.approx(-f.omega_hat_21, rel=1e-12)

    def test_bohr_frequency_pin(self, freqs_ebar):
        assert freqs_ebar.omega_21 == pytest.approx(TRIPLE_OMEGA21, abs=1e-6)

    def test_degenerate_doublet_rejected(self, triple_poles):
        with pytest.raises(DomainError):
            frequencies(0.01, triple_poles[0], triple_poles[0])

    def test_misordered_doublet_rejected(self, triple_poles):
        with pytest.raises(DomainError):
            frequencies(0.01, triple_poles[1], triple_poles[0])

    @pytest.mark.parametrize(
        "E",
        [[0.0129], np.array([0.0129]), 0.0129 + 0j, "x", True, np.nan, -0.0129],
        ids=["list", "array", "complex", "str", "bool", "nan", "negative"],
    )
    def test_energy_not_a_real_scalar_rejected(self, triple_poles, E):
        with pytest.raises(DomainError):
            frequencies(E, triple_poles[0], triple_poles[1])


class TestChi:
    def test_boundary_values(self, freqs_ebar):
        assert chi(freqs_ebar, 1, 0.0) == 0.0
        assert chi(freqs_ebar, 2, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_amplitude_identity(self, freqs_ebar, rng):
        # chi_n = |1 - e^{i omega_hat_n t - Gamma_n t / 2 hbar}|^2
        for _ in range(100):
            n = int(rng.integers(1, 3))
            t = rng.uniform(0.0, 20.0)
            om, gm = (
                (freqs_ebar.omega_hat_1, freqs_ebar.Gamma_1)
                if n == 1
                else (freqs_ebar.omega_hat_2, freqs_ebar.Gamma_2)
            )
            amp = 1.0 - np.exp(1j * om * t - gm * t / (2.0 * HBAR_EV_PS))
            assert chi(freqs_ebar, n, t) == pytest.approx(abs(amp) ** 2, abs=1e-13)

    def test_range(self, freqs_ebar, rng):
        t = rng.uniform(0.0, 50.0, size=500)
        for n in (1, 2):
            v = chi(freqs_ebar, n, t)
            assert np.all(v >= 0.0) and np.all(v <= 4.0)

    def test_bad_level_rejected(self, freqs_ebar):
        with pytest.raises(DomainError):
            chi(freqs_ebar, 3, 1.0)

    def test_nonfinite_wave_number_rejected(self, freqs_ebar, triple_modes, problem_ebar):
        for k in (np.nan, np.inf, 0.1 + 0.1j):
            with pytest.raises(DomainError):
                density_two_level(
                    triple_modes[0], triple_modes[1], freqs_ebar, problem_ebar.L, k, 1.0
                )

    def test_negative_time_rejected(self, freqs_ebar, triple_modes, problem_ebar):
        for t in (-0.1, np.nan, np.inf, np.array([0.1, np.nan])):
            with pytest.raises(DomainError):
                chi(freqs_ebar, 1, t)
            with pytest.raises(DomainError):
                xi(freqs_ebar, 1, 2, t)
            with pytest.raises(DomainError):
                density_two_level(
                    triple_modes[0], triple_modes[1], freqs_ebar, problem_ebar.L,
                    problem_ebar.k, t,
                )


class TestXi:
    def test_boundary_values(self, freqs_ebar):
        assert xi(freqs_ebar, 1, 2, 0.0) == 0.0
        assert xi(freqs_ebar, 1, 2, 1e6) == pytest.approx(1.0, abs=1e-9)

    def test_factorization_identity(self, freqs_ebar, rng):
        # xi_mn = (1 - e^{i omega_hat_m t - ...})(1 - e^{-i omega_hat_n t - ...});
        # this also pins the sign convention of the cross exponential
        h2 = 2.0 * HBAR_EV_PS
        for _ in range(100):
            t = rng.uniform(0.0, 20.0)
            f1 = 1.0 - np.exp(
                1j * freqs_ebar.omega_hat_1 * t - freqs_ebar.Gamma_1 * t / h2
            )
            f2 = 1.0 - np.exp(
                -1j * freqs_ebar.omega_hat_2 * t - freqs_ebar.Gamma_2 * t / h2
            )
            assert xi(freqs_ebar, 1, 2, t) == pytest.approx(f1 * f2, abs=1e-13)

    def test_equal_indices_rejected(self, freqs_ebar):
        with pytest.raises(DomainError):
            xi(freqs_ebar, 1, 1, 1.0)


class TestDensityTwoLevel:
    def test_zero_at_zero_time(self, triple_modes, freqs_ebar, problem_ebar):
        d = density_two_level(
            triple_modes[0], triple_modes[1], freqs_ebar, problem_ebar.L,
            problem_ebar.k, 0.0,
        )
        assert d == 0.0

    def test_factored_form_oracle(
        self, triple_modes, freqs_ebar, problem_ebar, rng
    ):
        # |rho_1 (1 - e^{...1}) + rho_2 (1 - e^{...2})|^2 pointwise
        k, L = problem_ebar.k, problem_ebar.L
        h2 = 2.0 * HBAR_EV_PS
        for _ in range(100):
            x = rng.uniform(0.0, L)
            t = rng.uniform(0.0, 20.0)
            r1 = rho(triple_modes[0], k, x)
            r2 = rho(triple_modes[1], k, x)
            a1 = 1.0 - np.exp(
                1j * freqs_ebar.omega_hat_1 * t - freqs_ebar.Gamma_1 * t / h2
            )
            a2 = 1.0 - np.exp(
                1j * freqs_ebar.omega_hat_2 * t - freqs_ebar.Gamma_2 * t / h2
            )
            expect = abs(r1 * a1 + r2 * a2) ** 2
            got = density_two_level(
                triple_modes[0], triple_modes[1], freqs_ebar, x, k, t
            )
            assert got == pytest.approx(expect, abs=1e-12)

    def test_array_x_with_scalar_t(self, triple_modes, freqs_ebar, problem_ebar):
        # regression: an array x with a scalar t returned only the first
        # position's density (0.0925) instead of one value per position
        args = (triple_modes[0], triple_modes[1], freqs_ebar)
        k = problem_ebar.k
        xs = np.linspace(0.0, problem_ebar.L, 5)
        got = density_two_level(*args, xs, k, 1.0)
        loop = [density_two_level(*args, x, k, 1.0) for x in xs]
        assert np.shape(got) == xs.shape
        assert got == pytest.approx(loop, rel=1e-13)
        assert got == pytest.approx([0.0925, 2.66, 0.312, 6.17, 0.194], rel=3e-3)

    def test_density_map_matches_per_x_loop(
        self, triple_modes, freqs_ebar, problem_ebar
    ):
        # x and t broadcast: an (n_x, 1) column against n_t times is the map
        args = (triple_modes[0], triple_modes[1], freqs_ebar)
        k = problem_ebar.k
        xs = np.linspace(0.0, problem_ebar.L, 30)
        t = np.linspace(0.0, 20.0, 200)
        grid = density_two_level(*args, xs[:, None], k, t)
        loop = np.array([density_two_level(*args, x, k, t) for x in xs])
        assert grid.shape == (len(xs), len(t))
        assert np.max(np.abs(grid - loop)) <= 1e-13 * np.max(loop)
        assert isinstance(density_two_level(*args, xs[2], k, t[3]), float)

    def test_rhos_from_one_located_x(
        self, triple_modes, freqs_ebar, problem_ebar, monkeypatch
    ):
        # x is located once and both rho_n are evaluated there, with rho's bits
        mode_1, mode_2 = triple_modes[:2]
        k = problem_ebar.k
        edges = problem_ebar.profile.edges
        xs = np.concatenate((edges, np.linspace(0.0, problem_ebar.L, 41)))
        t = np.linspace(0.5, 20.0, 300)
        r1, r2 = rho(mode_1, k, xs[:, None]), rho(mode_2, k, xs[:, None])
        expect = np.abs(factored_sum(r1, r2, freqs_ebar, t)) ** 2
        got = density_two_level(mode_1, mode_2, freqs_ebar, xs[:, None], k, t)
        assert np.array_equal(got, expect)
        calls = []
        for name in ("_locate", "_wave"):

            def counting(*args, name=name, original=getattr(twolevel, name)):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(twolevel, name, counting)
        density_two_level(mode_1, mode_2, freqs_ebar, xs[3], k, t)
        assert calls == ["_locate", "_wave", "_wave"]

    def test_long_time_is_stationary(self, triple_modes, freqs_ebar, problem_ebar):
        k, L = problem_ebar.k, problem_ebar.L
        tau_max = max(
            triple_modes[0].pole.tau, triple_modes[1].pole.tau
        )
        d = density_two_level(
            triple_modes[0], triple_modes[1], freqs_ebar, L, k, 50.0 * tau_max
        )
        assert d == pytest.approx(stationary_density(triple_modes, L, k), abs=1e-9)

    def test_never_negative_near_zero_time(
        self, triple_modes, freqs_ebar, problem_ebar
    ):
        # the squared modulus cannot go below 0 where the expansion cancels
        t = np.linspace(0.0, 1e-6, 50)
        d = density_two_level(
            triple_modes[0], triple_modes[1], freqs_ebar, problem_ebar.L,
            problem_ebar.k, t,
        )
        assert d[0] == 0.0
        assert np.all(d >= 0.0)
        assert clamp_count() == 0

    @pytest.mark.parametrize("energy", ["E1 + 2 Gamma1", "Ebar"])
    def test_matches_fifty_digit_sum(
        self, triple_spectrum, triple_poles, problem_ebar, energy
    ):
        # the same double rho_n summed and squared at 50 digits; the chi/xi
        # expansion missed this by up to 7.7e-12 relative on these grids
        p1 = triple_poles[0]
        problem = (
            triple_spectrum.at(p1.E_position + 2.0 * p1.Gamma)
            if energy == "E1 + 2 Gamma1"
            else problem_ebar
        )
        mode_1, mode_2 = problem.modes[:2]
        freqs = frequencies(problem.E, mode_1.pole, mode_2.pole)
        t = np.linspace(0.0, 10.0 * p1.tau, 2000)[1:200]
        r1, r2 = rho(mode_1, problem.k, problem.L), rho(mode_2, problem.k, problem.L)
        got = density_two_level(mode_1, mode_2, freqs, problem.L, problem.k, t)
        with mp.workdps(50):
            h2 = 2 * mp.mpf(HBAR_EV_PS)
            terms = [
                (mp.mpc(r), mp.mpc(0, om) - mp.mpf(gamma) / h2)
                for r, om, gamma in (
                    (r1, freqs.omega_hat_1, freqs.Gamma_1),
                    (r2, freqs.omega_hat_2, freqs.Gamma_2),
                )
            ]
            expect = np.array([
                float(abs(sum(r * (1 - mp.exp(z * mp.mpf(tt))) for r, z in terms)) ** 2)
                for tt in t
            ])
        assert np.all(np.abs(got - expect) < 1e-13 * expect)

    def test_small_time_keeps_its_digits(self, triple_modes, freqs_ebar, problem_ebar):
        # 1 - e^{zt} = -(zt + (zt)^2/2 + (zt)^3/6 + (zt)^4/24) to ~1e-26
        # relative for |zt| < 1e-4; 1 - np.exp(zt) cancelled to 4e-5 here
        mode_1, mode_2 = triple_modes[:2]
        k, L = problem_ebar.k, problem_ebar.L
        t = np.geomspace(1e-12, 1e-6, 200)
        h2 = 2.0 * HBAR_EV_PS
        psi = 0.0
        for mode, n in ((mode_1, 1), (mode_2, 2)):
            omega, gamma = freqs_ebar._pick(n)
            zt = (1j * omega - gamma / h2) * t
            psi = psi - rho(mode, k, L) * (zt + zt**2 / 2 + zt**3 / 6 + zt**4 / 24)
        expect = np.abs(psi) ** 2
        got = density_two_level(mode_1, mode_2, freqs_ebar, L, k, t)
        assert np.max(np.abs(got / expect - 1.0)) < 1e-13


class TestDensityStationary:
    def test_matches_long_time_limit(self, triple_modes, freqs_ebar, problem_ebar):
        k, L = problem_ebar.k, problem_ebar.L
        tau_1 = triple_modes[0].pole.tau
        d_inf = density_two_level(
            triple_modes[0], triple_modes[1], freqs_ebar, L, k, 1e6 * tau_1
        )
        assert stationary_density(triple_modes, L, k) == pytest.approx(
            d_inf, abs=1e-9
        )

    def test_near_transmission_at_doublet_center(
        self, triple_modes, triple_profile, problem_ebar, ebar
    ):
        T = transmission(triple_profile, ebar)[1]
        d = stationary_density(triple_modes, problem_ebar.L, problem_ebar.k)
        assert d == pytest.approx(T, rel=0.10)

    def test_zero_at_k_zero(self, triple_modes, problem_ebar):
        assert stationary_density(triple_modes, problem_ebar.L, 0.0) == 0.0


class TestResonantExponential:
    def test_zero_at_zero_time(self):
        assert density_resonant_exponential(0.5, 1.0, 0.0) == 0.0

    def test_one_lifetime_value(self):
        assert density_resonant_exponential(1.0, 1.0, 1.0) == pytest.approx(
            (1.0 - np.exp(-1.0)) ** 2, rel=1e-12
        )
        assert density_resonant_exponential(1.0, 1.0, 1.0) == pytest.approx(
            0.39958, abs=5e-6
        )

    def test_long_time_saturation(self):
        assert density_resonant_exponential(0.73, 2.0, 1e6) == pytest.approx(0.73)

    def test_domain_checks(self):
        with pytest.raises(DomainError):
            density_resonant_exponential(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            density_resonant_exponential(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            density_resonant_exponential(0.5, 1.0, -1.0)
        with pytest.raises(DomainError):
            density_resonant_exponential(0.5, 1.0, np.nan)


@pytest.fixture(scope="module", params=["Ebar", "curlyE1", "curlyE2 + 2 Gamma2"])
def line_trace(request, triple_spectrum, triple_poles):
    """(trace at x = L on 2000 t over [0, 10 tau1], the line it beats at):
    omega_21/2 at Ebar, omega_21 on curlyE1, |omega_hat_2| at curlyE2 + 2 Gamma2."""
    p1, p2 = triple_poles[:2]
    E = {
        "Ebar": 0.5 * (p1.E_position + p2.E_position),
        "curlyE1": p1.E_position,
        "curlyE2 + 2 Gamma2": p2.E_position + 2.0 * p2.Gamma,
    }[request.param]
    f = frequencies(E, p1, p2)
    line = {"Ebar": f.omega_21 / 2.0, "curlyE1": f.omega_21}.get(request.param, abs(f.omega_hat_2))
    problem = triple_spectrum.at(E)
    times = np.linspace(0.0, 10.0 * p1.tau, 2000)
    trace = evolve_trace(problem, problem.L, times, (METHOD_EXACT, METHOD_TWO_LEVEL_CLOSED))
    return trace, line


class TestDominantFrequency:
    def test_synthetic_tone(self):
        # sin^2(omega_0 t / 2) oscillates at omega_0
        omega_0 = 3.0
        t = np.linspace(0.0, 40.0, 4000)
        v = np.sin(0.5 * omega_0 * t) ** 2
        got = dominant_frequency_series(t, v)
        assert got == pytest.approx(omega_0, rel=1e-3)

    def test_flat_trace_has_no_peak(self):
        t = np.linspace(0.0, 10.0, 500)
        assert dominant_frequency_series(t, np.full_like(t, 0.25)) is None

    def test_doublet_center_beat(self, problem_ebar, freqs_ebar):
        # the doublet-center trace beats at omega_21 / 2
        tau_1 = problem_ebar.modes[0].pole.tau
        times = np.linspace(0.0, 10.0 * tau_1, 2000)
        trace = evolve_trace(
            problem_ebar, problem_ebar.L, times, methods=(METHOD_TWO_LEVEL_CLOSED,)
        )
        got = dominant_frequency_series(
            trace.times, trace.densities[METHOD_TWO_LEVEL_CLOSED]
        )
        assert got == pytest.approx(freqs_ebar.omega_21 / 2.0, rel=0.03)

    def test_on_resonance_residual_oscillation(self, problem_res1, freqs_ebar):
        # at E = curlyE_1 the residual ripple runs at omega_21
        tau_1 = problem_res1.modes[0].pole.tau
        times = np.linspace(0.0, 10.0 * tau_1, 2000)
        trace = evolve_trace(
            problem_res1, problem_res1.L, times, methods=(METHOD_TWO_LEVEL_CLOSED,)
        )
        envelope = density_resonant_exponential(
            transmission(problem_res1.profile, problem_res1.E)[1],
            2.0 * problem_res1.modes[0].pole.hbar / problem_res1.modes[0].pole.Gamma,
            times,
        )
        residual = trace.densities[METHOD_TWO_LEVEL_CLOSED] - envelope
        got = dominant_frequency_series(times, residual)
        f1 = frequencies(
            problem_res1.E, problem_res1.modes[0].pole, problem_res1.modes[1].pole
        )
        assert got == pytest.approx(f1.omega_21, rel=0.05)

    def test_method_selection(self, problem_ebar):
        tau_1 = problem_ebar.modes[0].pole.tau
        times = np.linspace(0.0, 10.0 * tau_1, 512)
        trace = evolve_trace(
            problem_ebar, problem_ebar.L, times,
            methods=("exact-N", "two-level-M"),
        )
        assert "exponential" not in trace.densities
        got = dominant_frequency_series(trace.times, trace.densities["exact-N"])
        assert got is not None

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 0.1, 0.3, 0.35, 0.6, 0.61, 0.9, 1.4])
        with pytest.raises(DomainError):
            dominant_frequency_series(t, np.sin(t))

    def test_too_few_samples_rejected(self):
        t = np.linspace(0.0, 1.0, 7)
        with pytest.raises(DomainError, match=">= 8 samples"):
            dominant_frequency_series(t, np.sin(t))

    def test_nonfinite_sample_rejected(self):
        t = np.linspace(0.0, 40.0, 4000)
        v = np.sin(1.5 * t) ** 2
        assert dominant_frequency_series(t, v) is not None
        for bad in (np.nan, np.inf):
            v_bad = v.copy()
            v_bad[100] = bad
            with pytest.raises(DomainError):
                dominant_frequency_series(t, v_bad)
            t_bad = t.copy()
            t_bad[-1] = bad
            with pytest.raises(DomainError):
                dominant_frequency_series(t_bad, v)
        # complex samples, whose imaginary part a float cast would drop
        with pytest.raises(DomainError, match="real"):
            dominant_frequency_series(t, v + 1e-3j)

    def test_closed_form_is_exact(self, line_trace):
        # measured: <= 2.1e-14 relative
        trace, line = line_trace
        got = dominant_frequency_series(
            trace.times, trace.densities[METHOD_TWO_LEVEL_CLOSED]
        )
        assert got == pytest.approx(line, rel=1e-12)

    def test_exact_density(self, line_trace):
        # measured: <= 1.6e-7 relative (the M tails are not exponentials)
        trace, line = line_trace
        got = dominant_frequency_series(trace.times, trace.densities[METHOD_EXACT])
        assert got == pytest.approx(line, rel=1e-6)

    @pytest.mark.parametrize(
        "trace", [np.zeros_like, lambda t: (1.0 - np.exp(-t)) ** 2], ids=["zero", "build-up"]
    )
    def test_no_oscillating_line(self, trace):
        t = np.linspace(0.0, 10.0, 500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert dominant_frequency_series(t, trace(t)) is None
