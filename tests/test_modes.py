"""Resonant states: outgoing conditions, normalization, and rho factors."""

import dataclasses
import re

import numpy as np
import pytest
from scipy.integrate import quad

from golden import POLE_PROFILES
from qshutter import DomainError, PoleQualityError, build_profile, find_poles, reference, solve_mode
from qshutter.model import HBAR_EV_PS, energy_of, wavenumber
from qshutter.poles import ResonancePole
from qshutter.modes import rho, rho_mirror
from qshutter.presets import MASS_RATIO
from qshutter.scattering import solve_stationary, stationary_wave


class TestSolveMode:
    def test_normalization_residual(self, triple_modes, double_modes):
        for m in triple_modes + double_modes:
            assert m.normalization_residual < 1e-10

    def test_outgoing_conditions(self, triple_modes):
        # left condition is the propagation seed; right is verified output
        for m in triple_modes:
            assert m.outgoing_residual < 1e-8
            k_n = m.pole.k
            a0, b0 = m.coefficients[0]
            assert abs(b0 + 1j * k_n * a0) < 1e-12 * abs(b0)

    def test_boundary_values_match_evaluator(self, triple_modes, triple_profile):
        L = triple_profile.total_length
        for m in triple_modes:
            # u0 and uL are rows 0 and n's values, which the evaluator reads
            assert m.u(0.0) == m.u0 and m.u(L) == m.uL

    def test_interface_continuity(self, triple_modes, triple_profile):
        for m in triple_modes:
            for j, layer in enumerate(triple_profile.layers[:-1]):
                a, b = m.coefficients[j]
                z = m.q[j] * layer.width
                value = a * np.cos(z) + b * layer.width * np.sin(z) / z
                deriv = -a * m.q[j] * np.sin(z) + b * np.cos(z)
                a_next, b_next = m.coefficients[j + 1]
                assert abs(value - a_next) < 1e-10 * max(abs(a_next), 1.0)
                assert abs(deriv - b_next) < 1e-10 * max(abs(b_next), 1.0)

    def test_closed_form_layer_integrals_match_quadrature(
        self, triple_modes, triple_profile
    ):
        # integral of u^2 over each layer, closed form vs adaptive quadrature
        m = triple_modes[0]
        for j, layer in enumerate(triple_profile.layers):
            lo, hi = triple_profile.edges[j], triple_profile.edges[j + 1]
            re = quad(lambda x: (m.u(x) ** 2).real, lo, hi, epsabs=1e-13)[0]
            im = quad(lambda x: (m.u(x) ** 2).imag, lo, hi, epsabs=1e-13)[0]
            a, b = m.coefficients[j]
            from qshutter.modes import _layer_integral

            closed = _layer_integral(a, b, m.q[j], layer.width)
            assert abs(closed - complex(re, im)) < 1e-9

    def test_layer_integral_above_series_switch_matches_quadrature(self):
        from qshutter.modes import _layer_integral

        w, a, b = 2.0, 0.8 - 0.3j, 0.5 + 0.2j
        q = 1.1e-5 / (2.0 * w) * np.exp(-0.3j)
        ref = complex(reference.layer_integral(a, b, q, w))
        assert abs(_layer_integral(a, b, q, w) - ref) <= 1e-12 * abs(ref)

    def test_evanescent_layer_integral_keeps_its_digits(self):
        # the 52.97 meV pole (Gamma 23.9 meV) of a profile in perfbench's
        # `structures` ranges: across the 11.52 nm x 0.35 eV barrier the
        # cos^2 and sin^2 terms of the (a, b) form each reach ~1e5 and
        # cancel to 0.023, which left a normalization residual of 1.0e-10
        from qshutter.modes import _layer_integral

        layers = [(1.06, 0.197), (6.62, 0.0), (11.52, 0.35), (9.71, 0.0), (11.94, 0.188)]
        profile = build_profile(layers, MASS_RATIO)
        m = solve_mode(profile, find_poles(profile, 3)[1])
        assert m.pole.E_position == pytest.approx(52.9704e-3, abs=1e-7)
        assert m.normalization_residual < 1e-14
        (a, b), q, w = m.coefficients[2], m.q[2], layers[2][0]
        ref = complex(reference.layer_integral(a, b, q, w))
        assert abs(_layer_integral(a, b, q, w) - ref) <= 1e-13 * abs(ref)

    def test_sign_convention(self):
        # u_n(0) is 1/sqrt(N) on numpy's principal branch, N the unscaled
        # norm square, on every mode of the golden record's profiles
        for layers, n in POLE_PROFILES.values():
            profile = build_profile(list(layers), MASS_RATIO)
            for pole in find_poles(profile, n):
                arg = np.angle(solve_mode(profile, pole).u0)
                assert -np.pi / 2 < arg <= np.pi / 2

    def test_unconverged_pole_is_refused(self, triple_profile, triple_poles):
        # the first pole moved by a relative 1e-6: the pieces miss at the join
        k = triple_poles[0].k * (1 + 1e-6)
        moved = dataclasses.replace(triple_poles[0], k=k, E=energy_of(k, triple_profile))
        message = ("pole n=1: outgoing residual 5.195e-06 at the join x = 3 nm; "
                   "pole likely unconverged")
        with pytest.raises(PoleQualityError, match=re.escape(message)):
            solve_mode(triple_profile, moved)

    def test_no_trusted_join_edge_is_refused(self):
        # two free 10 nm layers at k = 0.1 - 1i: each outgoing piece, e^{-ikx}
        # and e^{ik(x - L)}, falls by e^-10 to the one interior edge, where its
        # march's rounding may have grown by e^10, so neither keeps its digits
        profile = build_profile([(10.0, 0.0), (10.0, 0.0)], MASS_RATIO)
        k = 0.1 - 1j
        pole = ResonancePole(1, k, energy_of(k, profile), HBAR_EV_PS)
        message = ("pole n=1: no join edge where both outgoing pieces keep their "
                   "digits; pole likely unconverged")
        with pytest.raises(PoleQualityError, match=re.escape(message)):
            solve_mode(profile, pole)

    def test_x_outside_rejected(self, triple_modes, triple_profile):
        with pytest.raises(DomainError):
            triple_modes[0].u(triple_profile.total_length + 1.0)
        with pytest.raises(DomainError):
            triple_modes[0].u(np.nan)


class TestRho:
    def test_zero_at_k_zero(self, triple_modes):
        for m in triple_modes:
            assert rho(m, 0.0, 10.0) == 0.0
            assert rho_mirror(m, 0.0, 10.0) == 0.0

    def test_nonfinite_or_complex_k_rejected(self, triple_modes):
        for k in (np.nan, np.inf, 0.1 + 0.1j):
            with pytest.raises(DomainError):
                rho(triple_modes[0], k, 10.0)

    def test_mirror_is_conjugation_identity(self, triple_modes, problem_ebar, rng):
        # rho_{-n}(x, k) = 2ik u_n(0)* u_n(x)* / (k^2 - k_n*^2)
        k = problem_ebar.k
        L = problem_ebar.L
        for m in triple_modes:
            for x in rng.uniform(0.0, L, size=5):
                direct = rho_mirror(m, k, x)
                expect = (
                    2j
                    * k
                    * np.conj(m.u0)
                    * np.conj(m.u(x))
                    / (k * k - np.conj(m.pole.k) ** 2)
                )
                assert abs(direct - expect) < 1e-12 * max(abs(expect), 1.0)

    @pytest.mark.parametrize("structure", ["triple", "double"])
    def test_mirror_is_its_definition_bit_for_bit(
        self, structure, triple_profile, triple_modes, double_profile, double_modes, ebar
    ):
        # rho_mirror takes -rho_n(x, k)*; its definition is rho_n(x, -k)*.
        # uint64 views compare every bit, signed zeros included
        profile, modes, energy = {
            "triple": (triple_profile, triple_modes, ebar),
            "double": (double_profile, double_modes, double_modes[0].pole.E_position),
        }[structure]
        k0 = wavenumber(energy, profile).real
        interior = np.linspace(0.0, profile.total_length, 502)[1:-1]
        xs = np.concatenate((profile.edges, interior))

        def bits(values):
            return np.asarray(values, dtype=complex).view(np.uint64)

        for m in modes:
            for k in (k0, 0.37 * k0, 1.9 * k0):
                expect = bits(np.conj(rho(m, -k, xs)))
                assert np.array_equal(bits(rho_mirror(m, k, xs)), expect)
                scalars = [rho_mirror(m, k, float(x)) for x in xs]
                expect = [np.conj(rho(m, -k, float(x))) for x in xs]
                assert np.array_equal(bits(scalars), bits(expect))

    def test_on_resonance_dominance(self, triple_profile, triple_modes):
        # |rho_1(L)|^2 carries nearly all of the near-unity resonant density
        k1 = wavenumber(triple_modes[0].pole.E_position, triple_profile).real
        L = triple_profile.total_length
        assert abs(rho(triple_modes[0], k1, L)) ** 2 >= 0.95

    def test_two_level_truncation_at_exit(self, triple_profile, triple_modes, ebar):
        # Phi(L, k) vs rho_1 + rho_2 at the doublet center: within 10%
        k = wavenumber(ebar, triple_profile).real
        L = triple_profile.total_length
        phi = stationary_wave(solve_stationary(triple_profile, k), L)
        two = rho(triple_modes[0], k, L) + rho(triple_modes[1], k, L)
        assert abs(phi - two) / abs(phi) < 0.10
        assert abs(two) ** 2 == pytest.approx(abs(phi) ** 2, rel=0.10)
