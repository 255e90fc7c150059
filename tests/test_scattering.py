"""Transfer matrix, transmission, and the stationary wave."""

import cmath

import numpy as np
import pytest

from conftest import T_DOUBLE_83740, T_TRIPLE_12949, T_TRIPLE_EBAR
from qshutter import DomainError, OverflowGuardError, build_profile, transmission
from qshutter import scattering
from qshutter.model import wavenumber
from qshutter.scattering import (
    layered_wave,
    solve_stationary,
    stationary_wave,
    transfer_matrix,
)


def _transfer_matrix_per_point(profile, k):
    """Reference for transfer_matrix: one k at a time, a 2x2 product per layer."""
    k = complex(k)
    p = np.eye(2, dtype=complex)
    for layer in profile.layers:
        q = cmath.sqrt(k * k - layer.height / profile.constants.hbar2_over_2m)
        z = q * layer.width
        if abs(z) < 1e-6:
            c, s = 1.0 - z * z / 2.0, 1.0 - z * z / 6.0
        else:
            c, s = cmath.cos(z), cmath.sin(z) / z
        ws = layer.width * s
        p = np.array([[c, ws], [-q * q * ws, c]]) @ p
    ekl = cmath.exp(1j * k * profile.total_length)
    c0 = np.array([[1.0, 1.0], [1j * k, -1j * k]])
    cl_inv = np.array([[0.5 / ekl, 1.0 / (2j * k * ekl)], [0.5 * ekl, -ekl / (2j * k)]])
    return cl_inv @ p @ c0


def _reference_energies(profile):
    # a grid plus each barrier height, where z = 0 takes the series branch
    heights = [l.height for l in profile.layers if l.height > 0]
    return np.concatenate([np.linspace(1e-4, 0.4, 301), heights])


def _transmission_per_point(profile, E):
    m22 = [_transfer_matrix_per_point(profile, wavenumber(e, profile))[1, 1] for e in E]
    t = 1.0 / np.array(m22)
    return t, np.abs(t) ** 2


class TestTransferMatrix:
    def test_unit_determinant_real_k(self, triple_profile, double_profile, rng):
        # |det - 1| of the formed matrix floats at ~eps/T, so the 1e-10 bound
        # only binds where the structure is not opaque (|m22|^2 < 1e5)
        for profile in (triple_profile, double_profile):
            for E in rng.uniform(5e-3, 0.2, size=50):
                m = transfer_matrix(profile, wavenumber(E, profile))
                det = m.m11 * m.m22 - m.m12 * m.m21
                big = abs(m.m22) ** 2
                assert abs(det - 1.0) < (1e-10 if big < 1e5 else 1e-12 * big)

    def test_free_profile_is_pure_phase(self, free_profile):
        # under the exterior convention Phi = t e^{ikx} for x >= L, the free
        # profile has t = 1 exactly (Phi = e^{ikx} everywhere)
        k = 0.3
        m = transfer_matrix(free_profile, k)
        t = 1.0 / m.m22
        assert abs(t - 1.0) < 1e-12

    def test_k_zero_rejected(self, triple_profile):
        with pytest.raises(DomainError):
            transfer_matrix(triple_profile, 0.0)

    def test_overflow_guard_on_thick_evanescent_layer(self):
        # |Im q| * width beyond 300 must fail diagnosably, not return inf
        thick = build_profile([(5000.0, 1.0)], 0.067)
        with pytest.raises(OverflowGuardError) as err:
            transmission(thick, 1e-3)
        assert err.value.layer_index == 0

    def test_array_matches_per_point_reference(self, triple_profile, double_profile, triple_poles):
        for profile in (triple_profile, double_profile):
            E = _reference_energies(profile)
            k = np.concatenate([wavenumber(E, profile), [p.k for p in triple_poles]])
            m = transfer_matrix(profile, k)
            got = np.array([[m.m11, m.m12], [m.m21, m.m22]])
            for i, kk in enumerate(k):
                # relative to the matrix scale: m22 vanishes at the poles
                ref = _transfer_matrix_per_point(profile, kk)
                assert np.max(np.abs(got[..., i] - ref)) < 1e-12 * np.max(np.abs(ref))

    def test_shape_contract(self, triple_profile):
        m = transfer_matrix(triple_profile, 0.15)
        assert all(type(v) is np.complex128 for v in (m.m11, m.m12, m.m21, m.m22))
        m = transfer_matrix(triple_profile, np.array([0.15, 0.2 - 0.01j, 0.3]))
        assert all(v.shape == (3,) for v in (m.m11, m.m12, m.m21, m.m22))

    def test_any_k_zero_rejected(self, triple_profile):
        with pytest.raises(DomainError):
            transfer_matrix(triple_profile, np.array([0.1, 0.0, 0.2]))

    def test_array_guard_names_the_scalar_layer(self):
        # energies above both barriers pass; below 1 eV layer 1 trips first,
        # between 1 and 2 eV only layer 2 does
        profile = build_profile([(1.0, 0.0), (5000.0, 1.0), (5000.0, 2.0)], 0.067)
        for E, first in (([2.5, 1e-3, 1.5], 1e-3), ([2.5, 1.5, 1e-3], 1.5)):
            with pytest.raises(OverflowGuardError) as scalar:
                transmission(profile, first)
            with pytest.raises(OverflowGuardError) as array:
                transmission(profile, np.array(E))
            assert array.value.layer_index == scalar.value.layer_index
            assert array.value.exponent_magnitude == scalar.value.exponent_magnitude
            assert array.value.point == E.index(first)


class TestTransmission:
    def test_array_matches_per_point_reference(self, triple_profile, double_profile):
        for profile in (triple_profile, double_profile):
            E = _reference_energies(profile)
            t, T = transmission(profile, E)
            t_ref, T_ref = _transmission_per_point(profile, E)
            assert np.max(np.abs(t - t_ref) / np.abs(t_ref)) < 1e-12
            assert np.max(np.abs(T - T_ref) / T_ref) < 1e-12

    def test_shape_contract(self, triple_profile):
        t, T = transmission(triple_profile, 0.0125)
        assert type(t) is complex and type(T) is float
        t, T = transmission(triple_profile, np.linspace(0.01, 0.02, 5))
        assert t.shape == T.shape == (5,) and t.dtype == complex and T.dtype == float

    def test_one_bad_energy_rejected(self, triple_profile):
        for bad in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(DomainError):
                transmission(triple_profile, np.array([0.01, bad, 0.02]))

    def test_blocks_match_one_unblocked_evaluation(self, double_profile):
        E = np.linspace(1e-3, 0.2, scattering._BLOCK + 1)
        t, _ = transmission(double_profile, E)
        t_whole = transfer_matrix(double_profile, wavenumber(E, double_profile)).t
        # the same elementwise operations; only vector-lane rounding may differ
        assert np.max(np.abs(t - t_whole) / np.abs(t_whole)) < 1e-14

    def test_free_profile_is_unity(self, free_profile):
        _, T = transmission(free_profile, 0.05)
        assert T == pytest.approx(1.0, abs=1e-12)

    def test_triple_barrier_doublet_center_pin(self, triple_profile, ebar):
        _, T = transmission(triple_profile, ebar)
        assert T == pytest.approx(T_TRIPLE_EBAR, abs=1e-8)

    def test_triple_barrier_at_12_949_meV(self, triple_profile):
        _, T = transmission(triple_profile, 12.949e-3)
        assert T == pytest.approx(T_TRIPLE_12949, abs=1e-8)

    def test_double_barrier_at_83_740_meV(self, double_profile):
        _, T = transmission(double_profile, 83.740e-3)
        assert T == pytest.approx(T_DOUBLE_83740, abs=1e-8)

    def test_on_resonance_transmission_near_unity(
        self, triple_profile, double_profile, triple_poles, double_poles
    ):
        # symmetric structures transmit fully at the T(E) peak; the peak sits
        # within Gamma_1 of the pole's real part but not exactly on it
        from scipy.optimize import minimize_scalar

        for profile, pole in (
            (triple_profile, triple_poles[0]),
            (double_profile, double_poles[0]),
        ):
            res = minimize_scalar(
                lambda E: -transmission(profile, E)[1],
                bounds=(pole.E_position - pole.Gamma, pole.E_position + pole.Gamma),
                method="bounded",
            )
            assert -res.fun >= 0.99
            assert abs(res.x - pole.E_position) < pole.Gamma

    def test_unitarity(self, triple_profile, double_profile, rng):
        for profile in (triple_profile, double_profile):
            for E in rng.uniform(1e-3, 0.2, size=200):
                k = wavenumber(E, profile)
                f = solve_stationary(profile, k)
                assert abs(abs(f.r) ** 2 + abs(f.t) ** 2 - 1.0) < 1e-10

    def test_layer_order_reversal(self, rng):
        fwd = build_profile([(3.0, 0.12), (10.0, 0.0), (5.0, 0.2)], 0.067)
        rev = build_profile([(5.0, 0.2), (10.0, 0.0), (3.0, 0.12)], 0.067)
        for E in rng.uniform(1e-3, 0.3, size=50):
            assert transmission(fwd, E)[1] == pytest.approx(
                transmission(rev, E)[1], abs=1e-10
            )

    def test_range(self, triple_profile, rng):
        for E in rng.uniform(1e-3, 0.3, size=100):
            _, T = transmission(triple_profile, E)
            assert 0.0 <= T <= 1.0 + 1e-9


def _layer_sum_per_point(edges, q, coefficients, x):
    """Reference for layered_wave: one point at a time, series below |z| = 1e-6."""
    j = min(int(np.searchsorted(edges, x, side="right")) - 1, len(q) - 1)
    a, b = coefficients[j]
    xi = x - edges[j]
    z = complex(q[j] * xi)
    if abs(z) < 1e-6:
        c, s = 1.0 - z * z / 2.0, 1.0 - z * z / 6.0
    else:
        c, s = cmath.cos(z), cmath.sin(z) / z
    return a * c + b * xi * s


class TestStationaryWave:
    def test_matches_per_point_reference(self, triple_profile, triple_modes, ebar):
        # interfaces, both ends, and interior points; arrays and scalars
        f = solve_stationary(triple_profile, wavenumber(ebar, triple_profile).real)
        mode = triple_modes[1]
        xs = np.concatenate(
            [triple_profile.edges, np.linspace(0.0, triple_profile.total_length, 97)]
        )
        for data, evaluate in ((f, lambda x: stationary_wave(f, x)), (mode, mode.u)):
            ref = np.array(
                [_layer_sum_per_point(data.edges, data.q, data.coefficients, x) for x in xs]
            )
            tol = 1e-14 * np.max(np.abs(ref))
            assert np.max(np.abs(evaluate(xs) - ref)) < tol
            assert max(abs(evaluate(float(x)) - r) for x, r in zip(xs, ref)) < tol
            grid = xs[:12].reshape(3, 4)
            assert evaluate(grid).shape == (3, 4)

    def test_zero_wave_number_layer_is_linear(self):
        # q = 0 (incidence exactly at a layer's height): A + B xi
        a, b = 0.3 - 0.1j, 2.0 + 0.5j
        x = np.linspace(0.0, 2.0, 5)
        got = layered_wave(np.array([0.0, 2.0]), np.array([0j]), np.array([[a, b]]), x)
        assert np.max(np.abs(got - (a + b * x))) < 1e-15

    def test_free_profile_plane_wave(self, free_profile):
        k = 0.25
        f = solve_stationary(free_profile, k)
        for x in (0.0, 0.31, 1.0):
            assert abs(stationary_wave(f, x) - np.exp(1j * k * x)) < 1e-12

    def test_exit_value_is_transmitted_wave(self, triple_profile, ebar):
        k = wavenumber(ebar, triple_profile).real
        f = solve_stationary(triple_profile, k)
        L = triple_profile.total_length
        assert abs(stationary_wave(f, L) - f.t * np.exp(1j * k * L)) < 1e-12
        assert abs(stationary_wave(f, L)) ** 2 == pytest.approx(
            transmission(triple_profile, ebar)[1], abs=1e-12
        )

    def test_interface_continuity(self, triple_profile, ebar):
        # evaluate (Phi, Phi') at each interface from the layer on its left
        # and compare with the next layer's stored start values
        k = wavenumber(ebar, triple_profile).real
        f = solve_stationary(triple_profile, k)
        for j, layer in enumerate(triple_profile.layers[:-1]):
            a, b = f.coefficients[j]
            q, w = f.q[j], layer.width
            z = q * w
            value_left = a * np.cos(z) + b * w * np.sin(z) / z
            deriv_left = -a * q * np.sin(z) + b * np.cos(z)
            a_next, b_next = f.coefficients[j + 1]
            assert abs(value_left - a_next) < 1e-10 * max(abs(a_next), 1.0)
            assert abs(deriv_left - b_next) < 1e-10 * max(abs(b_next), 1.0)

    def test_conjugation_symmetry(self, triple_profile, rng):
        # Phi(x, -k) = Phi(x, k)* for real k
        for E in rng.uniform(1e-3, 0.2, size=10):
            k = wavenumber(E, triple_profile).real
            f_plus = solve_stationary(triple_profile, k)
            f_minus = solve_stationary(triple_profile, -k)
            for x in rng.uniform(0.0, triple_profile.total_length, size=5):
                a = stationary_wave(f_minus, x)
                b = np.conj(stationary_wave(f_plus, x))
                assert abs(a - b) < 1e-10

    def test_x_outside_rejected(self, triple_profile, ebar):
        k = wavenumber(ebar, triple_profile).real
        f = solve_stationary(triple_profile, k)
        with pytest.raises(DomainError):
            stationary_wave(f, -0.1)
        with pytest.raises(DomainError):
            stationary_wave(f, triple_profile.total_length + 0.1)
        with pytest.raises(DomainError):
            stationary_wave(f, np.nan)
