"""Transfer matrix, transmission, and the stationary wave."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import superlattice
from conftest import T_DOUBLE_83740, T_TRIPLE_12949, T_TRIPLE_EBAR
from qshutter import (
    DomainError,
    OverflowGuardError,
    QShutterError,
    build_profile,
    find_poles,
    pole_condition,
    solve_mode,
    transmission,
)
from qshutter import reference, scattering
from qshutter.model import wavenumber
from qshutter.presets import MASS_RATIO, TRIPLE_LAYERS
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
        q = cmath.sqrt(k * k - layer.height / profile.hbar2_over_2m)
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


@st.composite
def _barrier_profiles(draw):
    """2-4 barriers with wells between, in the ranges of perfbench's
    `structures` workload: barriers 1-12 nm by 0.10-0.35 eV, wells 3-16 nm."""
    layers = []
    n_barriers = draw(st.integers(2, 4))
    for j in range(n_barriers):
        layers.append((draw(st.floats(1.0, 12.0)), draw(st.floats(0.10, 0.35))))
        if j < n_barriers - 1:
            layers.append((draw(st.floats(3.0, 16.0)), 0.0))
    return build_profile(layers, 0.067)


def _stacked_rows_march(by_value, by_slope, pairs):
    """Reference array march: pairs[j + 1] = by_value[j] psi + by_slope[j]
    psi', (psi, psi') = pairs[j], where by_value[j] and by_slope[j] stack
    layer j's matrix columns [c; m] and [ws; c] as rows shaped as a pair."""
    term = np.empty(pairs.shape[1:], dtype=pairs.dtype)
    for j, (a, b) in enumerate(zip(by_value, by_slope)):
        (value, slope), pair = pairs[j], pairs[j + 1]
        np.multiply(a, value, out=pair)
        pair += np.multiply(b, slope, out=term)
    return pairs


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
        # and a non-finite k, through every entry point that reads M
        for k in (0.0, np.nan, np.inf, complex(np.nan, -0.1)):
            for entry in (transfer_matrix, solve_stationary, pole_condition):
                with pytest.raises(DomainError):
                    entry(triple_profile, k)

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

    def test_guard_names_the_point_of_a_later_block(self):
        # a trip at a block's first point checks no earlier point of that
        # block (an empty array) and names the point's index in all of E
        profile = build_profile([(1.0, 0.0), (5000.0, 1.0), (5000.0, 2.0)], 0.067)
        for guarded in (scattering._BLOCK, scattering._BLOCK + 2):
            E = np.full(scattering._BLOCK + 5, 2.5)
            E[guarded] = 1e-3
            with pytest.raises(OverflowGuardError) as err:
                transmission(profile, E)
            assert err.value.point == guarded and err.value.layer_index == 1

    def test_march_guard_bounds_the_summed_growth(self):
        # three barriers at |Im q| w ~ 249 each pass the per-layer guard, but
        # their product overflows: the march guard names the layer where the
        # summed exponent passes 600, for the first point a loop would meet
        profile = build_profile([(188.0, 1.0), (5.0, 0.0)] * 2 + [(188.0, 1.0)], 0.067)
        with pytest.raises(OverflowGuardError) as err:
            transmission(profile, np.array([1.5, 1e-3, 2e-3]))
        assert err.value.summed and err.value.point == 1
        assert err.value.layer_index == 4
        assert scattering.MARCH_GUARD < err.value.exponent_magnitude < 3 * scattering.OVERFLOW_GUARD

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles())
    def test_complex_march_matches_stacked_rows_exactly(self, profile):
        # at complex k numpy's product is not commutative bit for bit and
        # rounds differently written over one of its own factors: the march
        # must keep the bits of a march from the identity over stacked rows
        rng = np.random.default_rng(3)
        one_layer = build_profile([(4.0, 0.2)], 0.067)
        for p in (profile, one_layer):
            for shape in ((), (1,), (3,), (3, 4)):
                # an array even at shape (), as transfer_matrix holds k: M read
                # off at a numpy-scalar k would round as Python's complexes
                k = np.asarray(rng.uniform(0.05, 1.0, shape) - 1j * rng.uniform(0.0, 0.05, shape))
                _, c, ws, m, _ = scattering._layers(p, k)
                pairs = np.empty((len(c) + 1, 2, 2, *k.shape), dtype=complex)
                pairs[0] = np.eye(2).reshape((2, 2) + (1,) * k.ndim)
                rows = (len(c), 2, 1, *k.shape)
                by_value, by_slope = (np.stack(a, axis=1).reshape(rows) for a in ((c, m), (ws, c)))
                end = _stacked_rows_march(by_value, by_slope, pairs)[-1]
                ref, got = scattering._read_off(p, k, end), transfer_matrix(p, k)
                for name in ("m11", "m12", "m21", "m22"):
                    assert np.array_equal(getattr(got, name), getattr(ref, name)), (shape, name)
                if k.size == 1:
                    continue  # one point walks its outgoing pieces in Python numbers
                # the Newton batch: both outgoing waves, the right one through
                # the mirrored layers, as one march of (1, -ik)
                pairs = np.empty((len(c) + 1, 2, 2, *k.shape), dtype=complex)
                pairs[0, 0], pairs[0, 1] = 1.0, -1j * k
                axes = (2, 0, 1, *range(3, 3 + k.ndim))
                by_value = np.array([[c, c[::-1]], [m, m[::-1]]]).transpose(axes)
                by_slope = np.array([[ws, ws[::-1]], [c, c[::-1]]]).transpose(axes)
                pairs = _stacked_rows_march(by_value, by_slope, pairs)
                left, right = scattering._outgoing(scattering._layers(p, k), k)
                assert np.array_equal(left, pairs[:, :, 0])
                assert np.array_equal(right[:, 0], pairs[::-1, 0, 1])
                assert np.array_equal(right[:, 1], -pairs[::-1, 1, 1])


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

    @pytest.mark.parametrize(
        "E", [0.0125, np.float64(0.0125), np.array(0.0125), 1, np.float32(0.0125), 0.0125 + 0j]
    )
    def test_scalar_is_the_array_entry(self, triple_profile, E):
        # floats take the one-point path, every other scalar the array path;
        # both give (complex, float) with the bits of a one-point array
        t, T = transmission(triple_profile, E)
        t_array, T_array = transmission(triple_profile, np.array([E]))
        assert type(t) is complex and type(T) is float
        assert t == t_array[0] and T == T_array[0]

    @pytest.mark.parametrize("bad", [0.0, -0.01, np.nan, np.inf, 0, -1, np.float64(-0.01)])
    def test_bad_scalar_raises_what_the_array_path_raises(self, triple_profile, bad):
        with pytest.raises(DomainError) as scalar:
            transmission(triple_profile, bad)
        with pytest.raises(DomainError) as array:
            transmission(triple_profile, np.asarray(bad))
        assert str(scalar.value) == str(array.value)

    def test_scalar_guard_trip_raises_what_the_array_path_raises(self):
        thick = build_profile([(5000.0, 1.0)], 0.067)
        with pytest.raises(OverflowGuardError) as scalar:
            transmission(thick, 1e-3)
        with pytest.raises(OverflowGuardError) as array:
            transmission(thick, np.array([1e-3]))
        assert str(scalar.value) == str(array.value)
        assert vars(scalar.value) == vars(array.value) and scalar.value.point == 0

    def test_one_bad_energy_rejected(self, triple_profile):
        for bad in (0.0, -0.01, np.nan, np.inf):
            with pytest.raises(DomainError):
                transmission(triple_profile, np.array([0.01, bad, 0.02]))

    def test_blocks_match_one_unblocked_evaluation(self, double_profile):
        E = np.linspace(1e-3, 0.2, scattering._BLOCK + 1)
        t, _ = transmission(double_profile, E)
        # real k, as transmission passes: the same elementwise operations;
        # only vector-lane rounding may differ
        t_whole = transfer_matrix(double_profile, wavenumber(E, double_profile).real).t
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


class TestRealAxis:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        profile=_barrier_profiles(),
        extra=st.lists(st.floats(1e-5, 1.0), min_size=1, max_size=20),
    )
    def test_real_path_matches_complex_path(self, profile, extra):
        # transmission marches real k in real arithmetic; k + 0j takes the
        # complex path through the same kernel
        E = np.concatenate([_reference_energies(profile), extra])
        t, T = transmission(profile, E)
        k = wavenumber(E, profile).real
        t_complex = transfer_matrix(profile, k + 0j).t
        T_complex = np.abs(t_complex) ** 2
        assert np.max(np.abs(t - t_complex) / np.abs(t_complex)) < 1e-10
        assert np.max(np.abs(T - T_complex) / T_complex) < 1e-10
        r = transfer_matrix(profile, k).r
        assert np.max(np.abs(np.abs(r) ** 2 + T - 1.0)) < 1e-10


    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles())
    def test_scan_matches_transfer_matrix_exactly(self, profile):
        # the scan forms only m22, through the expression transfer_matrix
        # uses for it; one block of real k must give the same bits
        E = _reference_energies(profile)
        t, _ = transmission(profile, E)
        assert np.array_equal(t, transfer_matrix(profile, wavenumber(E, profile).real).t)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles())
    def test_scalar_transmission_is_the_scan_entry(self, profile):
        # a scalar E takes the one-point path: the bits of the array scan
        E = _reference_energies(profile)[::4]
        t, T = transmission(profile, E)
        for i, e in enumerate(E):
            t_i, T_i = transmission(profile, e)
            assert t_i == t[i] and T_i == T[i]

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles())
    def test_stationary_field_is_the_array_entry(self, profile):
        # solve_stationary walks F1 and F2 in Python floats and transfer_matrix
        # marches them on arrays; real arithmetic rounds alike in both, and
        # both read M off arrays, so r and t are the same bits
        k = wavenumber(_reference_energies(profile)[::4], profile).real
        for i, k_i in enumerate(k.tolist()):
            f = solve_stationary(profile, k_i)
            tm = transfer_matrix(profile, k[i : i + 1])
            assert _bits(f.t) == _bits(tm.t[0]) and _bits(f.r) == _bits(tm.r[0])

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles(), E=st.floats(1e-5, 0.5))
    def test_stationary_q_at_real_k(self, profile, E):
        # real k: q = sqrt(|q^2|), real where q^2 >= 0 and imaginary where it
        # is negative, as the same float arithmetic one layer at a time gives
        h22m = profile.hbar2_over_2m
        for energy in (E, *(l.height for l in profile.layers if l.height > 0)):
            k = wavenumber(energy, profile).real
            q = solve_stationary(profile, k).q
            for q_j, layer in zip(q, profile.layers):
                q2 = k * k - layer.height / h22m
                root = math.sqrt(abs(q2))
                expected = complex(root, 0.0) if q2 >= 0 else complex(0.0, root)
                assert (q_j.real, q_j.imag) == (expected.real, expected.imag)
                assert math.copysign(1.0, q_j.real) == 1.0

    @pytest.mark.xfail(
        strict=True,
        reason="near a sharp resonance of an opaque profile, s = P11 + P22 and "
        "d = k P12 - P21/k cancel from entries of size e^(sum kappa w), so T "
        "read off the marched product loses ~7 digits",
    )
    def test_opaque_resonance_matches_high_precision_product(self):
        # perfbench `structures` seed 2, op 26: seven layers, T(E_1) ~ 0.13
        layers = [(11.55, 0.163), (7.13, 0.0), (10.08, 0.327), (9.13, 0.0),
                  (9.08, 0.233), (5.87, 0.0), (10.8, 0.174)]
        profile = build_profile(layers, MASS_RATIO)
        E_1 = find_poles(profile, 1)[0].E_position
        _, T = transmission(profile, E_1)
        # the same product: binary k, widths, heights and hbar^2/2m
        T_ref = float(reference.transmission(profile, wavenumber(E_1, profile).real))
        assert abs(T - T_ref) < 1e-10 * T_ref

    @pytest.mark.xfail(
        strict=True,
        raises=QShutterError,
        reason="at a sharp resonance the march's rounding (ROADMAP item 5) puts T "
        "1.8e-9 above 1, past the 1e-9 unitarity tolerance, and transmission raises",
    )
    def test_transmission_at_a_sharp_pole_energy(self):
        # T(E_1) = 1 - 6e-15 by the high-precision product, and the solved
        # field at the same energy reads |t|^2 - 1 = 1.8e-9 with no error
        profile = build_profile([(12.0, 0.3), (10.0, 0.0), (12.0, 0.3)], MASS_RATIO)
        E_1 = find_poles(profile, 1)[0].E_position
        _, T = transmission(profile, E_1)
        T_ref = float(reference.transmission(profile, wavenumber(E_1, profile).real))
        assert abs(T - T_ref) < 1e-10 * T_ref

    @pytest.mark.xfail(
        strict=True,
        reason="Phi is marched forward from x = 0, and the rounding of that "
        "start grows through each opaque barrier as the growing solution does "
        "(ROADMAP item 23): the relative miss reads 3.6e2, 7.6e13 and 7.7e32",
    )
    @pytest.mark.parametrize("w", [15.0, 25.0, 40.0])
    def test_stationary_wave_at_L_is_the_transmitted_wave(self, w):
        # Phi(L) = t e^{ikL} holds exactly, so it needs no reference; on the
        # triple barrier at curlyE1 the miss reads 5e-15
        profile = build_profile([(w, 0.3), (10.0, 0.0), (w, 0.3)], MASS_RATIO)
        k = wavenumber(20e-3, profile).real
        field = solve_stationary(profile, k)
        L = profile.total_length
        miss = abs(stationary_wave(field, L) - field.t * cmath.exp(1j * k * L))
        assert miss <= 1e-12 * abs(field.t)


class TestPolesAndModes:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles(), n=st.integers(1, 4))
    def test_typed_error_or_modes_within_their_residual_bounds(self, profile, n):
        # the whole structure-level path either raises a typed error that
        # says why or returns modes that pass their own invariants, never NaN
        try:
            modes = [solve_mode(profile, p) for p in find_poles(profile, n)]
        except QShutterError:
            return
        for m in modes:
            assert m.outgoing_residual < 1e-8
            assert m.normalization_residual < 1e-10
            assert np.all(np.isfinite(m.coefficients))
            assert np.isfinite(m.u0) and np.isfinite(m.uL)

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(profile=_barrier_profiles(), n=st.integers(1, 4))
    def test_poles_match_the_reference_secant(self, profile, n):
        # each pole is the 50-digit secant's root next to it: 50 poles over
        # these 20 examples, the worst 2.4e-16 relative
        try:
            poles = find_poles(profile, n)
        except QShutterError:
            return
        for p in poles:
            root = reference.pole(profile, p.k)
            assert abs(p.k - root) < 1e-14 * abs(root)

    def test_join_scales_on_the_larger_component_of_the_right_piece(self):
        # |u_R| = 2.31 against |u_R'/k| = 0.1, so the right piece is scaled on
        # u.  For this u_R Python's abs of the numpy scalar and numpy's
        # vectorised abs differ in the last bit (numpy 2.4), so a join that
        # compared the two would take the u' ratio, 30, instead
        u_r = 1.267732437050385 + 1.925695544488903j
        left = np.array([[1, 1], [2, 3], [1, 1]], dtype=complex)[..., None]
        right = np.array([[1, 1], [u_r, 0.1], [1, 1]], dtype=complex)[..., None]
        k = np.array([1.0 + 0j])
        (edge,), _, (alpha,) = scattering._join(np.zeros((3, 1)), left, right, k)
        assert edge == 1
        assert alpha == pytest.approx(2 / u_r, rel=1e-15)


    def test_trust_threshold_reads_k_as_python_abs(self):
        # every point's left piece sits exactly on its trust threshold when
        # |k| is Python's abs: log(|u'|/|k|) = log 1 = 0 = _TRUST_FLOOR +
        # growth.  numpy's vectorised abs differs from it in the last bit for
        # about a third of these k, and where it reads larger the point would
        # fall below the threshold
        rng = np.random.default_rng(7)
        k = rng.uniform(0.05, 1.0, 64) - 1j * rng.uniform(1e-4, 0.3, 64)
        growth = np.zeros((3, 64))
        growth[1:] = -scattering._TRUST_FLOOR
        left = np.zeros((3, 2, 64), dtype=complex)
        left[1, 1] = [abs(z) for z in k.tolist()]
        right = np.ones((3, 2, 64), dtype=complex)
        # a point with no trusted join edge would join at edge 0, mismatch inf
        edges, mismatch, _ = scattering._join(growth, left, right, k)
        assert (edges == 1).all() and np.isfinite(mismatch).all()

    def test_join_with_no_trusted_edge_warns_of_nothing(self):
        # the join test forms sizes, mismatches and alpha on join edges that
        # are not trusted too: pieces of zeros (log size -inf, mismatch and
        # alpha 0/0) and growth that leaves no edge trusted give edge 0,
        # mismatch inf and alpha nan at every point, with no RuntimeWarning
        k = np.array([0.1 - 0.01j, 0.2 - 0.02j, 0.3 - 0.03j])
        growth = np.zeros((4, 3))
        growth[:, 1:] = 1e3 * np.arange(4)[:, None]
        left, right = np.ones((2, 4, 2, 3), dtype=complex)
        left[:, :, 0] = right[:, :, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges, mismatch, alpha = scattering._join(growth, left, right, k)
        assert (edges == 0).all() and (mismatch == np.inf).all() and np.isnan(alpha).all()


class TestSuperlattice:
    # The march against the Chebyshev form of P_N (tests/superlattice.py):
    # N cells of a 3 nm x 0.12 eV barrier and a 16 nm well, at 4001 real
    # energies on (1, 200] meV, where T falls to 1e-95 in the gaps at N = 40.
    # Each bound is about twice the largest relative error of g = s - i d
    # measured (3.9e-15, 8.2e-14, 1.0e-13, 2.3e-13 and 2.0e-12)
    @pytest.mark.parametrize(
        "n, bound", [(2, 8e-15), (6, 2e-13), (10, 2e-13), (20, 5e-13), (40, 4e-12)]
    )
    def test_march_matches_chebyshev(self, n, bound):
        barrier, well = (3.0, 0.12), 16.0
        profile = build_profile(superlattice.layers(n, barrier, well, trailing=True), MASS_RATIO)
        k = wavenumber(np.linspace(1e-3, 0.2, 4002)[1:], profile).real
        p = superlattice.chebyshev_power(superlattice.cell_matrix(profile, k, barrier, well), n)
        g = p[0, 0] + p[1, 1] - 1j * (k * p[0, 1] - p[1, 0] / k)
        m22 = 0.5 * np.exp(1j * k * profile.total_length) * g
        assert np.max(np.abs(transfer_matrix(profile, k).m22 - m22) / np.abs(m22)) < bound
        s, d = scattering._sd(k, scattering._layer_product(*scattering._layers(profile, k)[1:4]))
        assert np.max(np.abs(s - 1j * d - g) / np.abs(g)) < bound


# a 4-barrier (7-layer) profile of perfbench's `structures` stream
FOUR_BARRIERS = (
    (5.06, 0.194), (13.42, 0.0), (7.14, 0.288), (9.55, 0.0),
    (5.9, 0.335), (7.31, 0.0), (9.21, 0.323),
)


def _join_per_column(growth, left, right, k):
    """Reference for the join test at one k: the trusted join edges first,
    then the mismatch at each of them alone."""
    with np.errstate(divide="ignore"):
        log_l = np.log(np.abs(left[:, 0]) + np.abs(left[:, 1]) / abs(k))
        log_r = np.log(np.abs(right[:, 0]) + np.abs(right[:, 1]) / abs(k))
    floor = scattering._TRUST_FLOOR
    trusted = (log_l >= floor + growth) & (log_r >= floor + growth[-1] - growth)
    joins = scattering._joins(len(growth) - 1)
    edges = np.arange(len(growth))[joins][trusted[joins]]
    if not edges.size:
        return 0, np.inf, np.nan
    left, right = left[edges], right[edges]
    (u_l, du_l), (u_r, du_r) = left.T, right.T
    abs_u, abs_du = np.abs(u_r), np.abs(du_r / k)
    wronskian = u_l * du_r - du_l * u_r
    mismatch = np.abs(wronskian) / (np.maximum(abs_u, abs_du) * (np.abs(du_l) + np.abs(k * u_l)))
    j = int(mismatch.argmin())
    alpha = u_l[j] / u_r[j] if abs_u[j] >= abs_du[j] else du_l[j] / du_r[j]
    return int(edges[j]), float(mismatch[j]), alpha


def _bits(z):
    z = complex(z)
    return z.real.hex(), z.imag.hex()


class TestJoin:
    @pytest.mark.parametrize("layers", [TRIPLE_LAYERS, FOUR_BARRIERS])
    def test_batched_join_is_the_per_column_join(self, layers):
        # Newton's batch: the poles, iterates off them, and a last column
        # whose growth leaves no join edge trusted
        profile = build_profile(list(layers), MASS_RATIO)
        poles = [p.k for p in find_poles(profile, 3)]
        ks = np.array(poles + [k * (1 + 1e-4j) for k in poles] + [k * 1.01 for k in poles])
        layers = scattering._layers(profile, ks)
        left, right = scattering._outgoing(layers, ks)
        growth = scattering._growth(layers)
        growth[:, -1] = 1e3 * np.arange(len(growth))
        edges, batched, alphas = scattering._join(growth, left, right, ks)
        assert batched.shape == ks.shape and batched[-1] == np.inf
        assert (batched[:3] < scattering._W_TOL).all() and (batched[3:-1] > scattering._W_TOL).all()
        for col, k in enumerate(ks.tolist()):
            ref_edge, ref_mismatch, ref_alpha = _join_per_column(
                growth[:, col], left[:, :, col], right[:, :, col], k
            )
            # the column as a batch of one point, as a mode joins its pieces
            one = slice(col, col + 1)
            (edge,), (mismatch,), (alpha,) = scattering._join(
                growth[:, one], left[:, :, one], right[:, :, one], ks[one]
            )
            assert edge == edges[col] == ref_edge
            assert _bits(alpha) == _bits(alphas[col]) == _bits(ref_alpha)
            assert float(batched[col]).hex() == float(mismatch).hex() == ref_mismatch.hex()


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
