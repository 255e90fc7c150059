"""Units, layer stacks, and the energy <-> wave number bridge."""

import numpy as np
import pytest

from qshutter import (
    EmptyProfileError,
    LayerHeightError,
    LayerWidthError,
    MassRatioError,
    PhysicalConstants,
    build_profile,
)
from qshutter.model import energy_of, wavenumber


class TestPhysicalConstants:
    def test_hbar_is_the_published_meV_ps_value(self):
        c = PhysicalConstants(mass_ratio=0.067)
        assert c.hbar == 0.6582119569

    def test_hbar2_over_2me_is_the_published_eV_nm2_value(self):
        c = PhysicalConstants(mass_ratio=0.067)
        assert c.hbar2_over_2me == 0.0380998

    def test_effective_mass_scaling(self):
        c = PhysicalConstants(mass_ratio=0.067)
        assert c.hbar2_over_2m == pytest.approx(0.5686537, abs=5e-7)

    def test_hbar_over_2m_units_bridge(self):
        # (hbar^2/2m) / hbar must equal hbar/2m in nm^2/ps
        c = PhysicalConstants(mass_ratio=0.067)
        assert c.hbar_over_2m == pytest.approx(c.hbar2_over_2m / c.hbar_ev_ps)
        assert c.hbar_over_2m == pytest.approx(863.937, rel=1e-5)


class TestBuildProfile:
    def test_total_length_and_edges(self):
        p = build_profile([(3.0, 0.12), (16.0, 0.0), (3.0, 0.12)], 0.067)
        assert p.total_length == 22.0
        np.testing.assert_allclose(p.edges, [0.0, 3.0, 19.0, 22.0])

    def test_is_free(self):
        assert build_profile([(5.0, 0.0)], 0.067).is_free
        assert not build_profile([(5.0, 0.1)], 0.067).is_free

    def test_empty_layers_rejected(self):
        with pytest.raises(EmptyProfileError):
            build_profile([], 0.067)

    def test_nonpositive_width_rejected(self):
        with pytest.raises(LayerWidthError, match="layer 1"):
            build_profile([(3.0, 0.1), (0.0, 0.0)], 0.067)

    def test_negative_height_rejected(self):
        with pytest.raises(LayerHeightError, match="layer 0"):
            build_profile([(3.0, -0.1)], 0.067)

    def test_bad_mass_ratio_rejected(self):
        for bad in (0.0, np.inf):
            with pytest.raises(MassRatioError):
                build_profile([(3.0, 0.1)], bad)
            with pytest.raises(MassRatioError):
                PhysicalConstants(bad)


class TestWavenumber:
    def test_zero_energy(self, triple_profile):
        assert wavenumber(0.0, triple_profile) == 0.0

    def test_known_value(self, triple_profile):
        # k = sqrt(0.011512 / 0.5686537) nm^-1
        k = wavenumber(11.512e-3, triple_profile)
        assert k.imag == 0.0
        assert k.real == pytest.approx(0.142283, abs=1e-6)

    def test_fourth_quadrant_energy_maps_to_fourth_quadrant_k(
        self, triple_profile, triple_poles
    ):
        p = triple_poles[0]
        k = wavenumber(p.E, triple_profile)
        assert k.real > 0 and k.imag < 0

    def test_round_trip(self, triple_profile, rng):
        for E in rng.uniform(1e-6, 1.0, size=50):
            back = energy_of(wavenumber(E, triple_profile), triple_profile)
            assert abs(back - E) / E < 1e-12

    def test_branch_continuity_into_lower_half_plane(self, triple_profile):
        # walk Im E from 0 down to -1 meV at fixed Re E; k must move smoothly
        E0 = 11.5e-3
        ims = np.linspace(0.0, -1e-3, 200)
        ks = np.array([wavenumber(complex(E0, im), triple_profile) for im in ims])
        assert np.array_equal(wavenumber(E0 + 1j * ims, triple_profile), ks)
        steps = np.abs(np.diff(ks))
        assert steps.max() < 1e-4
        assert np.all(ks.real > 0)
