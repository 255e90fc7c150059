"""Pole seeding, Newton refinement, and ResonancePole invariants."""

import numpy as np
import pytest

from conftest import (
    DOUBLE_E1_MEV,
    DOUBLE_G1_MEV,
    DOUBLE_K,
    TRIPLE_E1_MEV,
    TRIPLE_E2_MEV,
    TRIPLE_G1_MEV,
    TRIPLE_G2_MEV,
    TRIPLE_K,
    TRIPLE_TAU1_PS,
)
from qshutter import (
    DomainError,
    PoleConvergenceError,
    PoleCountError,
    build_profile,
    find_poles,
    pole_condition,
    transmission,
)
from qshutter import poles as poles_module
from qshutter.poles import refine_pole, seed_poles


class TestPoleCondition:
    def test_unimodular_at_full_transmission(self, triple_profile, triple_poles):
        # at a T = 1 peak of a symmetric structure, |f| = 1/|t| = 1
        from scipy.optimize import minimize_scalar

        p = triple_poles[0]
        res = minimize_scalar(
            lambda E: -transmission(triple_profile, E)[1],
            bounds=(p.E_position - p.Gamma, p.E_position + p.Gamma),
            method="bounded",
        )
        from qshutter.model import wavenumber

        k_peak = wavenumber(res.x, triple_profile).real
        assert abs(pole_condition(triple_profile, k_peak)) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_zero_at_pole(self, triple_profile, triple_poles):
        assert abs(pole_condition(triple_profile, triple_poles[0].k)) < 1e-8

    def test_free_profile_never_vanishes(self, free_profile, rng):
        for _ in range(20):
            k = complex(rng.uniform(0.05, 1.0), -rng.uniform(0.0001, 0.1))
            assert abs(pole_condition(free_profile, k)) > 0.5


class TestSeedPoles:
    def test_triple_barrier_doublet(self, triple_profile):
        assert len(seed_poles(triple_profile, 20e-3)) == 2

    def test_double_barrier_single_seed(self, double_profile):
        seeds = seed_poles(double_profile, 100e-3)
        assert len(seeds) == 1
        from qshutter.model import energy_of

        assert energy_of(seeds[0], double_profile).real == pytest.approx(
            80.11e-3, abs=2e-3
        )

    def test_free_profile_no_seeds(self, free_profile):
        assert seed_poles(free_profile, 100e-3) == []

    def test_bad_window_rejected(self, triple_profile):
        with pytest.raises(DomainError):
            seed_poles(triple_profile, 0.0)

    def test_matches_per_point_reference_scan(
        self, triple_profile, double_profile, monkeypatch
    ):
        cases = ((triple_profile, 20e-3), (triple_profile, 60e-3), (double_profile, 100e-3))
        seeds = [seed_poles(profile, E_max) for profile, E_max in cases]

        def per_point(profile, E):
            t = np.array([transmission(profile, float(e))[0] for e in E])
            return t, np.abs(t) ** 2

        monkeypatch.setattr(poles_module, "transmission", per_point)
        for (profile, E_max), got in zip(cases, seeds):
            ref = seed_poles(profile, E_max)
            assert len(got) == len(ref) >= 1
            assert max(abs(a - b) for a, b in zip(got, ref)) < 1e-12

    def test_seeds_sit_in_fourth_quadrant(self, triple_profile):
        for s in seed_poles(triple_profile, 60e-3):
            assert s.real > 0 and s.imag < 0


class TestRefinePole:
    def test_residual_below_tolerance(self, triple_profile, triple_poles):
        for p in triple_poles:
            assert abs(pole_condition(triple_profile, p.k)) < 1e-10

    def test_stability_under_seed_perturbation(self, triple_profile, triple_poles, rng):
        # 10 seeds displaced by a relative 1e-3 must all come home
        k_ref = triple_poles[0].k
        for _ in range(10):
            angle = rng.uniform(0.0, 2.0 * np.pi)
            seed = k_ref * (1.0 + 1e-3 * np.exp(1j * angle))
            p = refine_pole(triple_profile, seed)
            assert abs(p.k - k_ref) < 1e-9

    def test_seed_outside_fourth_quadrant_rejected(self, triple_profile):
        with pytest.raises(DomainError):
            refine_pole(triple_profile, 0.1 + 0.01j)

    def test_free_profile_does_not_converge(self, free_profile):
        # f(k) = m22 = 1 for every k, zero-free; the central difference
        # divides rounding noise, so Newton must fail loudly
        with pytest.raises(PoleConvergenceError) as err:
            refine_pole(free_profile, 0.3 - 0.01j)
        assert len(err.value.trace) >= 1

    def test_guard_tripped_by_iterate_is_convergence_error(self):
        # a diverging iterate runs past the overflow guard; the failure must
        # still be a PoleConvergenceError carrying the trace
        two_layer_free = build_profile([(5.0, 0.0), (3.0, 0.0)], 0.067)
        with pytest.raises(PoleConvergenceError) as err:
            refine_pole(two_layer_free, 0.3 - 0.01j)
        assert len(err.value.trace) >= 1


class TestFindPoles:
    def test_triple_barrier_regression_pins(self, triple_poles):
        assert len(triple_poles) == 4
        for p, k_ref in zip(triple_poles, TRIPLE_K):
            assert abs(p.k - k_ref) < 1e-9

    def test_double_barrier_regression_pins(self, double_poles):
        for p, k_ref in zip(double_poles, DOUBLE_K):
            assert abs(p.k - k_ref) < 1e-9

    def test_resonance_parameters(self, triple_poles, double_poles):
        mev = 1e-3
        p1, p2 = triple_poles[0], triple_poles[1]
        assert p1.E_position == pytest.approx(TRIPLE_E1_MEV * mev, abs=1e-9)
        assert p1.Gamma == pytest.approx(TRIPLE_G1_MEV * mev, abs=1e-9)
        assert p2.E_position == pytest.approx(TRIPLE_E2_MEV * mev, abs=1e-9)
        assert p2.Gamma == pytest.approx(TRIPLE_G2_MEV * mev, abs=1e-9)
        assert p1.tau == pytest.approx(TRIPLE_TAU1_PS, abs=1e-6)
        d1 = double_poles[0]
        assert d1.E_position == pytest.approx(DOUBLE_E1_MEV * mev, abs=1e-9)
        assert d1.Gamma == pytest.approx(DOUBLE_G1_MEV * mev, abs=1e-9)

    def test_lifetime_matches_width(self, triple_poles):
        # tau tracks hbar/Gamma with hbar in eV ps against Gamma in eV
        for p in triple_poles:
            assert p.tau == pytest.approx(6.582119569e-4 / p.Gamma, rel=1e-12)

    def test_invariants(self, triple_profile, triple_poles):
        c = triple_profile.constants
        for i, p in enumerate(triple_poles):
            assert p.index == i + 1
            assert p.k.real > 0 and p.k.imag < 0
            assert abs(p.E - p.k**2 * c.hbar2_over_2m) < 1e-12 * abs(p.E)
            assert p.Gamma > 0
        energies = [p.E_position for p in triple_poles]
        assert energies == sorted(energies)

    def test_second_doublet_above_first(self, triple_poles):
        assert triple_poles[2].E_position > 3 * triple_poles[1].E_position

    def test_mirror_partner_residual(self, triple_profile, triple_poles):
        # pole_condition(-k*) = pole_condition(k)*, so partners are zeros too
        for p in triple_poles:
            assert p.k_mirror == -np.conj(p.k)
            assert abs(pole_condition(triple_profile, p.k_mirror)) < 1e-8

    def test_free_profile_errors_with_count(self, free_profile):
        with pytest.raises(PoleCountError, match="0 poles found"):
            find_poles(free_profile, 1)

    def test_bad_count_rejected(self, triple_profile):
        with pytest.raises(DomainError):
            find_poles(triple_profile, 0)
