"""Faddeeva function, M-functions, and their time-dependent arguments."""

import math

import numpy as np
import pytest

from qshutter import DomainError, build_profile, reference
from qshutter.mfunc import Y_PHASE, faddeeva, m_function, m_function_scaled, y_values
from qshutter.model import HBAR_EV_PS

# hbar/2m (nm^2/ps) at mass ratio 0.067
BETA = build_profile([(1.0, 0.0)], 0.067).hbar_over_2m


class TestFaddeeva:
    def test_at_origin(self):
        assert faddeeva(0.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_i(self):
        # w(i) = e * erfc(1)
        assert faddeeva(1j) == pytest.approx(math.e * math.erfc(1.0), rel=1e-13)

    def test_large_argument_asymptote(self):
        # upper half-plane: w(z) = i/(sqrt(pi) z) (1 + 1/(2z^2) + 3/(4z^4) + ...);
        # three correction terms push the series truncation below 1e-12 here
        z = 100j
        series = 1.0 + 1.0 / (2 * z**2) + 3.0 / (4 * z**4) + 15.0 / (8 * z**6)
        assert faddeeva(z) == pytest.approx(
            1j / (np.sqrt(np.pi) * z) * series, rel=1e-10
        )

    def test_against_high_precision_oracle(self, rng):
        # all four quadrants, |z| <= 10 at 1e-12 and the outer ring at 1e-10
        r = np.sqrt(rng.uniform(0.0, 100.0, size=200))
        th = rng.uniform(0.0, 2.0 * np.pi, size=200)
        for z in r * np.exp(1j * th):
            ref = complex(reference.faddeeva(complex(z)))
            if abs(ref) > 1e280:
                continue  # |w| overflows double precision in the deep south
            assert abs(faddeeva(z) - ref) <= 1e-12 * max(abs(ref), 1e-300)
        r = np.sqrt(rng.uniform(100.0, 400.0, size=100))
        th = rng.uniform(0.0, 2.0 * np.pi, size=100)
        for z in r * np.exp(1j * th):
            ref = complex(reference.faddeeva(complex(z)))
            if abs(ref) > 1e280:
                continue
            assert abs(faddeeva(z) - ref) <= 1e-10 * abs(ref)

    def test_vectorized(self):
        z = np.array([0.0, 1j, 1.0 + 1.0j])
        out = faddeeva(z)
        assert out.shape == z.shape
        assert out[0] == pytest.approx(1.0)


class TestMFunction:
    def test_at_origin(self):
        assert m_function(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_half_faddeeva(self, rng):
        for _ in range(20):
            y = complex(rng.normal(), rng.normal())
            assert m_function(y) == pytest.approx(0.5 * faddeeva(1j * y), rel=1e-14)

    def test_symmetry_relation_small_disc(self, rng):
        # M(y) + M(-y) = e^{y^2}, residual scaled by the largest term
        r = np.sqrt(rng.uniform(0.0, 25.0, size=100))
        th = rng.uniform(0.0, 2.0 * np.pi, size=100)
        y = r * np.exp(1j * th)
        lhs = m_function(y) + m_function(-y)
        rhs = np.exp(y**2)
        scale = np.maximum(np.abs(rhs), np.abs(m_function(y)))
        assert float(np.max(np.abs(lhs - rhs) / scale)) < 1e-11

    def test_symmetry_relation_scaled_form(self, rng):
        # where e^{y^2} grows, compare M(y)e^{-y^2} + M(-y)e^{-y^2} = 1
        r = np.sqrt(rng.uniform(25.0, 400.0, size=100))
        th = rng.uniform(-np.pi / 5, np.pi / 5, size=100)  # Re(y^2) > 0 sector
        y = r * np.exp(1j * th)
        lhs = m_function_scaled(y) + m_function(-y) * np.exp(-(y**2))
        assert float(np.max(np.abs(lhs - 1.0))) < 1e-8

    def test_inverse_power_asymptote(self):
        # M(y) ~ 1/(2 sqrt(pi) y) (1 - 1/(2y^2) + 3/(4y^4)) for large y with
        # Re y > 0; the y^-4 term is 1.2e-7 at y = 50, needed for 1e-8
        y = 50.0
        lead = 1.0 / (2.0 * np.sqrt(np.pi) * y)
        expect = lead * (1.0 - 0.5 / y**2 + 0.75 / y**4)
        assert m_function(y) == pytest.approx(expect, rel=1e-8)

    def test_scaled_form_consistency(self, rng):
        for _ in range(30):
            y = complex(rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0))
            direct = m_function(y) * np.exp(-(y**2))
            assert m_function_scaled(y) == pytest.approx(direct, rel=1e-12)


class TestYArgument:
    def test_zero_time(self):
        assert y_values(0.3, 0.0, BETA) == 0.0

    def test_negative_time_rejected(self):
        for t in (-1e-9, np.nan, np.inf):
            with pytest.raises(DomainError):
                y_values(0.3, t, BETA)
            with pytest.raises(DomainError):
                y_values(0.3, np.array([0.1, t, 0.3]), BETA)

    def test_nonfinite_wave_number_rejected(self):
        for s in (np.nan, np.inf, complex(0.3, -np.inf)):
            for t in (0.3, np.array([0.1, 0.3])):
                with pytest.raises(DomainError, match="finite"):
                    y_values(s, t, BETA)

    def test_complex_time_rejected(self):
        for t in (0.1 + 0j, np.array([0.1, 0.2 + 1e-3j])):
            with pytest.raises(DomainError, match="real"):
                y_values(0.3, t, BETA)

    def test_phase_factor(self):
        assert Y_PHASE == pytest.approx(np.exp(3j * np.pi / 4.0), abs=1e-15)

    def test_construction(self):
        s, t = 0.21, 1.7
        assert y_values(s, t, BETA) == pytest.approx(
            Y_PHASE * np.sqrt(BETA) * s * np.sqrt(t), rel=1e-14
        )

    def test_y_squared_identity(self, rng):
        # y^2 = -i (hbar s^2 / 2m) t, so e^{y^2} is the evolution phase
        for _ in range(20):
            s = rng.uniform(0.05, 0.5)
            t = rng.uniform(0.01, 10.0)
            y = y_values(s, t, BETA)
            expect = -1j * BETA * s * s * t
            assert y * y == pytest.approx(expect, rel=1e-12)
            assert abs(np.exp(y * y)) == pytest.approx(1.0, rel=1e-12)

    def test_pole_argument_decays(self, triple_poles):
        # for a fourth-quadrant pole, |e^{y^2}| = e^{-Gamma t / 2 hbar} < 1
        p = triple_poles[0]
        t = 2.0
        y = y_values(p.k, t, BETA)
        expect = np.exp(-p.Gamma * t / (2.0 * HBAR_EV_PS))
        assert abs(np.exp(y * y)) == pytest.approx(expect, rel=1e-10)
        assert abs(np.exp(y * y)) < 1.0

    def test_continuity_at_zero_time(self):
        # M(y(k, t)) -> 1/2 as t -> 0, approaching like |y|/sqrt(pi)
        last = np.inf
        for t in (1e-6, 1e-9, 1e-12, 1e-15):
            y = y_values(0.3, t, BETA)
            gap = abs(m_function(y) - 0.5)
            assert gap <= 1.2 * abs(y) + 1e-15
            assert gap < last
            last = gap
        assert m_function(y_values(0.3, 0.0, BETA)) == pytest.approx(0.5, abs=1e-15)

    def test_y_values_vectorized(self):
        t = np.array([0.1, 0.2, 0.5])
        ys = y_values(0.3, t, BETA)
        assert ys.shape == t.shape
        for yi, ti in zip(ys, t):
            assert yi == pytest.approx(y_values(0.3, float(ti), BETA), rel=1e-14)
