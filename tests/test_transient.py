"""Exact shutter solution, doublet form, remainder term, and traces."""

import dataclasses
import gc
import os
import subprocess
import sys
import time
import weakref
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import qshutter
from conftest import FREE_PSI_PIN
from qshutter import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    DomainError,
    PoleError,
    build_profile,
    density_two_level,
    evolve_trace,
    find_poles,
    frequencies,
    make_problem,
    make_spectrum,
    parse_config,
    psi_exact,
    resolve_scenario,
    transmission,
)
from qshutter import mfunc, reference, transient
from qshutter.mfunc import m_function, y_values
from qshutter.model import HBAR_EV_PS
from qshutter.modes import rho
from qshutter.presets import DOUBLE_LAYERS, MASS_RATIO, TRIPLE_LAYERS
from qshutter.scattering import _locate, stationary_wave
from qshutter.transient import (
    METHODS,
    Spectrum,
    TransientTrace,
    free_shutter_psi,
    psi_doublet_M,
)


EPS = np.finfo(float).eps
# hbar/2m (nm^2/ps) at mass ratio 0.067
BETA = build_profile([(1.0, 0.0)], 0.067).hbar_over_2m


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), here with u = eps."""
    return n * EPS / (1 - n * EPS)


def reference_terms(problem, x, t, n_modes):
    """The rows and M(y_s) columns of the resonance expansion, in order.

    The incidence pair is Phi e^{-iEt/hbar} - 2 Re(Phi) M(y_-k), by
    M(y_k) = e^{y_k^2} - M(y_-k), with the columns that _block keeps.
    Each partner row is -rho_{-n}* by its definition, rho_{-n} = rho_n(x, -k),
    so the reference does not share psi_exact's shortcut rho_{-n} = -rho_n*.
    """
    beta, k = problem.profile.hbar_over_2m, problem.k
    t = np.asarray(t, dtype=float)
    phi = stationary_wave(problem.field, x)
    terms = [
        (phi, np.exp(-1j * (beta * k**2 * t))),
        (-2.0 * np.real(phi), m_function(y_values(-k, t, beta))),
    ]
    for mode in problem.modes[:n_modes]:
        k_n = mode.pole.k
        terms.append((-rho(mode, k, x), m_function(y_values(k_n, t, beta))))
        terms.append(
            (-np.conj(rho(mode, -k, x)), m_function(y_values(-np.conj(k_n), t, beta)))
        )
    return terms


def term_sum(terms):
    """The products row * column added one at a time, in order."""
    (row, column), *rest = terms
    psi = row * column
    for row, column in rest:
        psi = psi + row * column
    return psi


def dot_bound(terms):
    """2 gamma_{K+2} sum_j |r_j||M_j| for K terms: how far two sums of the
    same products in any order may lie apart, elementwise (the dot-product
    error bound, Higham 2002, section 3.1, for each of the two sums)."""
    size = sum(np.abs(row) * np.abs(column) for row, column in terms)
    return 2 * gamma(len(terms) + 2) * size


def assert_at_bound(got, problem, x, t, n_modes):
    """got lies within dot_bound of the term-by-term sum, elementwise."""
    terms = reference_terms(problem, x, t, n_modes)
    ref, bound = term_sum(terms), dot_bound(terms)
    assert np.shape(got) == np.shape(ref)
    assert np.all(np.abs(got - ref) <= bound)


def kept_exponentials(problem, x, t):
    """sum_{n=1,2} rho_n (e^{-iEt/hbar} - e^{-iE_n t/hbar}): the part of
    psi_doublet_M that the two-level reduction keeps."""
    hbar = HBAR_EV_PS
    t = np.asarray(t, dtype=float)
    kept = 0.0
    for mode in problem.modes[:2]:
        kept = kept + rho(mode, problem.k, x) * (
            np.exp(-1j * problem.E * t / hbar) - np.exp(-1j * mode.pole.E * t / hbar)
        )
    return kept


def delta_term(problem, x, t):
    """The remainder Delta(x, t) that the two-level reduction drops: all the
    M(y_{-k}) and M(y_{k_{-n}}) pieces of psi_doublet_M, decaying as an
    inverse power of t, and O(1) at small t, where it enforces Psi(0) = 0."""
    return psi_doublet_M(problem, x, t) - kept_exponentials(problem, x, t)


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
        # an energy that is not a real scalar
        for bad in (np.array([0.01]), [0.01], 0.01 + 0j, "0.01"):
            with pytest.raises(DomainError):
                make_problem(triple_profile, bad)

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


class TestSpectrumReuse:
    """make_spectrum keeps one spectrum per (profile, n_poles)."""

    @pytest.fixture
    def searches(self, monkeypatch):
        calls = []

        def counted(profile, N):
            calls.append((profile, N))
            return find_poles(profile, N)

        monkeypatch.setattr(transient, "find_poles", counted)
        make_spectrum.cache_clear()
        return calls

    def test_one_search_per_structure_across_energies(self, searches):
        layers = "".join(f"layer = {w} nm, {h} eV\n" for w, h in DOUBLE_LAYERS)
        text = layers + (
            f"mass_ratio = {MASS_RATIO}\nenergy = {{}}\nn_poles = 2\n"
            "t_max = 10 tau1\npoints = 20\nx = L\nmethods = exact-N\nout = t.csv\n"
        )
        a = resolve_scenario(parse_config(text.format("80 meV")))
        b = resolve_scenario(parse_config(text.format("E1 + 2*Gamma1")))
        assert len(searches) == 1
        assert a.problem.E != b.problem.E
        assert all(m is n for m, n in zip(a.problem.modes, b.problem.modes))

    def test_call_forms_share_one_entry(self, searches, triple_profile):
        first = make_spectrum(triple_profile)
        assert make_spectrum(triple_profile, 4) is first
        assert make_spectrum(triple_profile, n_poles=4) is first
        # the key is the profile's value, not its identity
        again = build_profile([(l.width, l.height) for l in triple_profile.layers], MASS_RATIO)
        assert make_spectrum(again) is first
        assert len(searches) == 1
        info = make_spectrum.cache_info()
        assert (info.hits, info.misses, info.currsize) == (3, 1, 1)

    def test_other_structure_searches_again(self, searches):
        layers = list(DOUBLE_LAYERS)
        base = build_profile(layers, MASS_RATIO)
        make_spectrum(base, 2)
        make_spectrum(base, 1)
        make_spectrum(build_profile(layers, 0.07), 2)
        make_spectrum(build_profile([(5.0, 0.24), *layers[1:]], MASS_RATIO), 2)
        assert [N for _, N in searches] == [2, 1, 2, 2]
        assert len(set(searches)) == 4

    def test_failed_search_is_not_kept(self, searches):
        # a thin low barrier whose T(E) seed heads for the imaginary axis
        profile = build_profile([(1.14, 0.08)], 0.1)
        errors = []
        for _ in range(2):
            with pytest.raises(PoleError) as err:
                make_spectrum(profile, 1)
            errors.append(err.value)
        assert type(errors[0]) is type(errors[1])
        assert str(errors[0]) == str(errors[1])
        assert len(searches) == 2 and make_spectrum.cache_info().currsize == 0

    def test_shared_mode_arrays_are_read_only(self, searches):
        mode = make_spectrum(build_profile(list(DOUBLE_LAYERS), MASS_RATIO), 1).modes[0]
        for array in (mode.coefficients, mode.q, mode.edges):
            with pytest.raises(ValueError):
                array[0] = 0.0


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

    def test_barrier_problem_without_modes_rejected(self, problem_ebar):
        # only a free profile's empty expansion is the free-shutter solution
        bare = dataclasses.replace(problem_ebar, modes=())
        with pytest.raises(DomainError, match="no modes for a non-free profile"):
            psi_exact(bare, bare.L, [0.1])

    def test_complex_x_and_t_rejected(self, problem_ebar):
        # not read as their real parts: every evaluator at x or t raises
        p = problem_ebar
        mode_1, mode_2 = p.modes[:2]
        freqs = frequencies(p.E, mode_1.pole, mode_2.pole)
        calls = [
            lambda x, t: psi_exact(p, x, t),
            lambda x, t: psi_doublet_M(p, x, t),
            lambda x, t: density_two_level(mode_1, mode_2, freqs, x, p.k, t),
        ]
        for call in calls:
            for x, t in ((np.array([10 + 5j]), 1.0), (10 + 0j, 1.0),
                         (10.0, np.array([1 + 1j])), (10.0, 1 + 0j)):
                with pytest.raises(DomainError):
                    call(x, t)
        for x in (np.array([10 + 5j]), 10 + 0j):
            with pytest.raises(DomainError):
                stationary_wave(p.field, x)
            with pytest.raises(DomainError):
                mode_1.u(x)
            with pytest.raises(DomainError):
                rho(mode_1, p.k, x)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: psi_exact(p, "1.0", [0.1]),
            lambda p: psi_exact(p, True, [0.1]),
            lambda p: psi_exact(p, 1.0, ["0.1"]),
            lambda p: evolve_trace(p, 1.0, ["0", "0.1"]),
            lambda p: evolve_trace(p, True, [0.0, 0.1]),
            lambda p: transmission(p.profile, True),
            lambda p: transmission(p.profile, "0.01"),
            lambda p: rho(p.modes[0], True, 1.0),
            lambda p: find_poles(p.profile, True),
        ],
        ids=[
            "psi_exact-str-x", "psi_exact-bool-x", "psi_exact-str-t",
            "evolve_trace-str-grid", "evolve_trace-bool-x", "transmission-bool-E",
            "transmission-str-E", "rho-bool-k", "find_poles-bool-N",
        ],
    )
    def test_bools_and_strings_are_not_numbers(self, problem_ebar, call):
        # neither parsed nor taken as 0 and 1: each raises as a complex value does
        with pytest.raises(DomainError):
            call(problem_ebar)

    def test_density_map_matches_per_x_loop(self, problem_ebar):
        # x and t broadcast: an (n_x, 1) column against n_t times is the map
        xs = np.linspace(0.0, problem_ebar.L, 40)
        t = np.linspace(0.01, 10.0 * problem_ebar.modes[0].pole.tau, 300)
        grid = psi_exact(problem_ebar, xs[:, None], t)
        loop = np.array([psi_exact(problem_ebar, x, t) for x in xs])
        assert grid.shape == (len(xs), len(t))
        assert np.max(np.abs(grid - loop)) <= 1e-13 * np.max(np.abs(loop))
        # one time against a column of positions, as an array or a list: the
        # same rows times one column, so it meets the map column at the bound
        column = psi_exact(problem_ebar, xs, t[7])
        assert_at_bound(column, problem_ebar, xs, t[7], len(problem_ebar.modes))
        assert_at_bound(grid[:, 7], problem_ebar, xs, t[7], len(problem_ebar.modes))
        assert np.array_equal(psi_exact(problem_ebar, list(xs), t[7]), column)

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
        E = float((0.142236183**2) * free_profile.hbar2_over_2m)
        problem = make_problem(free_profile, E, n_poles=0)
        got = psi_exact(problem, 0.5, 0.25)
        beta = free_profile.hbar_over_2m
        assert abs(got - free_shutter_psi(problem.k, 0.5, 0.25, beta)) == 0.0
        assert abs(got - FREE_PSI_PIN) < 1e-12

    def test_free_profile_broadcasts_over_x(self, free_profile):
        # x and t broadcast on the closed-form path as on the pole sums
        p = make_problem(free_profile, 0.01, n_poles=0)
        xs, t = np.linspace(0.0, 1.0, 4), np.linspace(0.1, 2.0, 5)
        grid = psi_exact(p, xs[:, None], t)
        assert grid.shape == (4, 5)
        for xi, row in zip(xs, grid):
            assert np.array_equal(row, psi_exact(p, float(xi), t))

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


# a map, per-x rows and a trace on the triple barrier at incidence energy E,
# on grids of even and odd length, then a map and a per-x row at N = 6 on a
# grid of 20001 times and one product of 100 rows, as bytes
THREADED_OUTPUTS = """
import sys
import numpy as np
from qshutter import build_profile, evolve_trace, make_spectrum, psi_exact
from qshutter.presets import MASS_RATIO, TRIPLE_LAYERS
from qshutter.transient import _product


def outputs(E):
    p = make_spectrum(build_profile(list(TRIPLE_LAYERS), MASS_RATIO), 4).at(E)
    xs = np.linspace(0.0, p.L, 200)
    chunks = []
    for n in (2000, 2001):
        t = np.linspace(0.01, 30.0 * p.modes[0].pole.tau, n)
        chunks.append(psi_exact(p, xs[:, None], t).tobytes())
        chunks.extend(psi_exact(p, x, t).tobytes() for x in xs[::40])
        trace = evolve_trace(p, p.L, t, ("exact-N", "two-level-M"))
        chunks.extend(d.tobytes() for d in trace.densities.values())
    # N = 6 on a grid past the 4096 times of one BLAS call
    q = make_spectrum(p.profile, 6).at(E)
    t = np.linspace(0.01, 30.0 * p.modes[0].pole.tau, 20001)
    chunks.append(psi_exact(q, xs[::20, None], t).tobytes())
    chunks.append(psi_exact(q, q.L, t).tobytes())
    # and one row of 100 entries (N = 49) on 4095 times: 819,000 floats, past
    # what OpenBLAS runs as one dgemv on one thread
    rng = np.random.default_rng(0)
    block = rng.standard_normal((100, 4095)) + 1j * rng.standard_normal((100, 4095))
    chunks.append(_product(rng.standard_normal(100), block).tobytes())
    return b"".join(chunks)


"""


def _count_x_work(monkeypatch) -> list:
    """The names of transient's _locate and _wave calls, in order."""
    calls = []
    for name in ("_locate", "_wave"):

        def counting(*args, name=name, original=getattr(transient, name)):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(transient, name, counting)
    return calls


def _hexes(values) -> list:
    return [(v.real.hex(), v.imag.hex()) for v in np.ravel(values).tolist()]


class TestEvaluator:
    """psi_exact and psi_doublet_M are partial sums of one expansion."""

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
                for got, n_modes in (
                    (psi_exact(p, x, tt), len(p.modes)),
                    (psi_doublet_M(p, x, tt), 2),
                ):
                    assert_at_bound(got, p, x, tt, n_modes)
                    if np.ndim(got) == 0:
                        assert type(got) is complex

    def test_per_x_at_every_interface(self, problems):
        # an interface belongs to the layer on its right, x = L to the last
        for p in problems:
            edges = p.profile.edges
            n_layers = len(p.profile.layers)
            layers, _ = _locate(edges, edges)
            assert layers.tolist() == [*range(n_layers), n_layers - 1]
            t = np.linspace(0.01, 20.0, 101) * p.modes[0].pole.tau
            for x in edges:
                for n_modes, got in (
                    (len(p.modes), psi_exact(p, x, t)),
                    (2, psi_doublet_M(p, x, t)),
                ):
                    assert_at_bound(got, p, x, t, n_modes)

    def test_scalar_x_and_t_match_the_reference_to_the_bound(self, problems):
        for p in problems:
            tau_1 = p.modes[0].pole.tau
            for x in np.linspace(0.0, p.L, 7):
                for t in (0.01 * tau_1, 0.3 * tau_1, 20.0 * tau_1):
                    for n_modes, got in (
                        (len(p.modes), psi_exact(p, x, t)),
                        (2, psi_doublet_M(p, x, t)),
                    ):
                        assert type(got) is complex
                        assert_at_bound(got, p, x, t, n_modes)

    def test_the_bound_sees_one_row_off_by_1e_12(self, problem_ebar):
        p = problem_ebar
        t = np.linspace(0.01, 20.0, 101) * p.modes[0].pole.tau
        terms = reference_terms(p, p.L, t, len(p.modes))
        (phi, column), *rest = terms
        off = term_sum([(phi * (1.0 + 1e-12), column), *rest])
        assert not np.all(np.abs(off - term_sum(terms)) <= dot_bound(terms))
        assert_at_bound(psi_exact(p, p.L, t), p, p.L, t, len(p.modes))

    def test_sums_lie_within_the_bound_of_a_50_digit_sum(self, problem_ebar):
        # the same double rows and columns, multiplied and added at 50 digits
        p = problem_ebar
        tau_1 = p.modes[0].pole.tau
        for x in (0.0, 0.5 * p.L, p.L):
            for t in (0.01 * tau_1, 0.3 * tau_1, 20.0 * tau_1):
                terms = reference_terms(p, x, t, len(p.modes))
                bound = dot_bound(terms) / 2
                with mp.workdps(50):
                    exact = mp.fsum(mp.mpc(complex(r)) * mp.mpc(complex(m)) for r, m in terms)
                    for got in (psi_exact(p, x, t), term_sum(terms)):
                        assert abs(mp.mpc(complex(got)) - exact) <= bound

    def test_pairs_and_column_grids(self, problems, monkeypatch):
        # x and t of one length are taken as pairs, which no matrix product
        # serves; a 0-d x against an (n, 1) grid is one product, reshaped
        calls = []
        einsum = np.einsum

        def counting(*args):
            calls.append(len(args))
            return einsum(*args)

        monkeypatch.setattr(np, "einsum", counting)
        for p in problems:
            tau_1 = p.modes[0].pole.tau
            xs = np.linspace(0.0, p.L, 7)
            ts = np.linspace(0.01 * tau_1, 20.0 * tau_1, 7)
            for n_modes, evaluate in ((len(p.modes), psi_exact), (2, psi_doublet_M)):
                del calls[:]
                pairs = evaluate(p, xs, ts)
                assert len(calls) == 1
                assert_at_bound(pairs, p, xs, ts, n_modes)
                column = evaluate(p, 0.4 * p.L, ts[:, None])
                assert len(calls) == 1
                assert column.shape == (len(ts), 1)
                assert_at_bound(column, p, 0.4 * p.L, ts[:, None], n_modes)

    def test_bytes_do_not_depend_on_blas_threads(self, problem_ebar):
        # the same code in this process and in a fresh interpreter whose BLAS
        # runs one thread
        namespace = {}
        exec(THREADED_OUTPUTS, namespace)
        here = namespace["outputs"](problem_ebar.E)
        package_root = str(Path(qshutter.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (package_root, path))),
            "OPENBLAS_NUM_THREADS": "1",
        }
        code = THREADED_OUTPUTS + "sys.stdout.buffer.write(outputs(float(sys.argv[1])))\n"
        proc = subprocess.run(
            [sys.executable, "-c", code, repr(problem_ebar.E)], capture_output=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == here

    def test_per_x_call_locates_x_once(self, problem_ebar, monkeypatch):
        # one lookup, then Phi and each u_n; every rho_-n comes from its rho_n.
        # A fresh problem: the session's problem may keep this x's rows already
        calls = _count_x_work(monkeypatch)
        p = make_spectrum(problem_ebar.profile, 4).at(problem_ebar.E)
        assert len(p.modes) == 4
        psi_exact(p, 0.5 * p.L, np.linspace(0.01, 10.0, 50))
        assert calls.count("_locate") == 1
        assert calls.count("_wave") == 1 + len(p.modes)

    def test_trace_sums_the_expansion_once(self, problem_ebar, monkeypatch):
        # exact-N and two-level-M share one pass: 1 + 2N M columns (the k pair
        # takes one), not 1 + 2N + 5
        calls = []

        def counting(y):
            calls.append(np.shape(y))
            return m_function(y)

        p = problem_ebar
        times = np.linspace(0.0, 10.0 * p.modes[0].pole.tau, 2000)
        # an earlier test on this grid would leave its columns in the memo
        psi_exact.cache_clear()
        monkeypatch.setattr(transient, "m_function", counting)
        trace = evolve_trace(p, p.L, times, (METHOD_EXACT, METHOD_TWO_LEVEL_M))
        assert len(calls) == 1 + 2 * len(p.modes)
        monkeypatch.undo()
        exact = np.abs(psi_exact(p, p.L, times[1:])) ** 2
        doublet = np.abs(psi_doublet_M(p, p.L, times[1:])) ** 2
        assert np.array_equal(trace.densities[METHOD_EXACT][1:], exact)
        assert np.array_equal(trace.densities[METHOD_TWO_LEVEL_M][1:], doublet)


class TestColumnMemo:
    """psi_exact's memo keeps the x-independent M(y_s) columns of a grid."""

    @pytest.fixture(autouse=True)
    def empty_memo(self):
        # the memo is module state: an earlier test may have kept these grids
        psi_exact.cache_clear()

    @pytest.fixture
    def times(self, problem_ebar):
        return np.linspace(0.01, 10.0 * problem_ebar.modes[0].pole.tau, 2000)

    @pytest.fixture
    def wofz_calls(self, monkeypatch):
        """The argument shape of every wofz call: one call per column evaluated,
        1 + 2N for a problem's whole block (its k pair takes one, M(y_-k))."""
        calls = []
        wofz = mfunc._wofz()

        def counting(z):
            calls.append(np.shape(z))
            return wofz(z)

        monkeypatch.setattr(mfunc, "_WOFZ", counting)
        return calls

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Every block of M(y_s) columns that _block returns, in call order."""
        returned = []
        block = transient._block

        def recording(*args):
            returned.append(block(*args))
            return returned[-1]

        monkeypatch.setattr(transient, "_block", recording)
        return returned

    def test_per_x_loop_evaluates_each_column_once(self, problem_ebar, times, wofz_calls):
        p = problem_ebar
        for x in np.linspace(0.0, p.L, 200):
            psi_exact(p, x, times)
        assert wofz_calls == [times.shape] * (1 + 2 * len(p.modes))
        # one miss: the grid is checked once, when it is built
        info = psi_exact.cache_info()
        assert (info.hits, info.misses) == (199, 1)

    def test_per_x_rows_equal_the_broadcast_call(self, problem_ebar, times, wofz_calls):
        p = problem_ebar
        n = len(p.modes)
        xs = np.linspace(0.0, p.L, 200)
        rows = np.array([psi_exact(p, x, times) for x in xs])
        broadcast = psi_exact(p, xs[:, None], times)
        # one grid for the loop and the broadcast call, each column evaluated once
        assert wofz_calls == [times.shape] * (1 + 2 * n)
        info = psi_exact.cache_info()
        assert (info.hits, info.misses) == (len(xs), 1)
        # both forms sum the same products, each to the dot-product bound
        for x, row in zip(xs, rows):
            assert_at_bound(row, p, x, times, n)
        assert_at_bound(broadcast, p, xs[:, None], times, n)
        assert np.max(np.abs(rows - broadcast)) <= 1e-14 * np.max(np.abs(rows))

    def test_failing_grid_is_checked_again_and_not_kept(self, problem_ebar, times):
        p = problem_ebar
        psi_exact(p, p.L, times)
        before = psi_exact.cache_info()
        bad = np.concatenate(([0.0], times[1:]))
        for _ in range(2):
            with pytest.raises(DomainError):
                psi_exact(p, p.L, bad)
        after = psi_exact.cache_info()
        assert after.misses == before.misses + 2
        assert after.currsize == before.currsize

    def test_doublet_form_reuses_the_columns(self, problem_ebar, times, wofz_calls):
        p = problem_ebar
        psi_exact(p, p.L, times)
        evaluated = len(wofz_calls)
        assert evaluated == 1 + 2 * len(p.modes)
        doublet = psi_doublet_M(p, p.L, times)
        assert len(wofz_calls) == evaluated
        assert_at_bound(doublet, p, p.L, times, 2)

    def test_cache_clear_empties_the_memo(self, problem_ebar, times, wofz_calls):
        p = problem_ebar
        psi_exact(p, p.L, times)
        assert psi_exact.cache_info().currsize == 1
        psi_exact.cache_clear()
        assert psi_exact.cache_info().currsize == 0
        # so the next call evaluates every column again
        psi_exact(p, p.L, times)
        assert wofz_calls == [times.shape] * (2 * (1 + 2 * len(p.modes)))

    def test_block_holds_each_pair_as_difference_and_sum(self, problem_ebar, times):
        # the rows D_j = C_2j - C_2j+1 and S_j = i (C_2j + C_2j+1) of the
        # m_function columns, bit for bit, against the real rows of an x:
        # [Re Phi, Im Phi, -Re rho_1, -Im rho_1, ...]; the k pair's from one
        # column, as M(y_k) = e^{-iEt/hbar} - M(y_-k): (e - 2 C', i e)
        p = problem_ebar
        psi_exact(p, p.L, times)
        key = transient._GridKey(times.tobytes())
        block = transient._grid(times.shape, key, p.profile.hbar_over_2m).block
        s, beta = p._wave_numbers, p.profile.hbar_over_2m
        assert block.shape == (len(s), *times.shape) and block.dtype == complex
        wave = np.exp(-1j * (beta * p.k**2 * times))
        minus = m_function(y_values(-p.k, times, beta))
        assert block[0].tobytes() == (wave - 2.0 * minus).tobytes()
        assert block[1].tobytes() == (1j * wave).tobytes()
        for j in range(2, len(s), 2):
            plus, minus = (m_function(y_values(w, times, beta)) for w in s[j : j + 2])
            assert block[j].tobytes() == (plus - minus).tobytes()
            assert block[j + 1].tobytes() == (1j * (plus + minus)).tobytes()
        row = p._x_rows[p.L]
        assert row.dtype == float and row.shape == (len(s),)
        coefficients = [stationary_wave(p.field, p.L)] + [-rho(m, p.k, p.L) for m in p.modes]
        assert np.allclose(row[::2] + 1j * row[1::2], coefficients, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("structure", ["triple", "double"])
    def test_k_pair_meets_a_50_digit_reference(
        self, triple_spectrum, ebar, double_profile, structure
    ):
        # rows 0-1 against D_0 = M(y_k) - M(y_-k) and S_0 = i (M(y_k) + M(y_-k))
        # at 50 digits, from the same doubles (beta, k, t), from 1e-6 ps to
        # 40 tau_1.  Measured worst relative errors: 1.1e-13 (triple barrier,
        # doublet center) and 2.2e-13 (double barrier, E_1 + 3.515 Gamma_1),
        # against 7.0e-13 and 1.2e-12 for the rows of the two wofz columns
        if structure == "triple":
            p = triple_spectrum.at(ebar)
        else:
            double = make_spectrum(double_profile, 2)
            p = double.at(double.poles[0].E_position + 3.515 * double.poles[0].Gamma)
        beta, k = p.profile.hbar_over_2m, p.k
        t = np.geomspace(1e-6, 40.0 * p.modes[0].pole.tau, 60)
        psi_exact(p, p.L, t)
        block = transient._grid(t.shape, transient._GridKey(t.tobytes()), beta).block
        with mp.workdps(50):
            phase = mp.expjpi(mp.mpf(3) / 4) * mp.sqrt(mp.mpf(beta))
            plus, minus = (
                [reference.faddeeva(1j * phase * mp.mpf(w) * mp.sqrt(mp.mpf(ti))) / 2 for ti in t]
                for w in (k, -k)
            )
            rows = ([a - b for a, b in zip(plus, minus)], [1j * (a + b) for a, b in zip(plus, minus)])

            def worst(*got):
                return max(
                    float(abs(mp.mpc(complex(g)) - r) / abs(r))
                    for row, ref in zip(got, rows)
                    for g, r in zip(row, ref)
                )

            new = worst(block[0], block[1])
            c, c_minus = (m_function(y_values(w, t, beta)) for w in (k, -k))
            two_wofz = worst(c - c_minus, 1j * (c + c_minus))
        assert new < 5e-13 and new <= two_wofz

    def test_cache_clear_drops_the_kept_block(self, problem_ebar, times, blocks):
        p = problem_ebar
        psi_exact(p, p.L, times)
        cleared = weakref.ref(blocks.pop())
        psi_exact.cache_clear()
        assert psi_exact.cache_info().currsize == 0
        # the block went with its grid
        gc.collect()
        assert cleared() is None
        # so the next call stacks a fresh block, which the call after it reuses
        psi_exact(p, p.L, times)
        psi_exact(p, 0.5 * p.L, times)
        assert blocks[0].shape == (2 + 2 * len(p.modes), *times.shape)
        assert blocks[1] is blocks[0]

    def test_alternating_grids_stack_each_block_once(self, problem_ebar, times, blocks):
        p = problem_ebar
        grids = (times, times[:1000])
        for x in np.linspace(0.0, p.L, 20):
            for t in grids:
                psi_exact(p, x, t)
        # each grid keeps its own block: two stacked, each returned on every call
        assert len({id(block) for block in blocks}) == 2
        assert all(block is blocks[i % 2] for i, block in enumerate(blocks))
        assert [block.shape[-1] for block in blocks[:2]] == [len(t) for t in grids]

    def test_a_pole_set_keeps_blocks_on_its_two_latest_grids(
        self, triple_spectrum, problem_ebar, times, blocks
    ):
        p = problem_ebar
        windows = [times + 1e-3 * r for r in range(5)]
        grids = [
            transient._grid(w.shape, transient._GridKey(w.tobytes()), p.profile.hbar_over_2m)
            for w in windows
        ]
        xs = np.linspace(0.0, p.L, 5)
        # one problem stepped through four fresh windows, a per-x loop on each
        for w in windows[:4]:
            for x in xs:
                psi_exact(p, x, w)
        stacked = [weakref.ref(block) for block in blocks[:: len(xs)]]
        assert len({id(block) for block in blocks}) == len(stacked) == 4
        blocks.clear()
        gc.collect()
        # the first two blocks are freed; their grids stay kept, times and all
        assert [ref() is None for ref in stacked] == [True, True, False, False]
        assert [grid.s for grid in grids[:4]] == [(), (), p._wave_numbers, p._wave_numbers]
        assert psi_exact.cache_info().currsize == 5
        assert all(np.array_equal(grid.t, w) for grid, w in zip(grids, windows))
        # a second energy of the same spectrum on a fifth window drops the
        # third grid's block and keeps the fourth
        r = triple_spectrum.at(triple_spectrum.poles[1].E_position)
        assert r._wave_numbers[2:] == p._wave_numbers[2:]
        psi = psi_exact(r, r.L, windows[4])
        gc.collect()
        assert [ref() is None for ref in stacked] == [True, True, True, False]
        assert [grid.s for grid in grids[2:]] == [(), p._wave_numbers, r._wave_numbers]
        assert_at_bound(psi, r, r.L, windows[4], len(r.modes))

    def test_another_pole_set_on_a_grid_leaves_the_two_block_bound(
        self, problem_ebar, double_profile, times
    ):
        # P (triple, N = 4) on W0 and W1, Q (double, N = 2) on W1, then P on
        # W2 and W3: Q's block replaces P's on W1, and P's stack on W3 drops
        # its block on W0, whose grid stays kept with its times
        p = problem_ebar
        double = make_spectrum(double_profile, 2)
        q = double.at(double.poles[0].E_position)
        beta = p.profile.hbar_over_2m
        assert q.profile.hbar_over_2m == beta
        windows = [times + 1e-3 * r for r in range(4)]
        grids = [transient._grid(w.shape, transient._GridKey(w.tobytes()), beta) for w in windows]
        calls = [(p, 0), (p, 1), (q, 1), (p, 2), (p, 3)]
        got = [psi_exact(r, r.L, windows[i]) for r, i in calls]
        assert [grid.s for grid in grids] == [(), q._wave_numbers, p._wave_numbers, p._wave_numbers]
        assert psi_exact.cache_info().currsize == 4
        again = [transient._grid(w.shape, transient._GridKey(w.tobytes()), beta) for w in windows]
        assert all(a is b for a, b in zip(again, grids))
        assert all(np.array_equal(grid.t, w) for grid, w in zip(grids, windows))
        # each result has the bits of the same call on an emptied memo
        for (r, i), psi in zip(calls, got):
            psi_exact.cache_clear()
            assert np.array_equal(psi, psi_exact(r, r.L, windows[i]))

    def test_kept_columns_are_stored_once(self, triple_spectrum, times, wofz_calls):
        p = triple_spectrum.at(triple_spectrum.poles[0].E_position)
        key = transient._GridKey(times.tobytes())
        grid = transient._grid(times.shape, key, p.profile.hbar_over_2m)
        xs = np.linspace(0.0, p.L, 20)
        first = [psi_exact(p, x, times) for x in xs]
        assert grid.s == p._wave_numbers
        block, poles = grid.block, grid.block[2:].copy()
        # a second energy of the pole set writes its k pair, one column, into
        # the same block, whose pole columns stay where they are
        del wofz_calls[:]
        r = triple_spectrum.at(triple_spectrum.poles[1].E_position)
        psi = psi_exact(r, r.L, times)
        assert wofz_calls == [times.shape]
        assert grid.s == r._wave_numbers and grid.block is block
        assert not block.flags.writeable and np.array_equal(block[2:], poles)
        assert_at_bound(psi, r, r.L, times, len(r.modes))
        # the first energy writes its own back, with the bits of its first calls
        del wofz_calls[:]
        again = [psi_exact(p, x, times) for x in xs]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        assert grid.block is block and wofz_calls == [times.shape]

    @pytest.mark.parametrize("change", ["more poles", "another profile"])
    def test_new_pole_set_stacks_a_new_block(
        self, triple_spectrum, double_profile, times, wofz_calls, change
    ):
        # an N = 2 problem then an N = 4 one of the same profile, or two
        # profiles, on one grid: the second call stacks a whole block of its
        # own, as the pole sets differ, and has the bits of its call on an
        # emptied memo
        p = make_spectrum(triple_spectrum.profile, 2).at(triple_spectrum.poles[0].E_position)
        if change == "more poles":
            q = triple_spectrum.at(triple_spectrum.poles[1].E_position)
        else:
            double = make_spectrum(double_profile, 2)
            q = double.at(double.poles[0].E_position)
        fresh = psi_exact(q, q.L, times)
        psi_exact.cache_clear()
        del wofz_calls[:]
        key = transient._GridKey(times.tobytes())
        grid = transient._grid(times.shape, key, p.profile.hbar_over_2m)
        psi_exact(p, p.L, times)
        old = grid.block
        del wofz_calls[:]
        psi = psi_exact(q, q.L, times)
        # its own M(y_-k) and its pole columns: the triple's 1-4, or the double's 1-2
        assert wofz_calls == [times.shape] * (1 + 2 * len(q.modes))
        assert np.array_equal(psi, fresh)
        assert grid.block is not old and grid.block.shape == (len(q._wave_numbers), *times.shape)
        assert not grid.block.flags.writeable and not old.flags.writeable

    def test_grid_shape_is_part_of_the_key(self, problem_ebar, times, wofz_calls):
        p = problem_ebar
        column_grid = times[:, None]
        assert column_grid.tobytes() == times.tobytes()
        flat = psi_exact(p, p.L, times)
        column = psi_exact(p, p.L, column_grid)
        n_columns = 1 + 2 * len(p.modes)
        assert wofz_calls == [times.shape] * n_columns + [column_grid.shape] * n_columns
        assert flat.shape == times.shape and column.shape == column_grid.shape
        assert np.array_equal(column[:, 0], flat)
        assert_at_bound(flat, p, p.L, times, len(p.modes))

    def test_columns_are_read_only(self, triple_spectrum, problem_ebar, times):
        p = problem_ebar
        key = transient._GridKey(times.tobytes())
        grid = transient._grid(times.shape, key, p.profile.hbar_over_2m)
        # two more energies before p's, each written into the block in place
        for pole in triple_spectrum.poles[:2]:
            r = triple_spectrum.at(pole.E_position)
            psi_exact(r, r.L, times)
        psi_exact(p, p.L, times)
        assert grid.s == p._wave_numbers and not grid.block.flags.writeable
        with pytest.raises(ValueError):
            grid.block[0] = 0.0

    def test_mass_ratio_is_part_of_the_key(self, triple_profile, ebar, times, wofz_calls):
        # a doubled mass ratio at half the energy has the same k, bit for bit,
        # so only hbar/2m in the key, which the mass ratio sets, tells the two
        # M(y_k) columns apart
        light = make_spectrum(triple_profile, 2).at(ebar)
        assert triple_profile.mass_ratio == MASS_RATIO
        heavy_profile = build_profile(list(TRIPLE_LAYERS), 2 * MASS_RATIO)
        assert heavy_profile.layers == triple_profile.layers
        heavy = make_spectrum(heavy_profile, 2).at(ebar / 2)
        assert heavy.k == light.k
        problems = (light, heavy, light)
        results = [psi_exact(p, p.L, times) for p in problems]
        # the heavy grid evaluates its own M(y_-k); light's stay kept
        assert wofz_calls == [times.shape] * (2 * (1 + 2 * 2))
        for p, psi in zip(problems, results):
            assert_at_bound(psi, p, p.L, times, 2)

    def test_grid_past_the_point_cap_is_not_kept(self, problem_ebar, times, wofz_calls):
        p = problem_ebar
        psi_exact(p, p.L, times)
        kept = psi_exact.cache_info().currsize
        big = np.linspace(0.01, 10.0 * p.modes[0].pole.tau, 5000)
        first = psi_exact(p, p.L, big)
        assert psi_exact.cache_info().currsize == kept
        assert np.array_equal(psi_exact(p, p.L, big), first)
        # both calls on the big grid evaluate every column
        n_columns = 1 + 2 * len(p.modes)
        assert wofz_calls == [times.shape] * n_columns + [big.shape] * (2 * n_columns)

    def test_new_energy_on_a_kept_grid_evaluates_only_its_k_columns(
        self, triple_spectrum, double_profile, times, wofz_calls
    ):
        p = triple_spectrum.at(triple_spectrum.poles[0].E_position)
        psi_exact(p, p.L, times)
        # another profile's columns pass through on six grids of its own
        double = make_spectrum(double_profile, 2)
        q = double.at(double.poles[0].E_position)
        for end in range(1, 7):
            psi_exact(q, q.L, np.linspace(0.01, end, 50))
        assert len(wofz_calls) == 1 + 2 * len(p.modes) + 6 * 5
        del wofz_calls[:]
        # the triple barrier's pole columns are still kept on its grid
        r = triple_spectrum.at(triple_spectrum.poles[1].E_position)
        psi = psi_exact(r, r.L, times)
        assert wofz_calls == [times.shape]
        assert_at_bound(psi, r, r.L, times, len(r.modes))

    def test_column_bound_holds_between_calls(
        self, triple_spectrum, problem_ebar, times, wofz_calls
    ):
        # a grid holds one block of 2 + 2N columns, whatever number of
        # energies of its pole set pass through: no earlier energy's k pair
        # is kept beside it
        p = problem_ebar
        assert len(p.modes) == 4
        key = transient._GridKey(times.tobytes())
        grid = transient._grid(times.shape, key, p.profile.hbar_over_2m)
        xs = np.linspace(0.0, p.L, 50)
        rows = [psi_exact(p, x, times) for x in xs]
        assert wofz_calls == [times.shape] * 9
        assert grid.block.shape == (10, *times.shape)
        block = grid.block
        # each new energy evaluates its M(y_-k) and writes its pair in place
        energies = [pole.E_position for pole in triple_spectrum.poles[:2]]
        others = [triple_spectrum.at(E) for E in energies]
        for r in others:
            psi_exact(r, r.L, times)
            assert grid.block is block and grid.block.shape == (10, *times.shape)
        assert wofz_calls == [times.shape] * 11
        # so p evaluates its one column again, with the bits of its first calls
        again = psi_exact(p, p.L, times)
        assert wofz_calls == [times.shape] * 12
        assert grid.block is block and grid.s == p._wave_numbers
        assert np.array_equal(again, rows[-1])
        for x, row in list(zip(xs, rows))[::10]:
            assert_at_bound(row, p, x, times, 4)

    def test_new_energy_past_the_bound_evaluates_only_its_k_columns(
        self, triple_spectrum, times, wofz_calls
    ):
        # 13 energies of one pole set on a kept grid: the first evaluates
        # 1 + 2N columns and each later one its M(y_-k) alone, and the 14th,
        # past the 32 columns a grid once kept, evaluates only its own too
        poles = triple_spectrum.poles
        energies = np.linspace(poles[0].E_position, poles[1].E_position, 14)
        n = len(triple_spectrum.at(energies[0]).modes)
        for E in energies[:-1]:
            p = triple_spectrum.at(E)
            psi_exact(p, p.L, times)
        assert len(wofz_calls) == 1 + 2 * n + 12
        del wofz_calls[:]
        r = triple_spectrum.at(energies[-1])
        psi = psi_exact(r, r.L, times)
        assert wofz_calls == [times.shape]
        assert_at_bound(psi, r, r.L, times, len(r.modes))

    def test_energies_on_one_grid_evaluate_only_what_is_not_kept(
        self, triple_spectrum, times, wofz_calls
    ):
        poles = triple_spectrum.poles
        assert len(poles) == 4
        energies = np.linspace(poles[0].E_position, poles[1].E_position, 13)
        p, q, r, *others = [triple_spectrum.at(E) for E in energies]

        def evaluated(*calls):
            del wofz_calls[:]
            for f, problem, x in calls:
                f(problem, x, times)
            assert set(wofz_calls) <= {times.shape}
            return len(wofz_calls)

        def trace(problem, x, t):
            return evolve_trace(problem, x, t, (METHOD_EXACT,))

        # a per-x loop evaluates M(y_-k) and the 2N pole columns once
        assert evaluated(*[(psi_exact, p, x) for x in np.linspace(0.0, p.L, 50)]) == 9
        # a new energy on the same poles evaluates its M(y_-k) alone
        assert evaluated((psi_exact, q, q.L)) == 1
        # and so does a returning energy: no earlier energy's column is kept
        assert evaluated((psi_exact, p, 0.5 * p.L)) == 1
        # the doublet form and a whole trace at one new energy: its column, once
        assert evaluated((psi_doublet_M, r, r.L), (trace, r, r.L)) == 1
        assert evaluated(*[(psi_exact, s, s.L) for s in others]) == len(others) == 10
        assert evaluated((psi_exact, q, q.L)) == 1

    def test_grids_whose_hashes_collide_stay_apart(self, problem_ebar, wofz_calls):
        p = problem_ebar
        a = np.linspace(0.01, 10.0, 50)
        b = a.copy()
        b[20:30] += 0.01
        # equal length and equal first and last 64 bytes: one hash, two grids
        keys = [transient._GridKey(t.tobytes()) for t in (a, b)]
        assert hash(keys[0]) == hash(keys[1]) and keys[0] != keys[1]
        results = [psi_exact(p, p.L, t) for t in (a, b)]
        assert wofz_calls == [a.shape] * (2 * (1 + 2 * len(p.modes)))
        assert psi_exact.cache_info().currsize == 2
        assert not np.array_equal(*results)
        for t, psi in zip((a, b), results):
            assert_at_bound(psi, p, p.L, t, len(p.modes))


class TestRowMemo:
    """A problem keeps the x rows of each scalar x it has evaluated."""

    @pytest.fixture
    def fresh(self, triple_spectrum, ebar):
        """A new problem at the doublet center each call: nothing kept yet."""
        return lambda: triple_spectrum.at(ebar)

    @pytest.fixture
    def times(self, problem_ebar):
        return np.linspace(0.01, 10.0 * problem_ebar.modes[0].pole.tau, 50)

    def test_second_call_at_one_x_reuses_its_rows(self, fresh, times, monkeypatch):
        p, q = fresh(), fresh()
        x = 0.37 * p.L
        first = [f(p, x, times) for f in (psi_exact, psi_doublet_M)]
        calls = _count_x_work(monkeypatch)
        again = [f(p, x, times) for f in (psi_exact, psi_doublet_M)]
        # a 0-d array and a numpy float at the same x share the key
        again += [psi_exact(p, f(x), times) for f in (np.array, np.float64)]
        assert calls == []
        monkeypatch.undo()
        reference = [f(q, x, times) for f in (psi_exact, psi_doublet_M)]
        for got in (first, again[:2]):
            assert [_hexes(v) for v in got] == [_hexes(v) for v in reference]
        assert _hexes(again[2]) == _hexes(again[3]) == _hexes(reference[0])
        # one entry per position, keyed by its float, whatever the mode
        # count of the call: the read-only 2 + 2N rows of the whole expansion
        assert list(p._x_rows) == [x] and type(x) is float
        rows = p._x_rows[x]
        assert not rows.flags.writeable and rows.shape == (2 + 2 * len(p.modes),)

    def test_array_x_is_never_kept(self, fresh, times):
        p = fresh()
        # pairs, a map and a one-entry array
        xs = np.linspace(0.0, p.L, len(times))
        for x in (xs, xs[:, None], xs[:1]):
            psi_exact(p, x, times)
            psi_doublet_M(p, x, times)
        # a trace's scalar x is kept, with the rows of every mode
        evolve_trace(p, p.L, times, METHODS)
        assert list(p._x_rows) == [p.L]
        assert p._x_rows[p.L].shape == (2 + 2 * len(p.modes),)

    def test_rejected_x_raises_on_every_call_and_keeps_nothing(self, fresh, times):
        p = fresh()
        for x in (np.nan, -1.0, p.L + 1.0, 0.5 + 0j):
            for _ in range(2):
                for f in (psi_exact, psi_doublet_M):
                    with pytest.raises(DomainError):
                        f(p, x, times)
        assert p._x_rows == {}

    def test_a_kept_position_refuses_what_a_cold_call_refuses(self, fresh, times):
        p, q = fresh(), fresh()
        x = 0.37 * p.L
        # x, and 1.0 = float(True), are kept, and so is the grid of times
        for kept in (x, 1.0):
            psi_exact(p, kept, times)
        nan_t = times.copy()
        nan_t[3] = np.nan
        for t in (True, "0.5", times > 0, nan_t):
            with pytest.raises(DomainError):
                psi_exact(p, x, t)
        for bad in (True, str(x), x + 0j):
            with pytest.raises(DomainError):
                psi_exact(p, bad, times)
        # other real types, at kept and new positions, give the cold call's bits
        for y in (1, 2, np.array(x), np.array(0.5 * p.L), np.float32(x)):
            assert _hexes(psi_exact(p, y, times)) == _hexes(psi_exact(q, float(y), times))

    def test_signed_zeros_share_a_key_and_their_bits(self, fresh, times):
        p, q = fresh(), fresh()
        first = [psi_exact(p, x, times) for x in (-0.0, 0.0)]
        second = [psi_exact(q, x, times) for x in (0.0, -0.0)]
        assert len(p._x_rows) == len(q._x_rows) == 1
        assert len({tuple(_hexes(v)) for v in first + second}) == 1

    def test_positions_past_the_cap_are_evaluated_and_not_kept(
        self, fresh, times, monkeypatch
    ):
        monkeypatch.setattr(transient, "_COLUMN_MEMO_POINTS", 3)
        p = fresh()
        xs = np.linspace(0.0, p.L, 5)
        # the cap counts positions: the doublet form shares its position's entry
        first = []
        for x in xs:
            psi_doublet_M(p, x, times)
            first.append(psi_exact(p, x, times))
        assert list(p._x_rows) == list(xs[:3])
        calls = _count_x_work(monkeypatch)
        again = [psi_exact(p, x, times) for x in xs]
        # the kept three are hits, the other two are evaluated again
        assert calls == (["_locate"] + ["_wave"] * 5) * 2
        assert [_hexes(v) for v in again] == [_hexes(v) for v in first]


class TestFreeShutterPsi:
    def test_oracle_pin(self):
        psi = free_shutter_psi(0.142236183, 0.5, 0.25, BETA)
        assert abs(psi - FREE_PSI_PIN) < 1e-13

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            free_shutter_psi(0.1, 0.5, 0.0, BETA)
        with pytest.raises(DomainError):
            free_shutter_psi(0.1, 0.5, np.nan, BETA)
        with pytest.raises(DomainError):
            free_shutter_psi(0.1, 0.5, np.inf, BETA)
        # a non-finite x or k, or an x outside the documented x >= 0
        bad = (
            (0.1, np.nan), (np.nan, 0.5), (0.1, -1.0), (0.1, np.inf), (0.1, np.array([0.5, -1.0]))
        )
        for k, x in bad:
            with pytest.raises(DomainError):
                free_shutter_psi(k, x, 0.25, BETA)


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

    def test_times_are_the_traces_own_read_only_copy(self, problem_ebar):
        # an edit of the caller's grid must not rewrite trace.times, which
        # would no longer match the densities
        t = np.linspace(0.0, 5.0, 11)
        trace = evolve_trace(problem_ebar, problem_ebar.L, t)
        t[:] = 0.0
        assert trace.times is not t
        np.testing.assert_array_equal(trace.times, np.linspace(0.0, 5.0, 11))
        with pytest.raises(ValueError):
            trace.times[0] = 1.0

    def test_densities_are_read_only(self):
        # a curve swapped in after the trace is built would skip its shape rule
        curves = {"exact-N": np.ones(5)}
        trace = TransientTrace(1.0, 0.01, 1.0, np.linspace(0.1, 0.5, 5), curves)
        with pytest.raises(TypeError):
            trace.densities["exact-N"] = np.ones(3)
        curves["exact-N"] = np.ones(3)
        assert trace.densities["exact-N"].shape == (5,)

    def test_unknown_method_rejected(self, problem_ebar):
        with pytest.raises(DomainError):
            evolve_trace(problem_ebar, problem_ebar.L, [0.0, 1.0], methods=("euler",))

    def test_complex_grid_rejected(self, problem_ebar):
        for grid in ([0.0, 1.0 + 1j], np.array([0.0, 1.0, 2.0], dtype=complex)):
            with pytest.raises(DomainError):
                evolve_trace(problem_ebar, problem_ebar.L, grid)

    def test_position_not_a_real_scalar_rejected(self, problem_ebar, monkeypatch):
        # rejected before any M column is evaluated; the memo is emptied so
        # that a kept column cannot hide a call
        psi_exact.cache_clear()
        calls = []
        monkeypatch.setattr(transient, "m_function", lambda y: calls.append(y) or m_function(y))
        for bad in ([1.0], "L", 1.0 + 0j):
            with pytest.raises(DomainError):
                evolve_trace(problem_ebar, bad, [0.0, 1.0, 2.0])
        assert calls == []

    def test_decreasing_grid_rejected(self, problem_ebar):
        with pytest.raises(DomainError):
            evolve_trace(problem_ebar, problem_ebar.L, [1.0, 0.5])
        with pytest.raises(DomainError):
            evolve_trace(problem_ebar, problem_ebar.L, [0.0, 1.0, np.nan, 3.0])

    def test_grid_not_1d_rejected(self, problem_ebar):
        with pytest.raises(DomainError, match="time grid must be a 1-D array"):
            evolve_trace(problem_ebar, problem_ebar.L, [[0.0, 1.0], [2.0, 3.0]])

    def test_method_needs_its_modes(self, triple_spectrum, ebar):
        one = make_problem(triple_spectrum.profile, ebar, n_poles=1)
        with pytest.raises(DomainError, match="two-level-M needs 2 mode"):
            evolve_trace(one, one.L, [0.0, 1.0], methods=(METHOD_TWO_LEVEL_M,))

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
