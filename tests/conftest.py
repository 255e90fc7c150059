"""Shared fixtures: the two reference structures, their poles and modes,
one generated set of figure and evolve outputs, and one selftest run.

Pole wave numbers, resonance parameters, and transmission values below are
regression pins: computed once with this package, frozen, and asserted at
tight tolerance so silent numerical drift fails loudly.  Independent-oracle
checks (arbitrary-precision Faddeeva, free-particle closed form, grid
integration) live in the acceptance module, not here.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

import golden
from qshutter import acceptance, build_profile, cli, find_poles, make_spectrum, solve_mode
from qshutter import transient
from qshutter.presets import DOUBLE_LAYERS, MASS_RATIO, TRIPLE_LAYERS

# triple barrier: 3/16/3/16/3 nm at 0.12 eV barriers, m* = 0.067 m_e
TRIPLE_K = (
    0.142236183371 - 0.001259642957j,
    0.158939370763 - 0.001753736521j,
    0.285615349547 - 0.005115670108j,
    0.318205940128 - 0.007008177213j,
)
# double barrier: 5/5/5 nm at 0.23 eV
DOUBLE_K = (
    0.375206581756 - 0.001204394841j,
    0.673875310424 - 0.019954451519j,
)

# meV / ps values derived from the pole pins
TRIPLE_E1_MEV = 11.503606338
TRIPLE_G1_MEV = 0.407535492
TRIPLE_E2_MEV = 14.363424426
TRIPLE_G2_MEV = 0.634021113
TRIPLE_EBAR_MEV = 12.933515382
TRIPLE_TAU1_PS = 1.615103394
TRIPLE_OMEGA21 = 4.344828528  # rad/ps at the doublet
DOUBLE_E1_MEV = 80.054235483
DOUBLE_G1_MEV = 1.027891368

# transmission pins
T_TRIPLE_EBAR = 0.118545827
T_TRIPLE_12949 = 0.119069227  # at 12.949 meV
T_DOUBLE_83740 = 0.022981157  # at 83.740 meV

# free cutoff-wave evolution at (k, x, t) = (0.142236183, 0.5 nm, 0.25 ps),
# cross-checked against a 40-digit oracle in the acceptance module
FREE_PSI_PIN = -0.60642536924436818 + 0.74942157458245195j


@pytest.fixture(scope="session")
def triple_profile():
    return build_profile(list(TRIPLE_LAYERS), MASS_RATIO)


@pytest.fixture(scope="session")
def double_profile():
    return build_profile(list(DOUBLE_LAYERS), MASS_RATIO)


@pytest.fixture(scope="session")
def free_profile():
    return build_profile([(1.0, 0.0)], MASS_RATIO)


@pytest.fixture(scope="session")
def triple_spectrum(triple_profile):
    """Triple barrier poles and modes, N = 4, shared by every energy."""
    return make_spectrum(triple_profile, 4)


@pytest.fixture(scope="session")
def triple_poles(triple_spectrum):
    return list(triple_spectrum.poles)


@pytest.fixture(scope="session")
def double_poles(double_profile):
    return find_poles(double_profile, 2)


@pytest.fixture(scope="session")
def triple_modes(triple_spectrum):
    return list(triple_spectrum.modes)


@pytest.fixture(scope="session")
def double_modes(double_profile, double_poles):
    return [solve_mode(double_profile, p) for p in double_poles]


@pytest.fixture(scope="session")
def ebar(triple_poles):
    return 0.5 * (triple_poles[0].E_position + triple_poles[1].E_position)


@pytest.fixture(scope="session")
def problem_ebar(triple_spectrum, ebar):
    """Triple barrier at the doublet center, N = 4."""
    return triple_spectrum.at(ebar)


@pytest.fixture(scope="session")
def problem_res1(triple_spectrum, triple_poles):
    """Triple barrier on the first resonance, N = 4."""
    return triple_spectrum.at(triple_poles[0].E_position)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture(scope="session")
def generated_outputs(tmp_path_factory):
    """(directory, FigureResults by preset) of one run of every figure preset
    and of `qshutter evolve` on both shipped configs (golden.generate),
    shared by the preset tests and the golden record."""
    out_dir = tmp_path_factory.mktemp("outputs")
    return out_dir, golden.generate(out_dir)


@pytest.fixture(scope="session")
def selftest_run():
    """(exit code, stdout, CheckResults, searches) of one `qshutter selftest`
    run, shared by the CLI test and the acceptance tests.

    make_spectrum's memo is emptied first, since earlier tests may have left
    the run's spectra in it, and searches lists the N of every pole search
    the run makes (find_poles as the acceptance module and make_spectrum
    call it).  The CheckResults are the ones run_acceptance returns.
    """
    searches, results = [], []
    run_acceptance = acceptance.run_acceptance

    def counted(profile, N):
        searches.append(N)
        return find_poles(profile, N)

    def recorded():
        results.extend(run_acceptance())
        return results

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(acceptance, "find_poles", counted)
        mp.setattr(transient, "find_poles", counted)
        mp.setattr(acceptance, "run_acceptance", recorded)
        transient.make_spectrum.cache_clear()
        code = cli.main(["selftest"])
    return code, out.getvalue(), results, searches
