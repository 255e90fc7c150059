"""Acceptance suite run as pytest: one test per numbered criterion.

Each test reads its criterion's result from the one `qshutter selftest`
run the session shares (conftest's selftest_run), which runs every
criterion at the stated tolerances, and prints the full PASS/FAIL block.
Criteria 1, 2 and 4 compare against stated resonance digits that the
solver cannot reach from the pinned constants (the roots are converged to
|f(k)| < 1e-12 and stable under grid refinement, yet sit 0.008-0.024 meV
away), criterion 6 inherits those reference energies, and criterion 10
includes interior-point truncation bounds that the two-term mode sum
genuinely exceeds.  Those tests fail by design; the failure text records
expected vs measured for each subcheck.  Do not silence them without
revisiting the analysis in the project decision notes.

test_only_the_sub_checks_failing_by_design_fail lists the sub-checks that
fail by design, so that a regression in any sub-check passing inside a
failing criterion still fails a test.  The last test checks criterion 10's
grid oracle against a step-by-step Crank-Nicolson march on a short grid.
"""

import numpy as np
from scipy.linalg import solve_banded

from qshutter import acceptance
from qshutter.model import build_profile
from qshutter.presets import MASS_RATIO


def run(selftest_run, number):
    # the criterion's result in the one selftest run the session shares
    result = selftest_run[2][number - 1]
    assert result.number == number
    print(result.render())
    assert result.ok, "\n" + result.render()


def test_criterion_01_stated_doublet_parameters_triple(selftest_run):
    run(selftest_run, 1)


def test_criterion_02_stated_resonance_parameters_double(selftest_run):
    run(selftest_run, 2)


def test_criterion_03_stated_transmission_values(selftest_run):
    run(selftest_run, 3)


def test_criterion_04_derived_doublet_quantities(selftest_run):
    run(selftest_run, 4)


def test_criterion_05_long_time_asymptote(selftest_run):
    run(selftest_run, 5)


def test_criterion_06_two_level_fidelity(selftest_run):
    run(selftest_run, 6)


def test_criterion_07_resonant_envelope(selftest_run):
    run(selftest_run, 7)


def test_criterion_08_single_frequency_regime(selftest_run):
    run(selftest_run, 8)


def test_criterion_09_enhancement_with_barrier_width(selftest_run):
    run(selftest_run, 9)


def test_criterion_10_invariant_property_suites(selftest_run):
    run(selftest_run, 10)


# the sub-checks behind the five criteria that fail by design
FAILING_BY_DESIGN = {
    (1, "curlyE1 (meV)"),
    (1, "Gamma1 (meV)"),
    (1, "curlyE2 (meV)"),
    (1, "Gamma2 (meV)"),
    (2, "curlyE1 (meV)"),
    (2, "Gamma1 (meV)"),
    (4, "doublet center Ebar (meV)"),
    (4, "(Ebar - curlyE1)/Gamma1"),
    (6, "doublet M-form vs exact, max rel dev on [0.1, 10] tau1"),
    (10, "|Phi - (rho1 + rho2)|/|Phi| over the doublet window, x = 10.25 nm"),
    (10, "|Phi - (rho1 + rho2)|/|Phi| over the doublet window, x = 20.5 nm"),
}


def test_only_the_sub_checks_failing_by_design_fail(selftest_run):
    # a criterion that fails by design hides its passing sub-checks (14 of
    # them across criteria 1, 2, 4, 6 and 10): each must keep passing
    failing = {(r.number, c.name) for r in selftest_run[2] for c in r.checks if not c.passed}
    assert failing == FAILING_BY_DESIGN


def test_grid_oracle_matches_a_step_by_step_dirichlet_march(monkeypatch):
    # criterion 10's grid oracle takes every Crank-Nicolson step at once in
    # the sine basis; on a 20 nm half-width it meets 100 banded solves of
    # (I + lam T) psi' = (I - lam T) psi on the interior nodes
    monkeypatch.setattr(acceptance, "_CN_DOMAIN", 20.0)
    beta = build_profile([(1.0, 0.0)], MASS_RATIO).hbar_over_2m
    k, t_final = 0.142236183, 0.02
    x, psi = acceptance._crank_nicolson_free(k, t_final, beta)

    ref = np.where(x <= 0.0, 2j * np.sin(k * x), 0.0)[1:-1]
    start = np.sum(np.abs(ref) ** 2)
    lam = 1j * beta * acceptance._CN_DT / (2.0 * acceptance._CN_DX**2)
    bands = np.empty((3, ref.size), complex)
    bands[0], bands[1], bands[2] = -lam, 1.0 + 2.0 * lam, -lam
    for _ in range(100):
        rhs = (1.0 - 2.0 * lam) * ref
        rhs[1:] += lam * ref[:-1]
        rhs[:-1] += lam * ref[1:]
        ref = solve_banded((1, 1), bands, rhs)

    assert psi[0] == psi[-1] == 0.0
    assert np.max(np.abs(psi[1:-1] - ref)) < 1e-10 * np.max(np.abs(ref))
    assert abs(np.sum(np.abs(psi) ** 2) / start - 1.0) < 1e-12
