"""Acceptance suite run as pytest: one test per numbered criterion.

Each test executes its criterion at the stated tolerances and prints the
full PASS/FAIL block.  Criteria 1, 2 and 4 compare against stated
resonance digits that the solver cannot reach from the pinned constants
(the roots are converged to |f(k)| < 1e-12 and stable under grid
refinement, yet sit 0.008-0.024 meV away), criterion 6 inherits those
reference energies, and criterion 10 includes interior-point truncation
bounds that the two-term mode sum genuinely exceeds.  Those tests fail
by design; the failure text records expected vs measured for each
subcheck.  Do not silence them without revisiting the analysis in the
project decision notes.
"""

import pytest

from qshutter.acceptance import (
    AcceptanceContext,
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


def run(ctx, criterion):
    result = criterion(ctx)
    print(result.render())
    assert result.ok, "\n" + result.render()


def test_criterion_01_stated_doublet_parameters_triple(ctx):
    run(ctx, criterion_1)


def test_criterion_02_stated_resonance_parameters_double(ctx):
    run(ctx, criterion_2)


def test_criterion_03_stated_transmission_values(ctx):
    run(ctx, criterion_3)


def test_criterion_04_derived_doublet_quantities(ctx):
    run(ctx, criterion_4)


def test_criterion_05_long_time_asymptote(ctx):
    run(ctx, criterion_5)


def test_criterion_06_two_level_fidelity(ctx):
    run(ctx, criterion_6)


def test_criterion_07_resonant_envelope(ctx):
    run(ctx, criterion_7)


def test_criterion_08_single_frequency_regime(ctx):
    run(ctx, criterion_8)


def test_criterion_09_enhancement_with_barrier_width(ctx):
    run(ctx, criterion_9)


def test_criterion_10_invariant_property_suites(ctx):
    run(ctx, criterion_10)
