"""
One beat frequency at the doublet center
========================================

The transmitted density at the triple-barrier doublet center oscillates
at a single frequency.  The closed two-level density is a sum of damped
exponentials that oscillate at the detunings omega_hat_1, omega_hat_2
and their difference omega_21; exactly at the center the detunings are
opposite halves of the splitting, so the density beats at omega_21 / 2.
This script fits the exact density trace at three incidence energies and
prints its strongest oscillating line next to the closed-form frequency.
"""

import numpy as np

from qshutter import (
    METHOD_EXACT,
    build_profile,
    dominant_frequency_series,
    evolve_trace,
    frequencies,
    make_spectrum,
)

triple = build_profile(
    [(3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12)],
    mass_ratio=0.067,
)
# poles and modes belong to the structure: find them once, reuse them at
# every incidence energy
spectrum = make_spectrum(triple, 4)
p1, p2 = spectrum.poles[:2]
ebar = 0.5 * (p1.E_position + p2.E_position)
tau1 = p1.tau

cases = (
    ("doublet center", ebar, "omega_21 / 2", lambda fr: fr.omega_21 / 2.0),
    ("on first member", p1.E_position, "omega_21", lambda fr: fr.omega_21),
    ("above the doublet", p2.E_position + 2.0 * p2.Gamma, "|omega_hat_2|",
     lambda fr: abs(fr.omega_hat_2)),
)
for label, E, name, line in cases:
    fr = frequencies(E, p1, p2)
    problem = spectrum.at(E)
    times = np.linspace(0.0, 10.0 * tau1, 2000)
    trace = evolve_trace(problem, problem.L, times, (METHOD_EXACT,))
    f_dom = dominant_frequency_series(times, trace.densities[METHOD_EXACT])
    print(f"{label}: E = {E * 1e3:.4f} meV")
    print(
        f"  detunings omega_hat_1 = {fr.omega_hat_1:+.4f}, "
        f"omega_hat_2 = {fr.omega_hat_2:+.4f}, "
        f"omega_21 = {fr.omega_21:.4f} rad/ps"
    )
    print(f"  dominant line of the raw trace {f_dom:.4f} rad/ps, {name} = {line(fr):.4f}")

# Summary of what the three cases show:
#   center    -> omega_21 / 2, the single-frequency regime
#   on member -> the full splitting omega_21, which beats under the
#                monotone buildup of the resonant member
#   above     -> the detuning omega_hat_2 of the nearest member
