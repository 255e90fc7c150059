"""
One beat frequency at the doublet center
========================================

The transmitted density at the triple-barrier doublet center oscillates
at a single frequency.  Writing the closed two-level density as a sum
of chi (self) and xi (cross) terms, each contributes oscillations at
the detunings omega_hat_1, omega_hat_2 and their difference omega_21.
Exactly at the center the detunings are opposite halves of the
splitting, so the density is periodic at omega_21 / 2.  This script
measures the dominant frequency of the exact density trace at three
incidence energies and compares it with the closed-form detunings.
"""

import numpy as np

from qshutter import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
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
    ("doublet center", ebar),
    ("on first member", p1.E_position),
    ("above the doublet", p2.E_position + 2.0 * p2.Gamma),
)
for label, E in cases:
    fr = frequencies(E, p1, p2)
    problem = spectrum.at(E)
    times = np.linspace(0.0, 10.0 * tau1, 2000)
    trace = evolve_trace(problem, problem.L, times, (METHOD_EXACT, METHOD_EXPONENTIAL))
    d = trace.densities[METHOD_EXACT]
    f_dom = dominant_frequency_series(times, d)
    print(f"{label}: E = {E * 1e3:.4f} meV")
    print(
        f"  detunings omega_hat_1 = {fr.omega_hat_1:+.4f}, "
        f"omega_hat_2 = {fr.omega_hat_2:+.4f}, "
        f"omega_21 = {fr.omega_21:.4f} rad/ps"
    )
    print(f"  dominant frequency of the raw trace {f_dom:.4f} rad/ps")

    if label == "on first member":
        # on a doublet member the raw trace is swamped by the monotone
        # buildup (the resonant chi term has zero detuning), so the beat
        # at omega_21 only surfaces once that envelope is subtracted
        residual = d - trace.densities[METHOD_EXPONENTIAL]
        f_res = dominant_frequency_series(times, residual)
        print(f"  after subtracting the buildup envelope: {f_res:.4f} rad/ps")

# Summary of what the three cases show:
#   center    -> omega_21 / 2, the single-frequency regime
#   on member -> buildup envelope; the envelope-subtracted residual
#                rings at the full splitting omega_21
#   above     -> the detuning omega_hat_2 of the nearest member
