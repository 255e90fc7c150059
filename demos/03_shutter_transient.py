"""
Transient buildup after a shutter opening
=========================================

At t = 0 a perfectly absorbing shutter at x = 0 is removed and the
cutoff plane wave starts tunneling through the triple barrier.  This
script follows the transmitted probability density |Psi(L, t)|^2 at
the doublet center energy, where the buildup is not monotonic: the
density rings at the doublet beat frequency while relaxing toward the
stationary value T(E).  Three methods are compared: the exact modal
expansion with N = 4 poles, the same expansion truncated to the
doublet, and the closed two-level form.
"""

import sys
from pathlib import Path

import numpy as np

from qshutter import (
    METHOD_EXACT,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    build_profile,
    evolve_trace,
    make_spectrum,
)
from qshutter.output import gnuplot_script, write_trace_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
out.mkdir(parents=True, exist_ok=True)

triple = build_profile(
    [(3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12)],
    mass_ratio=0.067,
)

# Incidence energy: the center of the doublet, where both members are
# excited with comparable weight and the beat is strongest.
spectrum = make_spectrum(triple, 4)
poles = spectrum.poles
ebar = 0.5 * (poles[0].E_position + poles[1].E_position)
tau1 = poles[0].tau
problem = spectrum.at(ebar)
T = abs(problem.field.t) ** 2
print(f"E = Ebar = {ebar * 1e3:.4f} meV, tau1 = {tau1:.4f} ps, T(Ebar) = {T:.6f}")

# Evolve |Psi(L, t)|^2 over ten lifetimes with all three methods.
times = np.linspace(0.0, 10.0 * tau1, 1500)
methods = (METHOD_EXACT, METHOD_TWO_LEVEL_M, METHOD_TWO_LEVEL_CLOSED)
trace = evolve_trace(problem, problem.L, times, methods)
for method in methods:
    print(f"wrote {write_trace_csv(out / f'transient_{method}.csv', trace, method)}")

d = trace.densities[METHOD_EXACT]

# The first density maximum overshoots the stationary value: transient
# constructive interference of the two doublet members.
i_peak = int(np.argmax(d))
print(f"first maximum {d[i_peak]:.4f} = {d[i_peak] / T:.2f} T at t = {times[i_peak] / tau1:.2f} tau1")

# By ten lifetimes the ringing has decayed and the density has settled
# onto the stationary transmission to better than a percent.
late = abs(d[-1] / T - 1.0)
print(f"|d/T - 1| = {late:.4f} at t = 10 tau1")

script = gnuplot_script(
    out / "transient.gp",
    "transmitted density after shutter opening",
    [(f"transient_{m}.csv", m) for m in methods],
)
print(f"wrote {script}")
