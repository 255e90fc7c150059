"""
Transmission through layered barriers
=====================================

Sweep the stationary transmission coefficient T(E) for two structures:
a symmetric double barrier (one isolated resonance) and a symmetric
triple barrier (a doublet of two close resonances split by the central
barrier).  Writes one CSV per structure plus a gnuplot script.
"""

import sys
from pathlib import Path

import numpy as np

from qshutter import build_profile, transmission
from qshutter.output import write_transmission_csv

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_out")
out.mkdir(parents=True, exist_ok=True)

# The double barrier: two 0.23 eV barriers, 5 nm each, enclosing a 5 nm
# well.  Electron effective mass 0.067 m_e (GaAs conduction band).
double = build_profile(
    [(5.0, 0.23), (5.0, 0.0), (5.0, 0.23)],
    mass_ratio=0.067,
)

# The triple barrier: 0.12 eV barriers of 3 nm separated by 16 nm wells.
# Two coupled wells produce symmetric/antisymmetric level pairs.
triple = build_profile(
    [(3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12)],
    mass_ratio=0.067,
)

# Scan each structure around its lowest resonances.  transmission()
# takes energies in eV, one or a whole array at once, and returns
# (t amplitude, T probability) of the same shape.
for name, profile, window in (
    ("double", double, (60.0, 100.0)),
    ("triple", triple, (8.0, 18.0)),
):
    energies = np.linspace(window[0], window[1], 1200)
    T = transmission(profile, energies * 1e-3)[1]
    path = write_transmission_csv(out / f"transmission_{name}.csv", energies, T)
    print(f"wrote {path}")

    # report every local maximum that rises above half of the global one;
    # for the triple barrier this prints the two doublet members
    interior = (T[1:-1] > T[:-2]) & (T[1:-1] >= T[2:]) & (T[1:-1] > 0.5 * T.max())
    for i in np.flatnonzero(interior) + 1:
        print(f"  {name}: peak T = {T[i]:.4f} at E = {energies[i]:.3f} meV")

# gnuplot_script lays out the trace CSVs, so the scan writes its own script
script = out / "transmission.gp"
script.write_text(
    "set datafile separator ','\n"
    "set title 'stationary transmission'\n"
    "set xlabel 'E (meV)'\n"
    "set ylabel 'T'\n"
    "set terminal pngcairo size 960,640\n"
    "set output 'transmission.png'\n"
    "plot 'transmission_double.csv' using 1:2 every ::1 with lines title 'double barrier', \\\n"
    "     'transmission_triple.csv' using 1:2 every ::1 with lines title 'triple barrier'\n"
)
print(f"wrote {script}")
