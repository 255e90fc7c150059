"""Transient quantum tunneling through layered 1-D potentials.

A shutter at x = 0 holds the cutoff plane wave e^{ikx} - e^{-ikx} against
the left face of a multibarrier structure and opens at t = 0.  This
package computes what leaks through: S-matrix poles and resonant (Gamow)
states of the structure, the exact time-dependent density built from
Faddeeva-function transients, its two-level (resonance doublet)
reductions, and the stationary transmission it relaxes to.  A CLI exposes
pole tables, T(E) sweeps, scenario evolution, figure presets, and an
acceptance selftest.
"""

from .errors import (
    ConfigError,
    DomainError,
    EmptyProfileError,
    LayerHeightError,
    LayerWidthError,
    MassRatioError,
    OverflowGuardError,
    PoleConvergenceError,
    PoleCountError,
    PoleError,
    PoleQualityError,
    ProfileError,
    QShutterError,
    QuadrantEscapeError,
)
from .model import PotentialProfile, build_profile
from .scattering import transmission
from .poles import ResonancePole, find_poles, pole_condition
from .modes import ResonantMode, solve_mode
from .transient import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    ShutterProblem,
    Spectrum,
    TransientTrace,
    evolve_trace,
    make_problem,
    make_spectrum,
    psi_exact,
)
from .twolevel import (
    DoubletFrequencies,
    chi,
    density_two_level,
    dominant_frequency_series,
    frequencies,
    xi,
)
from .config import ScenarioConfig, parse_config, resolve_scenario
from .presets import FigureResult, run_figure

__version__ = "0.1.0"

__all__ = [
    "QShutterError",
    "ProfileError",
    "EmptyProfileError",
    "LayerWidthError",
    "LayerHeightError",
    "MassRatioError",
    "DomainError",
    "OverflowGuardError",
    "PoleError",
    "PoleConvergenceError",
    "QuadrantEscapeError",
    "PoleCountError",
    "PoleQualityError",
    "ConfigError",
    "PotentialProfile",
    "build_profile",
    "transmission",
    "ResonancePole",
    "pole_condition",
    "find_poles",
    "ResonantMode",
    "solve_mode",
    "ShutterProblem",
    "Spectrum",
    "TransientTrace",
    "make_spectrum",
    "make_problem",
    "psi_exact",
    "evolve_trace",
    "METHOD_EXACT",
    "METHOD_TWO_LEVEL_M",
    "METHOD_TWO_LEVEL_CLOSED",
    "METHOD_EXPONENTIAL",
    "DoubletFrequencies",
    "frequencies",
    "chi",
    "xi",
    "density_two_level",
    "dominant_frequency_series",
    "ScenarioConfig",
    "parse_config",
    "resolve_scenario",
    "FigureResult",
    "run_figure",
]
