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
from .mfunc import (
    MArgument,
    Y_PHASE,
    faddeeva,
    m_function,
    m_function_scaled,
    y_argument,
    y_values,
)
from .model import (
    HBAR_EV_PS,
    HBAR_MEV_PS,
    HBAR2_OVER_2ME,
    Layer,
    PhysicalConstants,
    PotentialProfile,
    build_profile,
    energy_of,
    wavenumber,
)
from .modes import ResonantMode, rho, rho_mirror, solve_mode
from .poles import ResonancePole, find_poles, pole_condition, refine_pole, seed_poles
from .scattering import (
    StationaryField,
    TransferMatrix,
    solve_stationary,
    stationary_wave,
    transfer_matrix,
    transmission,
)
from .transient import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    METHODS,
    ShutterProblem,
    Spectrum,
    TransientTrace,
    delta_term,
    evolve_trace,
    free_shutter_psi,
    make_problem,
    make_spectrum,
    psi_doublet_M,
    psi_exact,
)
from .twolevel import (
    DoubletFrequencies,
    chi,
    density_resonant_exponential,
    density_stationary_two_level,
    density_two_level,
    dominant_frequency,
    dominant_frequency_series,
    frequencies,
    xi,
)
from .config import Incidence, ScenarioConfig, parse_config, resolve_scenario
from .presets import PRESETS, FigurePreset, FigureResult, run_figure
from .acceptance import run_acceptance

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
    "PhysicalConstants",
    "Layer",
    "PotentialProfile",
    "build_profile",
    "wavenumber",
    "energy_of",
    "HBAR_MEV_PS",
    "HBAR_EV_PS",
    "HBAR2_OVER_2ME",
    "faddeeva",
    "m_function",
    "m_function_scaled",
    "MArgument",
    "y_argument",
    "y_values",
    "Y_PHASE",
    "TransferMatrix",
    "StationaryField",
    "transfer_matrix",
    "solve_stationary",
    "transmission",
    "stationary_wave",
    "ResonancePole",
    "pole_condition",
    "seed_poles",
    "refine_pole",
    "find_poles",
    "ResonantMode",
    "solve_mode",
    "rho",
    "rho_mirror",
    "ShutterProblem",
    "Spectrum",
    "TransientTrace",
    "make_spectrum",
    "make_problem",
    "psi_exact",
    "psi_doublet_M",
    "delta_term",
    "free_shutter_psi",
    "evolve_trace",
    "METHODS",
    "METHOD_EXACT",
    "METHOD_TWO_LEVEL_M",
    "METHOD_TWO_LEVEL_CLOSED",
    "METHOD_EXPONENTIAL",
    "DoubletFrequencies",
    "frequencies",
    "chi",
    "xi",
    "density_two_level",
    "density_stationary_two_level",
    "density_resonant_exponential",
    "dominant_frequency",
    "dominant_frequency_series",
    "Incidence",
    "ScenarioConfig",
    "parse_config",
    "resolve_scenario",
    "FigurePreset",
    "FigureResult",
    "PRESETS",
    "run_figure",
    "run_acceptance",
]
