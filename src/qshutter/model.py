"""Layered 1-D potential model, physical constants, and the unit system.

Units throughout the package: energies in eV (meV only at I/O boundaries),
lengths in nm, times in ps.  With these units

    hbar        = 0.6582119569 meV ps   (6.582119569e-4 eV ps internally)
    hbar^2/2m_e = 0.0380998    eV nm^2

are the published constants to all stated digits, and every quantity in the
tunneling problem stays within a few orders of magnitude of unity.

The potential is a stack of constant-height layers on [0, L], zero outside.
Heights are restricted to >= 0: only barriers and flat wells occur here, and
negative wells would bind states, whose zeros of m22 above the real axis the
pole search's contour counts assume absent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyProfileError,
    LayerHeightError,
    LayerWidthError,
    MassRatioError,
)

__all__ = [
    "PhysicalConstants",
    "Layer",
    "PotentialProfile",
    "build_profile",
    "wavenumber",
    "energy_of",
    "HBAR_MEV_PS",
    "HBAR2_OVER_2ME",
]

# the published value, meV ps; this is what PhysicalConstants.hbar holds
HBAR_MEV_PS = 0.6582119569
# eV nm^2
HBAR2_OVER_2ME = 0.0380998


@dataclass(frozen=True)
class PhysicalConstants:
    """Unit bridge shared by all modules.

    mass_ratio is the one field; hbar (meV ps) and hbar2_over_2me (eV nm^2)
    are class constants, the published values; hbar_ev_ps is hbar in eV ps.
    hbar2_over_2m is hbar^2/2m for the *effective* mass, eV nm^2.
    hbar_over_2m = (hbar^2/2m)/hbar has units nm^2/ps and is the diffusion
    scale entering the transient arguments.
    """

    mass_ratio: float
    hbar = HBAR_MEV_PS
    hbar2_over_2me = HBAR2_OVER_2ME

    def __post_init__(self):
        if not (0 < self.mass_ratio < np.inf):
            raise MassRatioError(
                f"mass_ratio must be finite and > 0, got {self.mass_ratio}"
            )

    @property
    def hbar_ev_ps(self) -> float:
        return self.hbar * 1e-3

    @property
    def hbar2_over_2m(self) -> float:
        return self.hbar2_over_2me / self.mass_ratio

    @property
    def hbar_over_2m(self) -> float:
        return self.hbar2_over_2m / self.hbar_ev_ps


@dataclass(frozen=True)
class Layer:
    """One constant-potential slab: width in nm, height in eV (>= 0)."""

    width: float
    height: float


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered layer stack on [0, L] with effective-mass ratio.

    total_length is the exact sum of layer widths; edges[j] is the left
    boundary of layer j, edges[-1] = L.  heights, widths and edges are
    read-only arrays, and constants the mass ratio's PhysicalConstants,
    built once, at construction, for the kernels that read them on every
    call; they take no part in equality or hashing.
    """

    layers: tuple[Layer, ...]
    mass_ratio: float
    total_length: float = field(init=False)
    constants: PhysicalConstants = field(init=False, repr=False, compare=False)
    heights: np.ndarray = field(init=False, repr=False, compare=False)
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths = np.array([l.width for l in self.layers])
        arrays = {
            "heights": np.array([l.height for l in self.layers]),
            "widths": widths,
            "edges": np.concatenate(([0.0], np.cumsum(widths))),
        }
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(
            self, "total_length", float(sum(l.width for l in self.layers))
        )
        object.__setattr__(self, "constants", PhysicalConstants(self.mass_ratio))

    @property
    def is_free(self) -> bool:
        return all(l.height == 0.0 for l in self.layers)


def build_profile(
    layer_spec: list[tuple[float, float]], mass_ratio: float
) -> PotentialProfile:
    """Validate and assemble a profile from (width nm, height eV) pairs.

    Each invalid input gets its own error class so callers (and the config
    parser) can name the failing constraint.
    """
    if len(layer_spec) == 0:
        raise EmptyProfileError("profile needs at least one layer")
    layers = []
    for j, (width, height) in enumerate(layer_spec):
        width = float(width)
        height = float(height)
        if not (width > 0) or not math.isfinite(width):
            raise LayerWidthError(f"layer {j}: width must be > 0 nm, got {width}")
        if height < 0 or not math.isfinite(height):
            raise LayerHeightError(
                f"layer {j}: height must be >= 0 eV, got {height}"
            )
        layers.append(Layer(width=width, height=height))
    PhysicalConstants(mass_ratio)  # raises MassRatioError
    return PotentialProfile(layers=tuple(layers), mass_ratio=float(mass_ratio))


def wavenumber(E, profile_or_constants):
    """k = sqrt(2mE)/hbar in nm^-1 for real or complex energy E in eV.

    Elementwise: a scalar E gives a complex, an array a complex array of its
    shape.  Branch rule: principal sqrt.  For E in the fourth quadrant
    (resonance energies curlyE - i Gamma/2) the principal branch lands k in
    the fourth quadrant (Re k > 0, Im k < 0), which is the outgoing-pole
    convention used everywhere downstream; real E >= 0 maps to real k >= 0.
    """
    c = _constants_of(profile_or_constants)
    k = np.sqrt(np.asarray(E, dtype=complex) / c.hbar2_over_2m)
    return complex(k) if k.ndim == 0 else k


def energy_of(k, profile_or_constants) -> complex:
    """E = (hbar^2/2m) k^2 in eV; inverse of wavenumber on its branch."""
    c = _constants_of(profile_or_constants)
    return complex(k) ** 2 * c.hbar2_over_2m


def _constants_of(obj) -> PhysicalConstants:
    if isinstance(obj, PhysicalConstants):
        return obj
    return obj.constants
