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

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    EmptyProfileError,
    LayerHeightError,
    LayerWidthError,
    MassRatioError,
    ProfileError,
)

__all__ = [
    "Layer",
    "PotentialProfile",
    "build_profile",
    "wavenumber",
    "energy_of",
    "HBAR_MEV_PS",
    "HBAR_EV_PS",
    "HBAR2_OVER_2ME",
]

# the published value, meV ps
HBAR_MEV_PS = 0.6582119569
HBAR_EV_PS = HBAR_MEV_PS * 1e-3
# eV nm^2
HBAR2_OVER_2ME = 0.0380998


@dataclass(frozen=True)
class Layer:
    """One constant-potential slab, each field a float: width in nm, a real
    number > 0 (LayerWidthError), and height in eV, a real number >= 0
    (LayerHeightError)."""

    width: float
    height: float

    def __post_init__(self):
        width = _real_finite(self.width, "width (nm)", LayerWidthError, positive=True)
        height = _real_finite(self.height, "height (eV)", LayerHeightError)
        if height < 0:
            raise LayerHeightError(f"height (eV) must be >= 0, got {height}")
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "height", height)


@dataclass(frozen=True)
class PotentialProfile:
    """Ordered layer stack on [0, L] with effective-mass ratio.

    layers is an iterable of one or more Layers (EmptyProfileError,
    ProfileError), stored as a tuple so that the profile hashes, and
    mass_ratio a real number > 0 (MassRatioError), stored as a float.
    edges[j] is the left boundary of layer j, and total_length = edges[-1] = L.
    hbar2_over_2m is hbar^2/2m for the effective mass (eV nm^2) and
    hbar_over_2m = (hbar^2/2m)/hbar (nm^2/ps).  These floats and the read-only
    arrays heights, widths and edges are computed once, at construction, for
    the kernels that read them on every call; they take no part in equality
    or hashing.
    """

    layers: tuple[Layer, ...]
    mass_ratio: float
    total_length: float = field(init=False)
    hbar2_over_2m: float = field(init=False, repr=False, compare=False)
    hbar_over_2m: float = field(init=False, repr=False, compare=False)
    heights: np.ndarray = field(init=False, repr=False, compare=False)
    widths: np.ndarray = field(init=False, repr=False, compare=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        layers = _entries(self.layers, "layers must be Layers")
        if len(layers) == 0:
            raise EmptyProfileError("profile needs at least one layer")
        if not all(isinstance(layer, Layer) for layer in layers):
            raise ProfileError(f"layers must be Layers, got {self.layers!r}")
        mass_ratio = _real_finite(self.mass_ratio, "mass_ratio", MassRatioError, positive=True)
        widths = np.array([l.width for l in layers])
        arrays = {
            "heights": np.array([l.height for l in layers]),
            "widths": widths,
            "edges": np.concatenate(([0.0], np.cumsum(widths))),
        }
        for name, array in arrays.items():
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        hbar2_over_2m = HBAR2_OVER_2ME / mass_ratio
        object.__setattr__(self, "total_length", float(arrays["edges"][-1]))
        object.__setattr__(self, "hbar2_over_2m", hbar2_over_2m)
        object.__setattr__(self, "hbar_over_2m", hbar2_over_2m / HBAR_EV_PS)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "mass_ratio", mass_ratio)

    @property
    def is_free(self) -> bool:
        return all(l.height == 0.0 for l in self.layers)


def build_profile(
    layer_spec: list[tuple[float, float]], mass_ratio: float
) -> PotentialProfile:
    """A profile from (width nm, height eV) pairs: Layer reads each pair,
    its error naming the layer's index, and PotentialProfile the rest.
    A layer_spec that is not iterable raises ProfileError, and so does an
    entry that is not a pair, naming its layer."""
    layers = []
    for j, entry in enumerate(_entries(layer_spec, "layers must be (width, height) pairs")):
        try:
            width, height = entry
            layers.append(Layer(width, height))
        except ProfileError as err:
            raise type(err)(f"layer {j}: {err}") from None
        except (TypeError, ValueError):
            raise ProfileError(f"layer {j}: not a (width, height) pair: {entry!r}") from None
    return PotentialProfile(tuple(layers), mass_ratio)


def wavenumber(E, profile: PotentialProfile):
    """k = sqrt(2mE)/hbar in nm^-1 for real or complex energy E in eV.

    Elementwise: a scalar E gives a complex, an array a complex array of its
    shape.  Branch rule: principal sqrt.  For E in the fourth quadrant
    (resonance energies curlyE - i Gamma/2) the principal branch lands k in
    the fourth quadrant (Re k > 0, Im k < 0), which is the outgoing-pole
    convention used everywhere downstream; real E >= 0 maps to real k >= 0.
    """
    k = np.sqrt(np.asarray(_complex_array(E, "E"), dtype=complex) / profile.hbar2_over_2m)
    return complex(k) if k.ndim == 0 else k


def energy_of(k, profile: PotentialProfile) -> complex:
    """E = (hbar^2/2m) k^2 in eV; inverse of wavenumber on its branch."""
    return _complex_finite(k, "k") ** 2 * profile.hbar2_over_2m


# The argument rules of every public entry: a real number has int, uint or float
# dtype and is finite, a complex one may also have complex dtype, a count is an
# integer and not a bool, and times are real, finite and >= 0; a bad value raises
# DomainError or the typed error its caller names.
def _real_array(values, name: str) -> np.ndarray:
    """values as a float array; any dtype but int, uint or float raises DomainError."""
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real, not {values.dtype}")
    return values.astype(float, copy=False)


def _complex_array(values, name: str) -> np.ndarray:
    """_real_array's rule for values that may also be complex: a float or complex array."""
    values = np.asarray(values)
    if values.dtype.kind not in "iufc":
        raise DomainError(f"{name} must be real or complex, not {values.dtype}")
    return values.astype(complex if values.dtype.kind == "c" else float, copy=False)


def _times(t) -> np.ndarray:
    """t (ps) as _real_array reads it; NaN, infinite and negative times raise."""
    t = _real_array(t, "t")
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise DomainError("t must be finite and >= 0 ps")
    return t


def _positive_times(t) -> np.ndarray:
    """t (ps) as _times checks it, with every time > 0."""
    t_arr = _times(t)
    if not (t_arr > 0).all():
        raise DomainError("t must be > 0 ps (t = 0 is the initial condition)")
    return t_arr


def _real_finite(value, name: str, error=DomainError, positive: bool = False) -> float:
    """A real number as a float: a finite scalar of int, uint or float dtype
    (not a bool, a complex number, a string or an array), and > 0 if
    positive; anything else raises error."""
    # Python floats and ints skip numpy: Layer reads two
    if type(value) is float or type(value) is int or (
        np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iuf"
    ):
        if math.isfinite(value) and (value > 0 or not positive):
            return float(value)
    raise error(f"{name} must be a real, finite number{' > 0' if positive else ''}, got {value!r}")


def _complex_finite(value, name: str, error=DomainError) -> complex:
    """_real_finite's rule for a number that may also have complex dtype, as a complex."""
    # Python numbers skip numpy: energy_of reads one k per certified pole
    if type(value) in (complex, float, int) or (
        np.ndim(value) == 0 and np.asarray(value).dtype.kind in "iufc"
    ):
        if cmath.isfinite(value):
            return complex(value)
    raise error(f"{name} must be a finite real or complex number, got {value!r}")


def _count(value, name: str, least: int = 1, error=DomainError) -> int:
    """A count as an int: an integer (operator.index) that is not a bool and
    is >= least; anything else raises error."""
    try:
        # operator.index takes True as 1, but a bool is no count
        count = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        count = None
    if count is None or count < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return count


def _entries(values, message: str) -> tuple:
    """values, an iterable, as a tuple; anything else raises ProfileError."""
    try:
        return tuple(values)
    except TypeError:
        raise ProfileError(f"{message}, got {values!r}") from None


def _broadcast_xt(x, t) -> None:
    """Raise DomainError unless x and t broadcast against each other."""
    try:
        np.broadcast_shapes(np.shape(x), np.shape(t))
    except ValueError:
        raise DomainError(
            f"x of shape {np.shape(x)} and t of shape {np.shape(t)} do not broadcast"
        ) from None
