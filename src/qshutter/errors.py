"""Exception types raised by the qshutter package.

Every error that callers may want to catch individually gets its own class;
all inherit from QShutterError so `except QShutterError` catches anything
the library raises deliberately.
"""

from __future__ import annotations


class QShutterError(Exception):
    """Base class for all qshutter errors."""


class ProfileError(QShutterError, ValueError):
    """Invalid potential profile specification."""


class EmptyProfileError(ProfileError):
    """Layer list is empty."""


class LayerWidthError(ProfileError):
    """A layer width is not strictly positive."""


class LayerHeightError(ProfileError):
    """A layer height is negative (wells must sit at zero)."""


class MassRatioError(ProfileError):
    """Effective-mass ratio is not strictly positive."""


class DomainError(QShutterError, ValueError):
    """Argument outside the documented domain (x, t, k, ... checks)."""


class OverflowGuardError(QShutterError, ArithmeticError):
    """A layer exponential would overflow; carries the offending layer data.

    point is the flat (C-order) index of the offending wave number when an
    array of them was evaluated, 0 for a scalar.  summed marks the march
    guard: exponent_magnitude is then the |Im(q)*width| summed over layers
    0..layer_index, not one layer's.
    """

    def __init__(
        self,
        layer_index: int,
        exponent_magnitude: float,
        limit: float,
        point: int = 0,
        summed: bool = False,
    ):
        self.layer_index = layer_index
        self.exponent_magnitude = exponent_magnitude
        self.point = point
        self.summed = summed
        if summed:
            what = f"layers 0-{layer_index}: summed |Im(q)*width| = {exponent_magnitude:.3g}"
            guard = f"the march guard ({limit:g}); the march's growth overflows"
        else:
            what = f"layer {layer_index}: |Im(q)*width| = {exponent_magnitude:.3g}"
            guard = f"the overflow guard ({limit:g}); evanescent decay underflows"
        super().__init__(f"{what} exceeds {guard} double precision")


class PoleError(QShutterError):
    """Base class for pole-search failures."""


class PoleConvergenceError(PoleError):
    """Newton refinement did not converge; carries the iterate trace."""

    def __init__(self, message: str, trace: list):
        self.trace = list(trace)
        super().__init__(f"{message} (trace of {len(self.trace)} iterates attached)")


class QuadrantEscapeError(PoleConvergenceError):
    """Newton iterate left the fourth quadrant of the k plane."""


class PoleCountError(PoleError):
    """Fewer poles found than requested; message names how many were found,
    and the last window energy and the cap it reached (eV), if it did."""

    def __init__(
        self, found: int, requested: int, cap: float | None = None, window: float | None = None
    ):
        self.found, self.requested, self.cap, self.window = found, requested, cap, window
        message = f"{found} poles found, {requested} requested"
        if cap is not None:
            message += f"; the search window reached {window:.4g} eV, past its {cap:.4g} eV cap"
        super().__init__(message)


class PoleQualityError(PoleError):
    """A pole fails a quality test: find_poles returned it with Im k >= 0 (a
    width below the rounding of Im k), or its mode's outgoing residual is too large."""


class ConfigError(QShutterError, ValueError):
    """Scenario-config parse or validation failure with line/field context."""

    def __init__(self, message: str, line: int | None = None, field: str | None = None):
        self.message = message
        self.line = line
        self.field = field
        where = []
        if line is not None:
            where.append(f"line {line}")
        if field is not None:
            where.append(f"field '{field}'")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
