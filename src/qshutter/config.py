"""Scenario configuration: a flat, typed key-value text format.

Chosen over nested formats so fixtures diff line by line.  Grammar:

    # comment (full-line or trailing)
    layer      = <width> nm, <height> eV      (repeated, ordered)
    mass_ratio = <float>
    energy     = <float> meV | E1 + <float>*Gamma1 | doublet-center
    n_poles    = <int>                        (default 4)
    t_max      = <float> tau1                 (default 10 tau1)
    points     = <int>                        (default 2000)
    x          = L | <float> nm               (default L)
    methods    = tag[, tag...]                (default exact-N)
    out        = <path>                       (default trace.csv)

Units are mandatory on dimensioned fields; unknown keys, duplicate scalar
keys, and malformed values are errors carrying the line number and field
name.  Symbolic incidence specs resolve only after the profile's poles are
found, deterministically from the profile alone.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .model import PotentialProfile, build_profile
from .transient import METHODS, ShutterProblem, make_spectrum

__all__ = ["Incidence", "ScenarioConfig", "parse_config", "resolve_scenario"]


@dataclass(frozen=True)
class Incidence:
    """Incidence-energy spec: absolute | offset from E1 | doublet center."""

    kind: str  # "absolute" | "offset" | "doublet-center"
    value: float = 0.0  # eV for absolute, Gamma_1 multiples for offset

    def describe(self) -> str:
        if self.kind == "absolute":
            return f"{self.value * 1e3:g} meV"
        if self.kind == "offset":
            return f"E1 + {self.value:g}*Gamma1"
        return "doublet-center"


@dataclass(frozen=True)
class ScenarioConfig:
    layers: tuple[tuple[float, float], ...]
    mass_ratio: float
    incidence: Incidence
    n_poles: int = 4
    t_max_tau1: float = 10.0
    points: int = 2000
    x_nm: float | None = None  # None means x = L
    methods: tuple[str, ...] = ("exact-N",)
    out: str = "trace.csv"

    def profile(self) -> PotentialProfile:
        return build_profile(list(self.layers), self.mass_ratio)


_LAYER_RE = re.compile(
    r"^\s*([-+0-9.eE]+)\s*nm\s*,\s*([-+0-9.eE]+)\s*eV\s*$"
)
_ABS_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*meV\s*$")
_OFFSET_RE = re.compile(r"^\s*E1\s*([+-])\s*([0-9.eE+-]+)\s*\*\s*Gamma1\s*$")
_TMAX_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*tau1\s*$")
_X_RE = re.compile(r"^\s*([-+0-9.eE]+)\s*nm\s*$")

_KNOWN_KEYS = {
    "layer",
    "mass_ratio",
    "energy",
    "n_poles",
    "t_max",
    "points",
    "x",
    "methods",
    "out",
}


def _float(text: str, line: int, field: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise ConfigError(f"not a number: '{text}'", line=line, field=field)
    if not np.isfinite(v):
        raise ConfigError(f"not finite: '{text}'", line=line, field=field)
    return v


def _int(text: str, line: int, field: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"not an integer: '{text}'", line=line, field=field)


def parse_config(text: str) -> ScenarioConfig:
    """Strict parse; see module docstring for the grammar."""
    layers: list[tuple[float, float]] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=lineno)
        key, _, rhs = line.partition("=")
        key = key.strip()
        rhs = rhs.strip()
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"unknown key '{key}'", line=lineno, field=key)
        if key != "layer":
            if key in seen:
                raise ConfigError(
                    f"duplicate key (first on line {seen[key]})",
                    line=lineno,
                    field=key,
                )
            seen[key] = lineno
        if key == "layer":
            m = _LAYER_RE.match(rhs)
            if not m:
                raise ConfigError(
                    f"expected '<width> nm, <height> eV', got '{rhs}'",
                    line=lineno,
                    field=f"layer {len(layers) + 1}",
                )
            w = _float(m.group(1), lineno, f"layer {len(layers) + 1} width")
            h = _float(m.group(2), lineno, f"layer {len(layers) + 1} height")
            if w <= 0:
                raise ConfigError(
                    f"width must be > 0 nm, got {w}",
                    line=lineno,
                    field=f"layer {len(layers) + 1}",
                )
            if h < 0:
                raise ConfigError(
                    f"height must be >= 0 eV, got {h}",
                    line=lineno,
                    field=f"layer {len(layers) + 1}",
                )
            layers.append((w, h))
        elif key == "mass_ratio":
            v = _float(rhs, lineno, key)
            if v <= 0:
                raise ConfigError(f"must be > 0, got {v}", line=lineno, field=key)
            values[key] = v
        elif key == "energy":
            values[key] = _parse_incidence(rhs, lineno)
        elif key == "n_poles":
            v = _int(rhs, lineno, key)
            if v < 0:
                raise ConfigError(f"must be >= 0, got {v}", line=lineno, field=key)
            values[key] = v
        elif key == "t_max":
            m = _TMAX_RE.match(rhs)
            if not m:
                raise ConfigError(
                    f"expected '<float> tau1', got '{rhs}'", line=lineno, field=key
                )
            v = _float(m.group(1), lineno, key)
            if v <= 0:
                raise ConfigError(f"must be > 0, got {v}", line=lineno, field=key)
            values[key] = v
        elif key == "points":
            v = _int(rhs, lineno, key)
            if v < 2:
                raise ConfigError(f"must be >= 2, got {v}", line=lineno, field=key)
            values[key] = v
        elif key == "x":
            if rhs == "L":
                values[key] = None
            else:
                m = _X_RE.match(rhs)
                if not m:
                    raise ConfigError(
                        f"expected 'L' or '<float> nm', got '{rhs}'",
                        line=lineno,
                        field=key,
                    )
                values[key] = _float(m.group(1), lineno, key)
        elif key == "methods":
            tags = tuple(s.strip() for s in rhs.split(","))
            for tag in tags:
                if tag not in METHODS:
                    raise ConfigError(
                        f"unknown method '{tag}'; valid: {', '.join(METHODS)}",
                        line=lineno,
                        field=key,
                    )
            values[key] = tags
        elif key == "out":
            if not rhs:
                raise ConfigError("empty path", line=lineno, field=key)
            values[key] = rhs
    if not layers:
        raise ConfigError("no 'layer' lines", field="layer")
    if "mass_ratio" not in values:
        raise ConfigError("missing required key", field="mass_ratio")
    if "energy" not in values:
        raise ConfigError("missing required key", field="energy")
    return ScenarioConfig(
        layers=tuple(layers),
        mass_ratio=values["mass_ratio"],
        incidence=values["energy"],
        n_poles=values.get("n_poles", 4),
        t_max_tau1=values.get("t_max", 10.0),
        points=values.get("points", 2000),
        x_nm=values.get("x", None),
        methods=values.get("methods", ("exact-N",)),
        out=values.get("out", "trace.csv"),
    )


def _parse_incidence(rhs: str, lineno: int) -> Incidence:
    if rhs.strip() == "doublet-center":
        return Incidence(kind="doublet-center")
    m = _ABS_RE.match(rhs)
    if m:
        v = _float(m.group(1), lineno, "energy")
        if v <= 0:
            raise ConfigError(f"must be > 0 meV, got {v}", line=lineno, field="energy")
        return Incidence(kind="absolute", value=v * 1e-3)
    m = _OFFSET_RE.match(rhs)
    if m:
        c = _float(m.group(2), lineno, "energy")
        if m.group(1) == "-":
            c = -c
        return Incidence(kind="offset", value=c)
    raise ConfigError(
        f"expected '<float> meV', 'E1 + <c>*Gamma1' or 'doublet-center', "
        f"got '{rhs}'",
        line=lineno,
        field="energy",
    )


@dataclass(frozen=True)
class ResolvedScenario:
    """A ScenarioConfig bound to its profile, poles, and grids."""

    config: ScenarioConfig
    problem: ShutterProblem
    E_meV: float
    tau_1: float
    x: float
    times: np.ndarray


def resolve_scenario(cfg: ScenarioConfig) -> ResolvedScenario:
    """Build the profile, find poles, resolve incidence, lay the time grid.

    Symbolic incidence ("E1 + c*Gamma1", "doublet-center") resolves against
    the structure's own computed doublet.
    """
    profile = cfg.profile()
    inc = cfg.incidence
    n_poles = cfg.n_poles
    needs_doublet = inc.kind == "doublet-center" or any(
        m in cfg.methods for m in ("two-level-M", "two-level-closed")
    )
    if needs_doublet:
        n_poles = max(n_poles, 2)
    elif inc.kind == "offset":
        n_poles = max(n_poles, 1)
    if inc.kind != "absolute" and profile.is_free:
        raise ConfigError(
            f"incidence '{inc.describe()}' needs resonances; profile is free",
            field="energy",
        )
    spectrum = make_spectrum(profile, n_poles)
    if inc.kind == "absolute":
        E = inc.value
    elif inc.kind == "offset":
        p1 = spectrum.poles[0]
        E = p1.E_position + inc.value * p1.Gamma
    else:
        p1, p2 = spectrum.poles[:2]
        E = 0.5 * (p1.E_position + p2.E_position)
    problem = spectrum.at(E)
    if not problem.modes:
        raise ConfigError(
            "time grid in tau1 units needs a resonant structure", field="t_max"
        )
    tau_1 = problem.modes[0].pole.tau
    t_end = cfg.t_max_tau1 * tau_1
    x = cfg.x_nm if cfg.x_nm is not None else profile.total_length
    if x < 0 or x > profile.total_length:
        raise ConfigError(
            f"x = {x} nm outside [0, {profile.total_length}]", field="x"
        )
    times = np.linspace(0.0, t_end, cfg.points)
    return ResolvedScenario(
        config=cfg,
        problem=problem,
        E_meV=float(E * 1e3),
        tau_1=float(tau_1),
        x=float(x),
        times=times,
    )
