"""Scenario configuration: a flat, typed key-value text format.

Chosen over nested formats so fixtures diff line by line.  Grammar:

    # comment (full-line or trailing)
    layer      = <width> nm, <height> eV      (repeated, ordered)
    mass_ratio = <float>
    energy     = <float> meV | E1 + <float>*Gamma1 | doublet-center
    n_poles    = <int>                        (default 4, >= 1)
    t_max      = <float> tau1                 (default 10 tau1)
    points     = <int>                        (default 2000)
    x          = L | <float> nm               (default L)
    methods    = tag[, tag...]                (default exact-N)
    out        = <path>                       (default trace.csv)

Units are mandatory on dimensioned fields; unknown keys, duplicate scalar
keys, repeated method tags and malformed values are errors carrying the
line number and field name.  The defaults above live only on
ScenarioConfig: parse_config maps each scalar key to its field and parser
(_FIELDS) and leaves out every key the text does not set.  Symbolic incidence specs resolve only after the
profile's poles are found, deterministically from the profile alone;
run_scenario resolves, evolves and writes one trace CSV per method.
"""

from __future__ import annotations

import operator
import re
from dataclasses import MISSING, dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .model import PotentialProfile, build_profile
from .output import write_trace_csv
from .transient import _MODES_NEEDED, METHODS, ShutterProblem, evolve_trace, make_spectrum

__all__ = [
    "Incidence",
    "ScenarioConfig",
    "parse_config",
    "override",
    "resolve_scenario",
    "run_scenario",
]


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

    def energy(self, poles) -> float:
        """The incidence energy (eV) against a structure's poles, in order."""
        if self.kind == "absolute":
            return self.value
        p1 = poles[0]
        if self.kind == "offset":
            return p1.E_position + self.value * p1.Gamma
        return 0.5 * (p1.E_position + poles[1].E_position)


# poles each incidence kind reads: none, E1 and Gamma1, or the doublet
_POLES_NEEDED = {"absolute": 0, "offset": 1, "doublet-center": 2}


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
_OFFSET_RE = re.compile(r"^\s*E1\s*([+-])\s*([0-9.eE+-]+)\s*\*\s*Gamma1\s*$")
_COMPARE = {">": operator.gt, ">=": operator.ge}


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


def _quantity(
    text: str, line: int, field: str, unit: str, expected: str | None = None
) -> float:
    """The number of '<float> <unit>'; other text raises naming `expected`."""
    m = re.fullmatch(rf"\s*([-+0-9.eE]+)\s*{unit}\s*", text)
    if not m:
        expected = expected or f"'<float> {unit}'"
        raise ConfigError(f"expected {expected}, got '{text}'", line=line, field=field)
    return _float(m.group(1), line, field)


def _bound(v, op: str, bound: int, line: int, field: str, unit: str = ""):
    """v itself when `v op bound` holds; a ConfigError otherwise."""
    if not _COMPARE[op](v, bound):
        raise ConfigError(f"must be {op} {bound}{unit}, got {v}", line=line, field=field)
    return v


def _parse_layer(rhs: str, line: int, field: str) -> tuple[float, float]:
    m = _LAYER_RE.match(rhs)
    if not m:
        raise ConfigError(
            f"expected '<width> nm, <height> eV', got '{rhs}'", line=line, field=field
        )
    w = _float(m.group(1), line, f"{field} width")
    h = _float(m.group(2), line, f"{field} height")
    if w <= 0:
        raise ConfigError(f"width must be > 0 nm, got {w}", line=line, field=field)
    if h < 0:
        raise ConfigError(f"height must be >= 0 eV, got {h}", line=line, field=field)
    return w, h


def _parse_incidence(rhs: str, line: int, field: str) -> Incidence:
    if rhs == "doublet-center":
        return Incidence(kind="doublet-center")
    m = _OFFSET_RE.match(rhs)
    if m:
        c = _float(m.group(2), line, field)
        return Incidence(kind="offset", value=-c if m.group(1) == "-" else c)
    v = _quantity(
        rhs, line, field, "meV",
        "'<float> meV', 'E1 + <c>*Gamma1' or 'doublet-center'",
    )
    return Incidence(kind="absolute", value=_bound(v, ">", 0, line, field, " meV") * 1e-3)


def _parse_x(rhs: str, line: int, field: str) -> float | None:
    if rhs == "L":
        return None
    return _quantity(rhs, line, field, "nm", "'L' or '<float> nm'")


def _parse_methods(rhs: str, line: int, field: str) -> tuple[str, ...]:
    tags = tuple(s.strip() for s in rhs.split(","))
    for i, tag in enumerate(tags):
        if tag not in METHODS:
            raise ConfigError(
                f"unknown method '{tag}'; valid: {', '.join(METHODS)}",
                line=line,
                field=field,
            )
        if tag in tags[:i]:
            raise ConfigError(f"duplicate method '{tag}'", line=line, field=field)
    return tags


def _parse_out(rhs: str, line: int, field: str) -> str:
    if not rhs:
        raise ConfigError("empty path", line=line, field=field)
    return rhs


# every scalar key: (ScenarioConfig field, parser(rhs, line, key), bound or None)
_FIELDS = {
    "mass_ratio": ("mass_ratio", _float, (">", 0)),
    "energy": ("incidence", _parse_incidence, None),
    "n_poles": ("n_poles", _int, (">=", 1)),
    "t_max": ("t_max_tau1", partial(_quantity, unit="tau1"), (">", 0)),
    "points": ("points", _int, (">=", 2)),
    "x": ("x_nm", _parse_x, None),
    "methods": ("methods", _parse_methods, None),
    "out": ("out", _parse_out, None),
}


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
        if key == "layer":
            layers.append(_parse_layer(rhs, lineno, f"layer {len(layers) + 1}"))
            continue
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}'", line=lineno, field=key)
        if key in seen:
            raise ConfigError(
                f"duplicate key (first on line {seen[key]})", line=lineno, field=key
            )
        seen[key] = lineno
        name, parse, bound = _FIELDS[key]
        values[name] = parse(rhs, lineno, key)
        if bound is not None:
            _bound(values[name], *bound, lineno, key)
    if not layers:
        raise ConfigError("no 'layer' lines", field="layer")
    defaults = {f.name for f in fields(ScenarioConfig) if f.default is not MISSING}
    for key, (name, _, _) in _FIELDS.items():
        if name not in values and name not in defaults:
            raise ConfigError("missing required key", field=key)
    return ScenarioConfig(layers=tuple(layers), **values)


def override(cfg: ScenarioConfig, **values) -> ScenarioConfig:
    """cfg with the named config keys replaced (None leaves a key as it is).

    Each value is checked against the key's bound in _FIELDS, so an override
    fails like the same value in the config text, naming its key.
    """
    changes = {}
    for key, value in values.items():
        if value is None:
            continue
        name, _, bound = _FIELDS[key]
        if bound is not None:
            _bound(value, *bound, None, key)
        changes[name] = value
    return replace(cfg, **changes)


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

    The pole count is the largest of cfg.n_poles, what the incidence reads
    (offset: pole 1, doublet-center: poles 1 and 2) and what each method
    needs.  Symbolic incidence ("E1 + c*Gamma1", "doublet-center") resolves
    against the structure's own computed doublet.
    """
    profile = cfg.profile()
    inc = cfg.incidence
    if profile.is_free:
        raise ConfigError("profile is free: the tau1 time grid needs a resonance", field="layer")
    L = profile.total_length
    x = cfg.x_nm if cfg.x_nm is not None else L
    if not (0 <= x <= L):
        raise ConfigError(f"x = {x} nm outside [0, {L}]", field="x")
    needed = [_POLES_NEEDED[inc.kind], *(_MODES_NEEDED[m] for m in cfg.methods)]
    spectrum = make_spectrum(profile, max(cfg.n_poles, *needed))
    E = inc.energy(spectrum.poles)
    tau_1 = spectrum.poles[0].tau
    return ResolvedScenario(
        config=cfg,
        problem=spectrum.at(E),
        E_meV=float(E * 1e3),
        tau_1=float(tau_1),
        x=float(x),
        times=np.linspace(0.0, cfg.t_max_tau1 * tau_1, cfg.points),
    )


def run_scenario(cfg: ScenarioConfig, out_dir):
    """Resolve cfg, evolve its methods and write one CSV per method.

    Each method's trace goes to out_dir/<stem>_<method>.csv, with <stem>
    the stem of cfg.out.  Returns (resolved scenario, written paths, trace).
    """
    rs = resolve_scenario(cfg)
    trace = evolve_trace(rs.problem, rs.x, rs.times, cfg.methods)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = Path(cfg.out).stem or "trace"
    files = [write_trace_csv(out / f"{stem}_{m}.csv", trace, m) for m in cfg.methods]
    return rs, files, trace
