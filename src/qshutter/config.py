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
ScenarioConfig, which reads each field by the rule of its key's _FIELDS
row; parse_config maps each scalar key to its field and parser, leaves out
every key the text does not set, and adds a key's line to the error of its
rule; override is dataclasses.replace by key.  Symbolic incidence specs
resolve only after the profile's poles are found, deterministically from
the profile alone; run_scenario resolves, evolves and writes one trace CSV
per method.
"""

from __future__ import annotations

import re
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import ConfigError, ProfileError
from .model import PotentialProfile, _count, _real_finite, build_profile
from .output import write_trace_csv
from .transient import _MODES_NEEDED, ShutterProblem, _method_tags, evolve_trace, make_spectrum

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
    """Incidence-energy spec: absolute | offset from E1 | doublet center; a kind
    outside _POLES_NEEDED, a value that is not a real number
    (model._real_finite) or an absolute energy <= 0 raises ConfigError naming
    the energy key."""

    kind: str  # "absolute" | "offset" | "doublet-center"
    value: float = 0.0  # eV for absolute, Gamma_1 multiples for offset

    def __post_init__(self):
        error = partial(ConfigError, field="energy")
        if not (isinstance(self.kind, str) and self.kind in _POLES_NEEDED):
            raise error(f"unknown incidence kind {self.kind!r}; valid: {', '.join(_POLES_NEEDED)}")
        value = _real_finite(self.value, "value", error, positive=self.kind == "absolute")
        object.__setattr__(self, "value", value)

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
    """One scenario; each field but layers is read by the rule of its key's
    _FIELDS row, a ConfigError naming the key.  layers are built once by
    build_profile into the profile profile() returns, a ConfigError naming
    'layer N' (from 1), and kept as that profile's (width, height) floats."""

    layers: tuple[tuple[float, float], ...]
    mass_ratio: float
    incidence: Incidence
    n_poles: int = 4
    t_max_tau1: float = 10.0
    points: int = 2000
    x_nm: float | None = None  # None means x = L
    methods: tuple[str, ...] = ("exact-N",)
    out: str = "trace.csv"
    _profile: PotentialProfile = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, (name, _, rule) in _FIELDS.items():
            value = getattr(self, name)
            if value is not None or name != "x_nm":  # x = None is x = L
                value = rule(value, "value", error=partial(ConfigError, field=key))
                object.__setattr__(self, name, value)
        try:
            profile = build_profile(self.layers, self.mass_ratio)
        except ProfileError as err:
            # build_profile names layer j counting from 0
            m = re.fullmatch(r"(?:layer (\d+): )?(.*)", str(err))
            key = f"layer {int(m[1]) + 1}" if m[1] else "layer"
            raise ConfigError(m[2], field=key) from None
        object.__setattr__(self, "layers", tuple((l.width, l.height) for l in profile.layers))
        object.__setattr__(self, "_profile", profile)

    def profile(self) -> PotentialProfile:
        return self._profile


_LAYER_RE = re.compile(
    r"^\s*([-+0-9.eE]+)\s*nm\s*,\s*([-+0-9.eE]+)\s*eV\s*$"
)
_OFFSET_RE = re.compile(r"^\s*E1\s*([+-])\s*([0-9.eE+-]+)\s*\*\s*Gamma1\s*$")


def _number(text: str, line: int, field: str) -> int | float:
    """The int that text spells when it is all digits after a sign, else its
    float; the key's model rule then decides whether it is a valid value."""
    try:
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        raise ConfigError(f"not a number: '{text}'", line=line, field=field)


def _quantity(
    text: str, line: int, field: str, unit: str, expected: str | None = None
) -> int | float:
    """The number of '<float> <unit>'; other text raises naming `expected`."""
    m = re.fullmatch(rf"\s*([-+0-9.eE]+)\s*{unit}\s*", text)
    if not m:
        expected = expected or f"'<float> {unit}'"
        raise ConfigError(f"expected {expected}, got '{text}'", line=line, field=field)
    return _number(m.group(1), line, field)


def _parse_layer(rhs: str, line: int, field: str) -> tuple[int | float, int | float]:
    m = _LAYER_RE.match(rhs)
    if not m:
        raise ConfigError(
            f"expected '<width> nm, <height> eV', got '{rhs}'", line=line, field=field
        )
    return _number(m.group(1), line, field), _number(m.group(2), line, field)


def _parse_incidence(rhs: str, line: int, field: str) -> Incidence:
    if rhs == "doublet-center":
        return Incidence(kind="doublet-center")
    m = _OFFSET_RE.match(rhs)
    if m:
        c = _number(m.group(2), line, field)
        return Incidence(kind="offset", value=-c if m.group(1) == "-" else c)
    expected = "'<float> meV', 'E1 + <c>*Gamma1' or 'doublet-center'"
    return Incidence(kind="absolute", value=_quantity(rhs, line, field, "meV", expected) * 1e-3)


def _parse_x(rhs: str, line: int, field: str) -> float | None:
    if rhs == "L":
        return None
    return _quantity(rhs, line, field, "nm", "'L' or '<float> nm'")


def _instance(value, name: str, error, kind):
    """value if it is of type kind and not empty; anything else raises error."""
    if not (isinstance(value, kind) and value):
        raise error(f"{name} must be of type {kind.__name__} and not empty, got {value!r}")
    return value


# every scalar key: (ScenarioConfig field, parser(rhs, line, key), the rule
# (value, name, error) its value obeys)
_FIELDS = {
    "mass_ratio": ("mass_ratio", _number, partial(_real_finite, positive=True)),
    "energy": ("incidence", _parse_incidence, partial(_instance, kind=Incidence)),
    "n_poles": ("n_poles", _number, partial(_count, least=1)),
    "t_max": ("t_max_tau1", partial(_quantity, unit="tau1"), partial(_real_finite, positive=True)),
    "points": ("points", _number, partial(_count, least=2)),
    "x": ("x_nm", _parse_x, _real_finite),
    "methods": ("methods", lambda rhs, *_: tuple(s.strip() for s in rhs.split(",")), _method_tags),
    "out": ("out", lambda rhs, *_: rhs, partial(_instance, kind=str)),
}


def parse_config(text: str) -> ScenarioConfig:
    """Strict parse of config text, a str; see module docstring for the grammar."""
    if not isinstance(text, str):
        raise ConfigError(f"config text must be a str, got {type(text).__name__}")
    layers: list[tuple[float, float]] = []
    seen: dict[str, int] = {}
    values: dict[str, object] = {}
    try:
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
                seen[f"layer {len(layers)}"] = lineno
                continue
            if key not in _FIELDS:
                raise ConfigError(f"unknown key '{key}'", line=lineno, field=key)
            if key in seen:
                raise ConfigError(
                    f"duplicate key (first on line {seen[key]})", line=lineno, field=key
                )
            seen[key] = lineno
            name, parse, _ = _FIELDS[key]
            values[name] = parse(rhs, lineno, key)
        if not layers:
            raise ConfigError("no 'layer' lines", field="layer")
        defaults = {f.name for f in fields(ScenarioConfig) if f.default is not MISSING}
        for key, (name, _, _) in _FIELDS.items():
            if name not in values and name not in defaults:
                raise ConfigError("missing required key", field=key)
        return ScenarioConfig(layers=tuple(layers), **values)
    except ConfigError as err:
        # a rule's error names its key or layer, whose line is in seen
        if err.line is not None or err.field not in seen:
            raise
        raise ConfigError(err.message, line=seen[err.field], field=err.field) from None


# the shipped configs: the one spelling of the reference scenarios
_SHIPPED = Path(__file__).with_name("configs")


def _shipped(name: str) -> ScenarioConfig:
    """The shipped config `name`, with or without its .cfg suffix."""
    path = _SHIPPED / (name if name.endswith(".cfg") else f"{name}.cfg")
    if not path.is_file():
        shipped = ", ".join(sorted(p.stem for p in _SHIPPED.glob("*.cfg")))
        raise ConfigError(
            f"'{name}' is neither a file nor a shipped config (shipped: {shipped})",
            field="config",
        )
    return parse_config(path.read_text())


def override(cfg: ScenarioConfig, **values) -> ScenarioConfig:
    """cfg with the named config keys replaced (None leaves a key as it is);
    ScenarioConfig reads each value by its key's rule, as parse_config's.  A
    key that is not a scalar config key raises ConfigError naming it."""
    for key in values:
        if key not in _FIELDS:
            raise ConfigError(f"unknown key '{key}'", field=key)
    return replace(cfg, **{_FIELDS[key][0]: v for key, v in values.items() if v is not None})


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
