"""Figure presets: frozen scenario sets reproducing the five study figures.

Each preset emits one CSV per curve, a gnuplot script, and a manifest of
`check:` lines (expected vs measured with verdicts) plus `info:` records.
A preset whose internal checks fail still writes all files; the caller
(CLI `figure` subcommand) turns a failed manifest into a non-zero exit.

Stated reference numbers that depend on the source's printed resonance
parameters fail honestly here when the self-computed doublet sits a few
tenths of a percent away (see the pole table the selftest prints); every
such number still appears in the manifest with its measured counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Incidence, ScenarioConfig, resolve_scenario
from .errors import DomainError
from .output import Manifest, gnuplot_script, write_trace_csv
from .scattering import transmission
from .transient import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
    evolve_trace,
)
from .twolevel import (
    density_resonant_exponential,
    dominant_frequency_series,
    frequencies,
)

__all__ = ["FigurePreset", "FigureResult", "PRESETS", "run_figure"]

TRIPLE_LAYERS = ((3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12))
DOUBLE_LAYERS = ((5.0, 0.23), (5.0, 0.0), (5.0, 0.23))
MASS_RATIO = 0.067


def fig3b_layers(b2: float) -> tuple[tuple[float, float], ...]:
    """The triple barrier with its central barrier widened to b2 nm."""
    return ((3.0, 0.12), (16.0, 0.0), (float(b2), 0.12), (16.0, 0.0), (3.0, 0.12))


def _triple_cfg(**kw) -> ScenarioConfig:
    return ScenarioConfig(layers=TRIPLE_LAYERS, mass_ratio=MASS_RATIO, **kw)


@dataclass(frozen=True)
class FigurePreset:
    preset_id: str
    description: str
    configs: tuple[ScenarioConfig, ...]


@dataclass
class FigureResult:
    preset_id: str
    files: list[str]
    manifest_path: str
    manifest: Manifest

    @property
    def ok(self) -> bool:
        return self.manifest.ok


PRESETS: dict[str, FigurePreset] = {
    "fig1": FigurePreset(
        "fig1",
        "triple barrier offresonance: exact N=4 vs closed two-level density",
        (
            _triple_cfg(
                incidence=Incidence("offset", 2.0),
                n_poles=4,
                methods=(METHOD_EXACT, METHOD_TWO_LEVEL_CLOSED),
                out="fig1",
            ),
        ),
    ),
    "fig2a": FigurePreset(
        "fig2a",
        "triple barrier on resonance: doublet M-form vs exponential envelope",
        (
            _triple_cfg(
                incidence=Incidence("offset", 0.0),
                n_poles=2,
                methods=(METHOD_TWO_LEVEL_M, METHOD_EXPONENTIAL),
                out="fig2a",
            ),
        ),
    ),
    "fig2b": FigurePreset(
        "fig2b",
        "triple barrier at the doublet center: single-frequency regime",
        (
            _triple_cfg(
                incidence=Incidence("doublet-center"),
                n_poles=4,
                methods=(METHOD_EXACT, METHOD_TWO_LEVEL_CLOSED),
                out="fig2b",
            ),
        ),
    ),
    "fig3a": FigurePreset(
        "fig3a",
        "transient enhancement: triple at the doublet center vs double barrier",
        (
            _triple_cfg(
                incidence=Incidence("doublet-center"),
                n_poles=4,
                methods=(METHOD_EXACT,),
                out="fig3a_triple",
            ),
            ScenarioConfig(
                layers=DOUBLE_LAYERS,
                mass_ratio=MASS_RATIO,
                incidence=Incidence("offset", 3.515),
                n_poles=2,
                methods=(METHOD_EXACT,),
                out="fig3a_double",
            ),
        ),
    ),
    "fig3b": FigurePreset(
        "fig3b",
        "transmission enhancement vs central barrier width b2 = 3, 4, 5 nm",
        tuple(
            ScenarioConfig(
                layers=fig3b_layers(b2),
                mass_ratio=MASS_RATIO,
                incidence=Incidence("doublet-center"),
                n_poles=4,
                methods=(METHOD_EXACT,),
                out=f"fig3b_b2_{b2}nm",
            )
            for b2 in (3, 4, 5)
        ),
    ),
}


# --- checks shared with the acceptance criteria ---------------------------
# Each returns (measured, passed); names, expected strings and tolerances
# stay with the callers.


def check_closed_two_level(trace, tau_1: float, tol: float):
    """Max relative deviation of the closed two-level density from the
    exact one on t >= 0.5 tau1."""
    late = trace.times >= 0.5 * tau_1
    exact = trace.densities[METHOD_EXACT][late]
    closed = trace.densities[METHOD_TWO_LEVEL_CLOSED][late]
    dev = float(np.max(np.abs(closed - exact) / np.abs(exact)))
    return dev, bool(dev < tol)


def envelope_residual(trace) -> np.ndarray:
    """Doublet M-form density minus the exponential envelope."""
    return trace.densities[METHOD_TWO_LEVEL_M] - trace.densities[METHOD_EXPONENTIAL]


def check_envelope(trace, T: float, tol: float):
    """Max |doublet M-form - envelope| against tol * T."""
    dev = float(np.max(np.abs(envelope_residual(trace))))
    return dev, bool(dev < tol * T)


def check_frequency(times, series, target: float, tol: float):
    """Dominant frequency of series (None if none) within tol * target."""
    f = dominant_frequency_series(times, series)
    return f, bool(f is not None and abs(f - target) <= tol * target)


def check_enhancement(T_values, floor: float):
    """Strict growth of T over the b2 sweep; its last value above floor."""
    increasing = all(a < b for a, b in zip(T_values, T_values[1:]))
    return (
        (float(T_values[-1] - T_values[0]), increasing),
        (float(T_values[-1]), bool(T_values[-1] > floor)),
    )


def run_figure(preset_id: str, out_dir: str = ".") -> FigureResult:
    """Run one preset into out_dir; see module docstring for outputs."""
    if preset_id not in PRESETS:
        raise DomainError(
            f"unknown preset '{preset_id}'; available: {', '.join(sorted(PRESETS))}"
        )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "fig1": _run_fig1,
        "fig2a": _run_fig2a,
        "fig2b": _run_fig2b,
        "fig3a": _run_fig3a,
        "fig3b": _run_fig3b,
    }[preset_id]
    manifest, files = runner(PRESETS[preset_id], out)
    manifest_path = manifest.write(out / f"{preset_id}_manifest.txt")
    return FigureResult(
        preset_id=preset_id,
        files=[str(f) for f in files],
        manifest_path=manifest_path,
        manifest=manifest,
    )


def _emit_curves(cfg, out: Path):
    """Resolve cfg, evolve its methods and write one CSV per method."""
    rs = resolve_scenario(cfg)
    trace = evolve_trace(rs.problem, rs.x, rs.times, cfg.methods)
    files = [write_trace_csv(out / f"{cfg.out}_{m}.csv", trace, m) for m in cfg.methods]
    return rs, files, trace


def _plot_methods(preset: FigurePreset, cfg, files, out: Path) -> str:
    """gnuplot script with one curve per method of a one-config preset."""
    curves = [(Path(f).name, m) for f, m in zip(files, cfg.methods)]
    return gnuplot_script(out / f"{preset.preset_id}.gp", preset.description, curves)


def _run_fig1(preset: FigurePreset, out: Path):
    cfg = preset.configs[0]
    man = Manifest(title=preset.description)
    man.add_info("window", "t in [0, 10 tau1], 2000 points (reproduction choice)")
    rs, files, trace = _emit_curves(cfg, out)
    T = abs(rs.problem.field.t) ** 2
    man.add_info("incidence", cfg.incidence.describe())
    man.add_info("resolved_E_meV", rs.E_meV)
    man.add_info("T_at_E", float(T))
    man.check_abs("E1 + 2*Gamma1 (meV)", 12.33, rs.E_meV, 0.005)
    man.check_abs("tau1 (ps)", 1.61, rs.tau_1, 0.01)
    man.check_bound(
        "two-level closed vs exact, max rel dev on [0.5, 10] tau1",
        "< 0.05",
        *check_closed_two_level(trace, rs.tau_1, 0.05),
    )
    files.append(_plot_methods(preset, cfg, files, out))
    return man, files


def _run_fig2a(preset: FigurePreset, out: Path):
    cfg = preset.configs[0]
    man = Manifest(title=preset.description)
    rs, files, trace = _emit_curves(cfg, out)
    T = abs(rs.problem.field.t) ** 2
    p1 = rs.problem.modes[0].pole
    man.add_info("incidence", cfg.incidence.describe())
    man.add_info("resolved_E_meV", rs.E_meV)
    man.add_info("T_at_E1", float(T))
    man.add_info("envelope_time_constant_ps", 2.0 * p1.hbar / p1.Gamma)
    d_m = trace.densities[METHOD_TWO_LEVEL_M]
    man.check_bound(
        "max |doublet M-form - envelope| over [0, 10 tau1]",
        f"< {0.05 * T:.6g} (0.05 T)",
        *check_envelope(trace, T, 0.05),
    )
    # the same envelope with the bare pole lifetime misses by ~0.38 T;
    # recorded so nobody silently "fixes" the time constant
    d_env_bare = density_resonant_exponential(float(T), p1.tau, trace.times)
    man.add_info(
        "bare-lifetime envelope max deviation (not used)",
        float(np.max(np.abs(d_m - d_env_bare))),
    )
    freqs = frequencies(rs.problem.E, p1, rs.problem.modes[1].pole)
    f_res, ok = check_frequency(
        trace.times, envelope_residual(trace), freqs.omega_21, 0.05
    )
    man.check_bound(
        "residual oscillation frequency (rad/ps)",
        f"{freqs.omega_21:.6g} +- 5%",
        -1.0 if f_res is None else float(f_res),
        ok,
    )
    files.append(_plot_methods(preset, cfg, files, out))
    return man, files


def _run_fig2b(preset: FigurePreset, out: Path):
    cfg = preset.configs[0]
    man = Manifest(title=preset.description)
    rs, files, trace = _emit_curves(cfg, out)
    T = abs(rs.problem.field.t) ** 2
    man.add_info("incidence", cfg.incidence.describe())
    man.add_info("resolved_E_meV", rs.E_meV)
    man.check_abs("T at the doublet center", 0.119, float(T), 0.001)
    freqs = frequencies(
        rs.problem.E, rs.problem.modes[0].pole, rs.problem.modes[1].pole
    )
    man.add_info("omega21_rad_per_ps", freqs.omega_21)
    target = freqs.omega_21 / 2.0
    f_dom, ok = check_frequency(
        trace.times, trace.densities[METHOD_EXACT], target, 0.03
    )
    man.check_bound(
        "dominant frequency (rad/ps)",
        f"{target:.6g} +- 3%",
        -1.0 if f_dom is None else float(f_dom),
        ok,
    )
    files.append(_plot_methods(preset, cfg, files, out))
    return man, files


def _run_fig3a(preset: FigurePreset, out: Path):
    cfg_t, cfg_d = preset.configs
    man = Manifest(title=preset.description)
    rs_t, files_t, trace_t = _emit_curves(cfg_t, out)
    rs_d, files_d, trace_d = _emit_curves(cfg_d, out)
    T_t = abs(rs_t.problem.field.t) ** 2
    T_d = abs(rs_d.problem.field.t) ** 2
    man.add_info("triple incidence", cfg_t.incidence.describe())
    man.add_info("double incidence", cfg_d.incidence.describe())
    man.add_info("triple resolved_E_meV", rs_t.E_meV)
    man.add_info("double resolved_E_meV", rs_d.E_meV)
    man.add_info("triple transient maximum", float(trace_t.densities[METHOD_EXACT].max()))
    man.add_info("double transient maximum", float(trace_d.densities[METHOD_EXACT].max()))
    man.check_abs("triple asymptote T", 0.119, float(T_t), 0.001)
    man.check_abs("double asymptote T (own doublet offset)", 0.0229, float(T_d), 0.0002)
    # the stated value is tied to the printed incidence energy; record it too
    T_lit = transmission(cfg_d.profile(), 83.740e-3)[1]
    man.check_abs("double T at the stated 83.740 meV", 0.0229, float(T_lit), 0.0002)
    files = files_t + files_d
    files.append(
        gnuplot_script(
            out / "fig3a.gp",
            preset.description,
            [
                (Path(files_t[0]).name, "triple barrier at doublet center"),
                (Path(files_d[0]).name, "double barrier, matched offset"),
            ],
        )
    )
    return man, files


def _run_fig3b(preset: FigurePreset, out: Path):
    man = Manifest(title=preset.description)
    files: list[str] = []
    curve_specs = []
    T_values = []
    for cfg, b2 in zip(preset.configs, (3, 4, 5)):
        rs, f, trace = _emit_curves(cfg, out)
        files.extend(f)
        T = abs(rs.problem.field.t) ** 2
        T_values.append(float(T))
        man.add_info(f"b2={b2}nm doublet center (meV)", rs.E_meV)
        man.add_info(f"b2={b2}nm T at doublet center", float(T))
        man.add_info(
            f"b2={b2}nm transient maximum",
            float(trace.densities[METHOD_EXACT].max()),
        )
        curve_specs.append((Path(f[0]).name, f"b2 = {b2} nm"))
    ordering, last = check_enhancement(T_values, 0.5)
    man.check_bound(
        "T(doublet center) strictly increasing over b2 = 3, 4, 5 nm",
        "T(3) < T(4) < T(5)",
        *ordering,
    )
    man.check_bound("T(doublet center) at b2 = 5 nm", "> 0.5", *last)
    files.append(gnuplot_script(out / "fig3b.gp", preset.description, curve_specs))
    return man, files
