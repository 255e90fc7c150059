"""Figure presets: frozen scenario sets reproducing the five study figures.

Each preset emits one CSV per curve, a gnuplot script, and a manifest of
`check:` lines (expected vs measured with verdicts) plus `info:` records.
run_figure runs every config of a preset and hands the runs to the preset's
report function, which adds the infos and checks and names the plot curves.
A preset whose internal checks fail still writes all files; the caller
(CLI `figure` subcommand) turns a failed manifest into a non-zero exit.

The shipped configs, configs/triple_barrier.cfg and double_barrier.cfg,
are the one spelling of the reference structures and their scenarios:
TRIPLE_LAYERS, DOUBLE_LAYERS and MASS_RATIO are read from them, and every
preset config is one of them with some keys replaced.  fig1 is the triple
config with its own out; fig2a replaces the energy (E1 + 0*Gamma1),
n_poles (2) and methods (two-level-M, exponential); fig2b the energy
(doublet-center); fig3a's triple run the energy (doublet-center) and
methods (exact-N), its double run only out; fig3b's runs are fig3a's
triple with the central barrier's width (layers) at b2.

The checks a figure shares with an acceptance criterion (tau1, the closed
two-level fidelity, the envelope and its beat, the b2 enhancement, the
double-barrier T at 83.740 meV) are defined once here, under the
selftest's names and expected text, and both sides record them.

Stated reference numbers that depend on the source's printed resonance
parameters fail honestly here when the self-computed doublet sits a few
tenths of a percent away (see the pole table the selftest prints); every
such number still appears in the manifest with its measured counterpart.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import Incidence, ScenarioConfig, _shipped, run_scenario
from .errors import DomainError
from .output import Check, Manifest, check_abs, check_bound, gnuplot_script
from .scattering import transmission
from .transient import (
    METHOD_EXACT,
    METHOD_EXPONENTIAL,
    METHOD_TWO_LEVEL_CLOSED,
    METHOD_TWO_LEVEL_M,
)
from .twolevel import (
    density_resonant_exponential,
    dominant_frequency_series,
    frequencies,
)

__all__ = ["FigurePreset", "FigureResult", "PRESETS", "run_figure"]

_TRIPLE = _shipped("triple_barrier")
_DOUBLE = _shipped("double_barrier")
TRIPLE_LAYERS = _TRIPLE.layers
DOUBLE_LAYERS = _DOUBLE.layers
MASS_RATIO = _TRIPLE.mass_ratio
FIG3B_B2 = (3, 4, 5)  # central barrier widths of fig3b, nm


def fig3b_layers(b2: float) -> tuple[tuple[float, float], ...]:
    """The triple barrier with its central barrier widened to b2 nm."""
    return (*TRIPLE_LAYERS[:2], (float(b2), TRIPLE_LAYERS[2][1]), *TRIPLE_LAYERS[3:])


# --- checks shared with the acceptance criteria ---------------------------
# Each returns complete Checks under the selftest's names and expected text.


def check_tau1(tau_1: float) -> Check:
    return check_abs("tau1 (ps)", 1.61, tau_1, 0.01)


def check_closed_two_level(trace, tau_1: float) -> Check:
    """Max relative deviation of the closed two-level density from the
    exact one on t >= 0.5 tau1."""
    late = trace.times >= 0.5 * tau_1
    exact = trace.densities[METHOD_EXACT][late]
    closed = trace.densities[METHOD_TWO_LEVEL_CLOSED][late]
    dev = float(np.max(np.abs(closed - exact) / np.abs(exact)))
    return check_bound(
        "closed two-level vs exact, max rel dev on [0.5, 10] tau1", "< 0.05", dev, dev < 0.05
    )


def check_frequency(name: str, expected: str, times, series, target: float, tol: float) -> Check:
    """Dominant frequency of series (nan if none) within tol * target."""
    f = dominant_frequency_series(times, series)
    f = math.nan if f is None else f
    return check_bound(name, expected, f, abs(f - target) <= tol * target)


def check_envelope(trace, T: float, omega_21: float) -> list[Check]:
    """The doublet M-form density against its exponential envelope: the
    max deviation below 0.05 T, and the residual beating at omega_21."""
    residual = trace.densities[METHOD_TWO_LEVEL_M] - trace.densities[METHOD_EXPONENTIAL]
    dev = float(np.max(np.abs(residual)))
    return [
        check_bound(
            "max |M-form density - envelope| over [0, 10] tau1",
            f"< 0.05 T = {0.05 * T:.6g}",
            dev,
            dev < 0.05 * T,
        ),
        check_frequency(
            "residual oscillation frequency (rad/ps)",
            f"{omega_21:.4f} +- 5%",
            trace.times,
            residual,
            omega_21,
            0.05,
        ),
    ]


def check_enhancement(T_values) -> list[Check]:
    """T at the doublet center over b2 = 3, 4, 5 nm: strict growth, and
    the last value above 0.5."""
    increasing = all(a < b for a, b in zip(T_values, T_values[1:]))
    return [
        check_bound(
            "T(Ebar(b2)) ordering over b2 = 3, 4, 5 nm",
            "strictly increasing",
            float(T_values[-1] - T_values[0]),
            increasing,
        ),
        check_bound("T(Ebar(5 nm))", "> 0.5", float(T_values[-1]), T_values[-1] > 0.5),
    ]


def check_stated_double_T(double) -> Check:
    """T of the double-barrier profile at the stated 83.740 meV."""
    return check_abs("T(83.740 meV), double", 0.0229, transmission(double, 83.740e-3)[1], 0.0002)


# --- figure reports: infos, checks and plot curves over a preset's runs ----
# runs holds run_scenario's (resolved scenario, files, trace), one per config.


def _method_curves(runs) -> list[tuple[str, str]]:
    """One curve per method of a one-config preset."""
    [(rs, files, _)] = runs
    return [(Path(f).name, m) for f, m in zip(files, rs.config.methods)]


def _T_at_E(rs) -> float:
    return float(abs(rs.problem.field.t) ** 2)


def _report_fig1(man: Manifest, runs):
    [(rs, _, trace)] = runs
    man.add_info("window", "t in [0, 10 tau1], 2000 points (reproduction choice)")
    man.add_info("incidence", rs.config.incidence.describe())
    man.add_info("resolved_E_meV", rs.E_meV)
    man.add_info("T_at_E", _T_at_E(rs))
    man.checks.append(check_abs("E1 + 2*Gamma1 (meV)", 12.33, rs.E_meV, 0.005))
    man.checks.append(check_tau1(rs.tau_1))
    man.checks.append(check_closed_two_level(trace, rs.tau_1))
    return _method_curves(runs)


def _report_fig2a(man: Manifest, runs):
    [(rs, _, trace)] = runs
    T = _T_at_E(rs)
    p1, p2 = (m.pole for m in rs.problem.modes[:2])
    man.add_info("incidence", rs.config.incidence.describe())
    man.add_info("resolved_E_meV", rs.E_meV)
    man.add_info("T_at_E1", T)
    man.add_info("envelope_time_constant_ps", 2.0 * p1.hbar / p1.Gamma)
    # the same envelope with the bare pole lifetime misses by ~0.38 T;
    # recorded so nobody silently "fixes" the time constant
    d_env_bare = density_resonant_exponential(T, p1.tau, trace.times)
    man.add_info(
        "bare-lifetime envelope max deviation (not used)",
        float(np.max(np.abs(trace.densities[METHOD_TWO_LEVEL_M] - d_env_bare))),
    )
    omega_21 = frequencies(rs.problem.E, p1, p2).omega_21
    man.checks.extend(check_envelope(trace, T, omega_21))
    return _method_curves(runs)


def _report_fig2b(man: Manifest, runs):
    [(rs, _, trace)] = runs
    man.add_info("incidence", rs.config.incidence.describe())
    man.add_info("resolved_E_meV", rs.E_meV)
    man.checks.append(check_abs("T at the doublet center", 0.119, _T_at_E(rs), 0.001))
    freqs = frequencies(rs.problem.E, rs.problem.modes[0].pole, rs.problem.modes[1].pole)
    man.add_info("omega21_rad_per_ps", freqs.omega_21)
    target = freqs.omega_21 / 2.0
    density = trace.densities[METHOD_EXACT]
    man.checks.append(
        check_frequency(
            "dominant frequency (rad/ps)", f"{target:.6g} +- 3%", trace.times, density, target, 0.03
        )
    )
    return _method_curves(runs)


def _report_fig3a(man: Manifest, runs):
    (rs_t, files_t, trace_t), (rs_d, files_d, trace_d) = runs
    man.add_info("triple incidence", rs_t.config.incidence.describe())
    man.add_info("double incidence", rs_d.config.incidence.describe())
    man.add_info("triple resolved_E_meV", rs_t.E_meV)
    man.add_info("double resolved_E_meV", rs_d.E_meV)
    man.add_info("triple transient maximum", float(trace_t.densities[METHOD_EXACT].max()))
    man.add_info("double transient maximum", float(trace_d.densities[METHOD_EXACT].max()))
    man.checks.extend([
        check_abs("triple asymptote T", 0.119, _T_at_E(rs_t), 0.001),
        check_abs("double asymptote T (own doublet offset)", 0.0229, _T_at_E(rs_d), 0.0002),
        # the stated value is tied to the printed incidence energy; record it too
        check_stated_double_T(rs_d.problem.profile),
    ])
    return [
        (Path(files_t[0]).name, "triple barrier at doublet center"),
        (Path(files_d[0]).name, "double barrier, matched offset"),
    ]


def _report_fig3b(man: Manifest, runs):
    curves = []
    for b2, (rs, files, trace) in zip(FIG3B_B2, runs):
        man.add_info(f"b2={b2}nm doublet center (meV)", rs.E_meV)
        man.add_info(f"b2={b2}nm T at doublet center", _T_at_E(rs))
        man.add_info(f"b2={b2}nm transient maximum", float(trace.densities[METHOD_EXACT].max()))
        curves.append((Path(files[0]).name, f"b2 = {b2} nm"))
    man.checks.extend(check_enhancement([_T_at_E(rs) for rs, _, _ in runs]))
    return curves


@dataclass(frozen=True)
class FigurePreset:
    """A figure's scenarios and its report(manifest, runs) -> plot curves."""

    preset_id: str
    description: str
    configs: tuple[ScenarioConfig, ...]
    report: Callable[[Manifest, list], list[tuple[str, str]]]


@dataclass
class FigureResult:
    files: list[str]
    manifest_path: str
    manifest: Manifest


PRESETS: dict[str, FigurePreset] = {
    "fig1": FigurePreset(
        "fig1",
        "triple barrier offresonance: exact N=4 vs closed two-level density",
        (replace(_TRIPLE, out="fig1"),),
        _report_fig1,
    ),
    "fig2a": FigurePreset(
        "fig2a",
        "triple barrier on resonance: doublet M-form vs exponential envelope",
        (
            replace(
                _TRIPLE,
                incidence=Incidence("offset", 0.0),
                n_poles=2,
                methods=(METHOD_TWO_LEVEL_M, METHOD_EXPONENTIAL),
                out="fig2a",
            ),
        ),
        _report_fig2a,
    ),
    "fig2b": FigurePreset(
        "fig2b",
        "triple barrier at the doublet center: single-frequency regime",
        (replace(_TRIPLE, incidence=Incidence("doublet-center"), out="fig2b"),),
        _report_fig2b,
    ),
    "fig3a": FigurePreset(
        "fig3a",
        "transient enhancement: triple at the doublet center vs double barrier",
        (
            replace(
                _TRIPLE,
                incidence=Incidence("doublet-center"),
                methods=(METHOD_EXACT,),
                out="fig3a_triple",
            ),
            replace(_DOUBLE, out="fig3a_double"),
        ),
        _report_fig3a,
    ),
    "fig3b": FigurePreset(
        "fig3b",
        "transmission enhancement vs central barrier width b2 = 3, 4, 5 nm",
        tuple(
            replace(
                _TRIPLE,
                layers=fig3b_layers(b2),
                incidence=Incidence("doublet-center"),
                methods=(METHOD_EXACT,),
                out=f"fig3b_b2_{b2}nm",
            )
            for b2 in FIG3B_B2
        ),
        _report_fig3b,
    ),
}


def run_figure(preset_id: str, out_dir: str = ".") -> FigureResult:
    """Run one preset into out_dir; see module docstring for outputs."""
    if preset_id not in PRESETS:
        raise DomainError(
            f"unknown preset '{preset_id}'; available: {', '.join(sorted(PRESETS))}"
        )
    preset = PRESETS[preset_id]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    man = Manifest(title=preset.description)
    runs = [run_scenario(cfg, out) for cfg in preset.configs]
    curves = preset.report(man, runs)
    files = [f for _, run_files, _ in runs for f in run_files]
    files.append(gnuplot_script(out / f"{preset_id}.gp", preset.description, curves))
    return FigureResult(
        files=files,
        manifest_path=man.write(out / f"{preset_id}_manifest.txt"),
        manifest=man,
    )
