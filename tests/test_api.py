"""The top-level API: one import per pipeline step, everything else by module."""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import qshutter
from qshutter import (
    ConfigError,
    DomainError,
    EmptyProfileError,
    LayerHeightError,
    LayerWidthError,
    MassRatioError,
    PotentialProfile,
    ProfileError,
    ScenarioConfig,
    build_profile,
    chi,
    density_two_level,
    dominant_frequency_series,
    evolve_trace,
    find_poles,
    frequencies,
    make_problem,
    make_spectrum,
    parse_config,
    pole_condition,
    psi_exact,
    transmission,
    xi,
)
from qshutter import reference
from qshutter.config import Incidence, override
from qshutter.mfunc import faddeeva, m_function, m_function_scaled, y_values
from qshutter.model import Layer, energy_of, wavenumber
from qshutter.modes import rho, rho_mirror
from qshutter.output import transmission_csv_text, write_trace_csv, write_transmission_csv
from qshutter.poles import refine_pole, seed_poles
from qshutter.scattering import layered_wave, solve_stationary, stationary_wave, transfer_matrix
from qshutter.transient import TransientTrace, free_shutter_psi, psi_doublet_M
from qshutter.twolevel import density_resonant_exponential

PUBLIC = [
    # errors
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
    # pipeline steps and the records they return
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

SUBMODULES = [
    "model",
    "mfunc",
    "scattering",
    "poles",
    "modes",
    "transient",
    "twolevel",
    "config",
    "output",
    "presets",
    "acceptance",
    "reference",
    "cli",
]


def test_top_level_names():
    assert len(PUBLIC) == 44
    assert sorted(qshutter.__all__) == sorted(PUBLIC)
    for name in PUBLIC:
        assert getattr(qshutter, name) is not None


def test_submodule_names_resolve():
    for name in SUBMODULES:
        module = importlib.import_module(f"qshutter.{name}")
        for attr in module.__all__:
            assert hasattr(module, attr), f"qshutter.{name}.{attr}"


def _fresh_python(code: str) -> str:
    """Standard output of `code` run in a fresh interpreter that imports the
    same qshutter as this process."""
    package_root = str(Path(qshutter.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, path)))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_pipeline_modules():
    loaded = set(_fresh_python("import sys, qshutter; print(' '.join(sys.modules))").split())
    for name in ("scattering", "poles", "modes", "mfunc", "transient", "twolevel", "config", "output"):
        assert f"qshutter.{name}" in loaded
    # the arbitrary-precision references load with the selftest or a test
    assert "qshutter.reference" not in loaded and "mpmath" not in loaded


# Structure-level work and the poles/transmission subcommands, then the first
# M-function evaluation; prints the heavy modules loaded before and after it.
_COLD_START = """
import contextlib, io, sys
import numpy as np
import qshutter
from qshutter import build_profile, cli, find_poles, solve_mode, transmission
from qshutter.mfunc import m_function
from qshutter.presets import MASS_RATIO, TRIPLE_LAYERS

heavy = ("scipy", "qshutter.acceptance")
profile = build_profile(list(TRIPLE_LAYERS), MASS_RATIO)
for pole in find_poles(profile, 4):
    solve_mode(profile, pole)
transmission(profile, np.linspace(1e-3, 0.1, 50))
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["poles", "--config", "triple_barrier"]) == 0
    assert cli.main(
        ["transmission", "--config", "double_barrier", "--from", "1", "--to", "200"]
    ) == 0
print(" ".join(name for name in heavy if name in sys.modules) or "-")
y = np.array([0.0, 0.3 - 2.0j, -1.5 + 0.7j, 4.0 + 4.0j, -6.0 - 0.5j])
m = m_function(y)
print(" ".join(name for name in heavy if name in sys.modules) or "-")
import scipy.special
print(m.tobytes() == (0.5 * scipy.special.wofz(1j * y)).tobytes())
"""


def test_cold_start_loads_scipy_on_first_m_function():
    # poles, modes, T(E) and the poles/transmission subcommands never need
    # the Faddeeva kernel or the acceptance module
    before, after, same = _fresh_python(_COLD_START).splitlines()
    assert before == "-"
    assert after == "scipy"
    assert same == "True"



# The argument contract (model's number rules), one case per row: a public
# entry or input record called on the triple barrier's doublet-center
# problem p, and the typed error it raises, or None where the value is
# accepted.  A real number has int, uint or float dtype and is finite, a count
# is an integer and not a bool, and neither is an array.
def _freqs(p):
    return frequencies(p.E, p.modes[0].pole, p.modes[1].pole)


_LAYERS = ((3.0, 0.12), (5.0, 0.0), (3.0, 0.12))


def _config():
    return parse_config("layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\nenergy = 10 meV\n")


def _scenario(**fields):
    base = {"layers": _LAYERS, "mass_ratio": 0.067, "incidence": Incidence("doublet-center")}
    return ScenarioConfig(**{**base, **fields})


def _beta(p):
    return p.profile.hbar_over_2m


def _free_spectrum(n_poles):
    return make_spectrum(build_profile([(10.0, 0.0)], 0.067), n_poles)


def _trace_csv(curve):
    """write_trace_csv of a hand-built 5-time trace whose exact-N curve is curve."""
    times = np.linspace(0.1, 0.5, 5)
    trace = TransientTrace(1.0, 0.01, 1.0, times, {"exact-N": curve})
    return write_trace_csv(os.devnull, trace, "exact-N")


_ARRAY = np.array([0.1, 0.2])
CONTRACT = {
    # scalars that are arrays
    "rho-array-k": (lambda p: rho(p.modes[0], _ARRAY, 1.0), DomainError),
    "density_two_level-array-k": (
        lambda p: density_two_level(*p.modes[:2], _freqs(p), p.L, _ARRAY, 0.1), DomainError
    ),
    "evolve_trace-0d-x": (lambda p: evolve_trace(p, np.array(1.0), [0.1]), None),
    "psi_exact-0d-x": (lambda p: psi_exact(p, np.array(1.0), [0.1]), None),
    "Spectrum.at-array-E": (lambda p: make_spectrum(p.profile).at(np.array([p.E])), DomainError),
    "rho_mirror-array-k": (lambda p: rho_mirror(p.modes[0], _ARRAY, 1.0), DomainError),
    "energy_of-array-k": (lambda p: energy_of(_ARRAY, p.profile), DomainError),
    "density_resonant_exponential-array-T_peak": (
        lambda p: density_resonant_exponential(np.array([0.5]), 1.0, 0.1), DomainError
    ),
    # positions and time grids
    "stationary_wave-str-x": (lambda p: stationary_wave(p.field, "1"), DomainError),
    "layered_wave-str-x": (
        lambda p: layered_wave(p.field.edges, p.field.q, p.field.coefficients, "1"), DomainError
    ),
    "psi_doublet_M-str-x": (lambda p: psi_doublet_M(p, "1", [0.1]), DomainError),
    "TransientTrace-str-times": (
        lambda p: TransientTrace(1.0, 0.01, 1.0, ["0.1", "0.2"], {}), DomainError
    ),
    "TransientTrace-text-times": (lambda p: TransientTrace(1.0, 0.01, 1.0, "ab", {}), DomainError),
    "TransientTrace-2d-times": (
        lambda p: TransientTrace(1.0, 0.01, 1.0, np.ones((2, 1)), {}), DomainError
    ),
    "dominant_frequency_series-str-times": (
        lambda p: dominant_frequency_series(["0"] * 8, [1.0] * 8), DomainError
    ),
    # profile inputs
    "build_profile-str-layer": (lambda p: build_profile([("3", "0.12")], 0.067), LayerWidthError),
    "build_profile-bool-width": (lambda p: build_profile([(True, 0.12)], 0.067), LayerWidthError),
    "build_profile-bool-height": (lambda p: build_profile([(3.0, True)], 0.067), LayerHeightError),
    "build_profile-str-mass": (lambda p: build_profile(_LAYERS, "0.067"), MassRatioError),
    "build_profile-bool-mass": (lambda p: build_profile(_LAYERS, True), MassRatioError),
    "build_profile-numpy": (
        lambda p: build_profile([(np.float64(3.0), np.int64(0))], np.float32(0.5)), None
    ),
    "build_profile-str-layers": (lambda p: build_profile("ab", 0.067), ProfileError),
    "build_profile-int-layers": (lambda p: build_profile(5, 0.067), ProfileError),
    "build_profile-none-layers": (lambda p: build_profile(None, 0.067), ProfileError),
    "build_profile-short-layer": (lambda p: build_profile([(1.0,)], 0.067), ProfileError),
    "build_profile-long-layer": (lambda p: build_profile([(1.0, 0.1, 5)], 0.067), ProfileError),
    "build_profile-Layer-layer": (lambda p: build_profile([Layer(3.0, 0.1)], 0.067), ProfileError),
    # profile records built directly read the same rules
    "Layer-bool-width": (lambda p: Layer(True, 0.12), LayerWidthError),
    "PotentialProfile-negative-width": (
        lambda p: PotentialProfile((Layer(-3.0, 0.12),), 0.067), LayerWidthError
    ),
    "PotentialProfile-negative-height": (
        lambda p: PotentialProfile((Layer(3.0, -0.5),), 0.067), LayerHeightError
    ),
    "PotentialProfile-empty": (lambda p: PotentialProfile((), 0.067), EmptyProfileError),
    # a list of layers is kept as a tuple, so the profile hashes for the memo
    "PotentialProfile-list-layers": (
        lambda p: make_spectrum(PotentialProfile([Layer(*l) for l in _LAYERS], 0.067), 1),
        None,
    ),
    "PotentialProfile-int-layers": (lambda p: PotentialProfile(5, 0.067), ProfileError),
    "PotentialProfile-tuple-layer": (
        lambda p: PotentialProfile(((3.0, 0.12),), 0.067), ProfileError
    ),
    "PotentialProfile-str-mass": (
        lambda p: PotentialProfile((Layer(3.0, 0.12),), "0.067"), MassRatioError
    ),
    "PotentialProfile-complex-mass": (
        lambda p: PotentialProfile((Layer(3.0, 0.12),), 1j), MassRatioError
    ),
    "PotentialProfile-bool-mass": (
        lambda p: PotentialProfile((Layer(3.0, 0.12),), True), MassRatioError
    ),
    # wave numbers, energies, counts and level indices
    "transfer_matrix-bool-k": (lambda p: transfer_matrix(p.profile, True), DomainError),
    "transfer_matrix-str-k": (lambda p: transfer_matrix(p.profile, "0.1"), DomainError),
    "transfer_matrix-complex-k": (lambda p: transfer_matrix(p.profile, 0.1 - 0.01j), None),
    "pole_condition-bool-k": (lambda p: pole_condition(p.profile, True), DomainError),
    "pole_condition-str-k": (lambda p: pole_condition(p.profile, "0.1"), DomainError),
    "solve_stationary-bool-k": (lambda p: solve_stationary(p.profile, True), DomainError),
    "solve_stationary-str-k": (lambda p: solve_stationary(p.profile, "0.1"), DomainError),
    "solve_stationary-numpy-k": (lambda p: solve_stationary(p.profile, np.float64(0.1)), None),
    "y_values-str-s": (lambda p: y_values("1", 0.1, _beta(p)), DomainError),
    "y_values-bool-s": (lambda p: y_values(True, 0.1, _beta(p)), DomainError),
    "y_values-complex-s": (lambda p: y_values(np.complex128(0.1 - 0.01j), 0.1, _beta(p)), None),
    "y_values-bool-beta": (lambda p: y_values(0.1, 0.1, True), DomainError),
    "y_values-str-beta": (lambda p: y_values(0.1, 0.1, "863.9"), DomainError),
    "y_values-nan-beta": (lambda p: y_values(0.1, 0.1, np.nan), DomainError),
    "y_values-zero-beta": (lambda p: y_values(0.1, 0.1, 0.0), DomainError),
    "y_values-numpy-beta": (lambda p: y_values(0.1, 0.1, np.float64(_beta(p))), None),
    "wavenumber-str-E": (lambda p: wavenumber("0.01", p.profile), DomainError),
    "wavenumber-bool-E": (lambda p: wavenumber(True, p.profile), DomainError),
    "wavenumber-complex-E": (lambda p: wavenumber(0.01 - 1e-4j, p.profile), None),
    "energy_of-str-k": (lambda p: energy_of("0.1", p.profile), DomainError),
    "energy_of-numpy-k": (lambda p: energy_of(np.complex128(0.1 - 0.01j), p.profile), None),
    "refine_pole-str-seed": (lambda p: refine_pole(p.profile, "0.2-0.002j"), DomainError),
    "transmission-str-E": (lambda p: transmission(p.profile, "0.01"), DomainError),
    "make_problem-str-E": (lambda p: make_problem(p.profile, "0.0129"), DomainError),
    "free_shutter_psi-str-k": (lambda p: free_shutter_psi("0.1", 1.0, 0.1, _beta(p)), DomainError),
    "free_shutter_psi-bool-beta": (lambda p: free_shutter_psi(0.1, 1.0, 0.1, True), DomainError),
    "free_shutter_psi-str-beta": (lambda p: free_shutter_psi(0.1, 1.0, 0.1, "863.9"), DomainError),
    "free_shutter_psi-inf-beta": (lambda p: free_shutter_psi(0.1, 1.0, 0.1, np.inf), DomainError),
    "free_shutter_psi-negative-beta": (
        lambda p: free_shutter_psi(0.1, 1.0, 0.1, -_beta(p)), DomainError
    ),
    "free_shutter_psi-unbroadcast-xt": (
        lambda p: free_shutter_psi(0.1, np.ones(3), np.full(2, 0.1), _beta(p)), DomainError
    ),
    "faddeeva-str-z": (lambda p: faddeeva("1"), DomainError),
    "m_function-str-y": (lambda p: m_function("1"), DomainError),
    "m_function-bool-y": (lambda p: m_function(True), DomainError),
    "m_function_scaled-str-y": (lambda p: m_function_scaled("1"), DomainError),
    "seed_poles-bool-E_max": (lambda p: seed_poles(p.profile, True), DomainError),
    "seed_poles-str-E_max": (lambda p: seed_poles(p.profile, "0.05"), DomainError),
    "frequencies-str-E": (
        lambda p: frequencies("0.0129", p.modes[0].pole, p.modes[1].pole), DomainError
    ),
    "density_resonant_exponential-bool-tau": (
        lambda p: density_resonant_exponential(0.5, True, 1.0), DomainError
    ),
    "density_resonant_exponential-bool-T_peak": (
        lambda p: density_resonant_exponential(True, 1.0, 0.1), DomainError
    ),
    "chi-bool-n": (lambda p: chi(_freqs(p), True, 0.1), DomainError),
    "chi-float-n": (lambda p: chi(_freqs(p), 2.0, 0.1), DomainError),
    "chi-numpy-n": (lambda p: chi(_freqs(p), np.int64(2), 0.1), None),
    "xi-float-n": (lambda p: xi(_freqs(p), 1, 2.0, 0.1), DomainError),
    "make_spectrum-negative-n": (lambda p: _free_spectrum(-3), DomainError),
    "make_spectrum-str-n": (lambda p: _free_spectrum("x"), DomainError),
    "make_spectrum-float-n": (lambda p: _free_spectrum(2.5), DomainError),
    "make_spectrum-zero-n": (lambda p: _free_spectrum(0), None),
    "find_poles-bool-N": (lambda p: find_poles(p.profile, True), DomainError),
    # method lists, incidence specs, CLI overrides and CSV columns
    "evolve_trace-str-methods": (lambda p: evolve_trace(p, p.L, [0.1], "exact-N"), DomainError),
    "evolve_trace-no-methods": (lambda p: evolve_trace(p, p.L, [0.1], ()), DomainError),
    "evolve_trace-repeated-methods": (
        lambda p: evolve_trace(p, p.L, [0.1], ("exact-N", "exact-N")), DomainError
    ),
    "override-bool-n_poles": (lambda p: override(_config(), n_poles=True), ConfigError),
    "override-float-points": (lambda p: override(_config(), points=2.5), ConfigError),
    "override-numpy-points": (lambda p: override(_config(), points=np.int64(50)), None),
    "override-bool-x": (lambda p: override(_config(), x=True), ConfigError),
    "override-str-x": (lambda p: override(_config(), x="3"), ConfigError),
    "override-numpy-x": (lambda p: override(_config(), x=np.float64(3.0)), None),
    "override-bool-t_max": (lambda p: override(_config(), t_max=True), ConfigError),
    "override-str-t_max": (lambda p: override(_config(), t_max="5"), ConfigError),
    "override-str-mass_ratio": (lambda p: override(_config(), mass_ratio="0.067"), ConfigError),
    "override-unknown-key": (lambda p: override(_config(), bogus=1), ConfigError),
    "ScenarioConfig-bool-points": (lambda p: _scenario(points=True), ConfigError),
    "ScenarioConfig-bool-x": (lambda p: _scenario(x_nm=True), ConfigError),
    "ScenarioConfig-str-t_max": (lambda p: _scenario(t_max_tau1="5"), ConfigError),
    "ScenarioConfig-unknown-method": (lambda p: _scenario(methods=("bogus",)), ConfigError),
    "ScenarioConfig-str-incidence": (
        lambda p: _scenario(incidence="doublet-center"), ConfigError
    ),
    "ScenarioConfig-numpy-points": (lambda p: _scenario(points=np.int64(50)), None),
    "ScenarioConfig-str-layers": (lambda p: _scenario(layers="abc"), ConfigError),
    "ScenarioConfig-int-layers": (lambda p: _scenario(layers=5), ConfigError),
    "ScenarioConfig-negative-width": (lambda p: _scenario(layers=((-3.0, 0.1),)), ConfigError),
    "parse_config-bytes-text": (lambda p: parse_config(b"layer = 1 nm, 0.1 eV\n"), ConfigError),
    "parse_config-none-text": (lambda p: parse_config(None), ConfigError),
    "Incidence-unknown-kind": (lambda p: Incidence("bogus"), ConfigError),
    "Incidence-str-value": (lambda p: Incidence("offset", "2"), ConfigError),
    "Incidence-numpy-value": (lambda p: Incidence("offset", np.float64(2.0)), None),
    "transmission_csv_text-str-E": (lambda p: transmission_csv_text(["10"], [0.5]), DomainError),
    "write_transmission_csv-str-T": (
        lambda p: write_transmission_csv(os.devnull, [10.0], ["0.5"]), DomainError
    ),
    "transmission_csv_text-unequal-columns": (
        lambda p: transmission_csv_text([1.0, 2.0, 3.0], [0.5]), DomainError
    ),
    "write_transmission_csv-2d-E": (
        lambda p: write_transmission_csv(os.devnull, [[1.0, 2.0]], [0.5, 0.6]), DomainError
    ),
    "write_trace_csv-matching-curve": (lambda p: _trace_csv(np.ones(5)), None),
    "write_trace_csv-short-curve": (lambda p: _trace_csv(np.ones(3)), DomainError),
    "write_trace_csv-long-curve": (lambda p: _trace_csv(np.ones(7)), DomainError),
    "write_trace_csv-2d-curve": (lambda p: _trace_csv(np.ones((5, 2))), DomainError),
    "write_trace_csv-list-curve": (lambda p: _trace_csv([1.0] * 5), None),
    "write_trace_csv-str-curve": (lambda p: _trace_csv(["1.0"] * 5), DomainError),
    # the arbitrary-precision oracles, which also take mpmath numbers
    "reference.faddeeva-str-z": (lambda p: reference.faddeeva("1"), DomainError),
    "reference.faddeeva-mpc-z": (lambda p: reference.faddeeva(mp.mpc(1, 0.5)), None),
    "reference.free_shutter_psi-bool-t": (
        lambda p: reference.free_shutter_psi(0.1, 1.0, True, 1.0), DomainError
    ),
    "reference.transmission-str-k": (
        lambda p: reference.transmission(p.profile, "0.1"), DomainError
    ),
    "reference.pole-str-k0": (lambda p: reference.pole(p.profile, "0.2-0.002j"), DomainError),
    "reference.layer_integral-bool-w": (
        lambda p: reference.layer_integral(1.0, 0.0, 0.5, True), DomainError
    ),
    "reference.faddeeva-array-z": (lambda p: reference.faddeeva(np.ones(2)), DomainError),
    "reference.free_shutter_psi-array-x": (
        lambda p: reference.free_shutter_psi(0.1, np.ones(3), 0.1, 1.0), DomainError
    ),
    "reference.transmission-array-k": (
        lambda p: reference.transmission(p.profile, np.ones(2)), DomainError
    ),
    "reference.pole-array-k0": (lambda p: reference.pole(p.profile, np.ones(2)), DomainError),
    "reference.layer_integral-array-a": (
        lambda p: reference.layer_integral(np.ones(2), 1, 1, 1), DomainError
    ),
    "reference.faddeeva-ragged-z": (lambda p: reference.faddeeva([1, [2, 3]]), DomainError),
    "reference.layer_integral-ragged-a": (
        lambda p: reference.layer_integral([1, [2, 3]], 1, 1, 1), DomainError
    ),
}

# public functions with no CONTRACT row, and what each takes instead of a
# number the contract reads
NO_ROW = {
    "run_acceptance": "nothing",
    "main": "argv strings, typed by argparse",
    "resolve_scenario": "a ScenarioConfig",
    "run_scenario": "a ScenarioConfig and a directory",
    "solve_mode": "a profile and a ResonancePole",
    "fmt": "any value, formatted as given",
    "poles_csv_text": "ResonancePoles",
    "write_poles_csv": "a path and ResonancePoles",
    "check_abs": "a check's measured value, recorded as given (nan included)",
    "check_bound": "a check's measured value and verdict, recorded as given",
    "gnuplot_script": "a path, a title and file names",
    "run_figure": "a preset name and a directory",
    "clamp_count": "nothing",
}

# public classes with no CONTRACT row: records the package builds from its
# own results, not from a caller's numbers
RESULT_RECORDS = {
    "TransferMatrix", "StationaryField", "ResonancePole", "ResonantMode", "ShutterProblem",
    "Spectrum", "DoubletFrequencies", "Check", "Manifest", "FigurePreset",
    "FigureResult", "CheckResult",
}


@pytest.mark.parametrize("call, error", CONTRACT.values(), ids=CONTRACT.keys())
def test_argument_contract(problem_ebar, call, error):
    if error is None:
        call(problem_ebar)
    else:
        with pytest.raises(error):
            call(problem_ebar)


def test_every_public_function_has_a_contract_row():
    # a row names its entry before its first "-"; NO_ROW and RESULT_RECORDS
    # hold exactly the rest.  The oracles share the names of the entries they
    # check, so their rows name their module.
    rows = {key.split("-")[0] for key in CONTRACT}
    unrowed = set()
    for name in SUBMODULES:
        module = importlib.import_module(f"qshutter.{name}")
        prefix = "reference." if name == "reference" else ""
        public = {f for f in module.__all__ if inspect.isfunction(getattr(module, f))}
        public |= {c for c in module.__all__ if inspect.isclass(getattr(module, c))}
        unrowed |= {prefix + f for f in public} - rows
    assert sorted(unrowed ^ (NO_ROW.keys() | RESULT_RECORDS)) == []


def test_numpy_count_shares_the_spectrum_memo(triple_profile):
    # the count is read before the memo, so np.int64(4) finds the entry of 4
    assert make_spectrum(triple_profile, np.int64(4)) is make_spectrum(triple_profile, 4)
