"""The top-level API: one import per pipeline step, everything else by module."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import qshutter

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
    "PhysicalConstants",
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
    assert len(PUBLIC) == 45
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
