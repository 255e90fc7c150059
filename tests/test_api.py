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


def test_import_loads_pipeline_modules():
    # a fresh interpreter importing the same qshutter as this process
    package_root = str(Path(qshutter.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, path)))}
    code = "import sys, qshutter; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    for name in ("scattering", "poles", "modes", "mfunc", "transient", "twolevel", "config", "output"):
        assert f"qshutter.{name}" in loaded
