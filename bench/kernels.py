"""Microbenchmarks of the hot kernels on fixed inputs (pytest-benchmark).

Run with

    python -m pytest bench/kernels.py

The file name does not match pytest's test-file pattern, so a bare
`python -m pytest` does not collect it.  Every input is fixed: the triple
barrier of the presets (m* = 0.067), its T(E) scan over (0, 100 meV] on
4000 points, Newton from that scan's first seed, the whole pole search for
its four poles and for four poles of one 4-barrier profile of perfbench's
`structures` stream (seed 1, op 4), the mode solves of the triple
barrier's four poles, one exact-N evaluation at the doublet
center on 2000 times and one 200 x 2000 density map built by a psi_exact
call per x (`perfbench`'s `density_maps` op), both cold, with
psi_exact.cache_clear() emptying its column memo and its block memo before
each round so that the M columns are built every round, and both warm,
with one call before the rounds filling the block that every timed call
then fetches in one lookup, so that they time the x-dependent part alone,
one closed two-level density (density_two_level) at the doublet center,
x = L, on 2000 times over [0, 10 tau1],
the CSVs of that trace with every method (a first file, with the time-cell memo cleared so
that it formats the cells, a later file of the same trace, a first file of
a trace at another energy on the kept grid, which is `scenario_sweep`'s
case, and all four files of a trace with the memo cleared), the CSV text
of the 4000-point scan,
and `resolve_scenario` on the shipped triple-barrier config with
make_spectrum's memo cleared before each round (cold: the pole search and
mode solves run) and filled (warm: only the stationary field is solved).
The cold starts time whole fresh interpreters: `import qshutter`, the
`poles` subcommand on the shipped triple barrier and the `transmission`
subcommand on the shipped double barrier over 1-200 meV.
"""

import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import qshutter
from qshutter import (
    build_profile,
    density_two_level,
    evolve_trace,
    find_poles,
    frequencies,
    make_spectrum,
    parse_config,
    psi_exact,
    resolve_scenario,
    solve_mode,
    transmission,
)
from qshutter import output
from qshutter.output import transmission_csv_text, write_trace_csv
from qshutter.poles import refine_pole, seed_poles
from qshutter.presets import MASS_RATIO, TRIPLE_LAYERS
from qshutter.transient import METHOD_EXACT, METHODS

SCAN_ENERGIES = np.linspace(0.1 / 4000, 0.1, 4000)
TIMES = np.linspace(0.005, 10.0, 2000)
FOUR_BARRIERS = (
    (5.06, 0.194), (13.42, 0.0), (7.14, 0.288), (9.55, 0.0),
    (5.9, 0.335), (7.31, 0.0), (9.21, 0.323),
)


@pytest.fixture(scope="module")
def triple():
    return build_profile(list(TRIPLE_LAYERS), MASS_RATIO)


@pytest.fixture(scope="module")
def problem(triple):
    spectrum = make_spectrum(triple, 4)
    poles = spectrum.poles
    return spectrum.at(0.5 * (poles[0].E_position + poles[1].E_position))


def test_transmission_scan(benchmark, triple):
    _, T = benchmark(transmission, triple, SCAN_ENERGIES)
    assert T.shape == SCAN_ENERGIES.shape and T.max() <= 1.0 + 1e-9


def test_refine_pole(benchmark, triple):
    seed = seed_poles(triple, 0.05)[0]
    pole = benchmark(refine_pole, triple, seed)
    assert abs(pole.k - seed) < 1e-2


@pytest.mark.parametrize("name", ["triple", "four_barriers"])
def test_find_poles(benchmark, triple, name):
    profile = triple if name == "triple" else build_profile(FOUR_BARRIERS, MASS_RATIO)
    poles = benchmark(find_poles, profile, 4)
    assert len(poles) == 4


def test_solve_mode(benchmark, triple):
    poles = find_poles(triple, 4)
    modes = benchmark(lambda: [solve_mode(triple, p) for p in poles])
    assert all(m.outgoing_residual < 1e-8 for m in modes)


def _cold(clear, *args):
    """Setup for benchmark.pedantic: args, with a memo emptied by clear()."""

    def setup():
        clear()
        return args, {}

    return setup


def test_psi_exact(benchmark, problem):
    setup = _cold(psi_exact.cache_clear, problem, problem.L, TIMES)
    psi = benchmark.pedantic(psi_exact, setup=setup, rounds=100, warmup_rounds=1)
    assert psi.shape == TIMES.shape and np.all(np.isfinite(psi))


def test_psi_exact_warm(benchmark, problem):
    psi_exact(problem, problem.L, TIMES)
    psi = benchmark.pedantic(
        psi_exact, args=(problem, problem.L, TIMES), rounds=1000, warmup_rounds=1
    )
    assert psi.shape == TIMES.shape and np.all(np.isfinite(psi))


def _density_map(problem, xs):
    return np.array([np.abs(psi_exact(problem, x, TIMES)) ** 2 for x in xs])


def test_density_map_per_x(benchmark, problem):
    xs = np.linspace(0.0, problem.L, 200)
    setup = _cold(psi_exact.cache_clear, problem, xs)
    dmap = benchmark.pedantic(_density_map, setup=setup, rounds=10, warmup_rounds=1)
    assert dmap.shape == (xs.size, TIMES.size) and np.all(np.isfinite(dmap))


def test_density_map_per_x_warm(benchmark, problem):
    xs = np.linspace(0.0, problem.L, 200)
    psi_exact(problem, problem.L, TIMES)
    dmap = benchmark.pedantic(_density_map, args=(problem, xs), rounds=30, warmup_rounds=1)
    assert dmap.shape == (xs.size, TIMES.size) and np.all(np.isfinite(dmap))


def test_density_two_level(benchmark, problem):
    mode_1, mode_2 = problem.modes[:2]
    freqs = frequencies(problem.E, mode_1.pole, mode_2.pole)
    t = np.linspace(0.0, 10.0 * mode_1.pole.tau, 2000)
    d = benchmark(density_two_level, mode_1, mode_2, freqs, problem.L, problem.k, t)
    assert d.shape == t.shape and np.all(d >= 0.0)


@pytest.fixture(scope="module")
def trace(problem):
    return evolve_trace(problem, problem.L, TIMES, METHODS)


@pytest.mark.parametrize("write", ["first", "later", "kept_grid"])
def test_write_trace_csv(benchmark, problem, trace, tmp_path, write):
    path = tmp_path / "trace.csv"
    if write == "first":
        setup = _cold(output._time_cells.cache_clear, path, trace, METHOD_EXACT)
        benchmark.pedantic(write_trace_csv, setup=setup, rounds=100)
    elif write == "later":
        write_trace_csv(tmp_path / "earlier.csv", trace, METHODS[-1])
        benchmark(write_trace_csv, path, trace, METHOD_EXACT)
    else:
        write_trace_csv(tmp_path / "earlier.csv", trace, METHODS[-1])
        # a new trace each round, at another energy of the same structure:
        # the same grid and tau_1
        spectrum = make_spectrum(problem.profile, len(problem.modes))
        other = evolve_trace(spectrum.at(spectrum.poles[1].E_position), problem.L, TIMES)
        assert other.tau_1 == trace.tau_1
        benchmark.pedantic(
            write_trace_csv,
            setup=lambda: ((path, replace(other), METHOD_EXACT), {}),
            rounds=100,
        )
    assert len(path.read_text().splitlines()) == TIMES.size + 1


def test_write_trace_csv_all_methods(benchmark, trace, tmp_path):
    def write_all(trace):
        return [write_trace_csv(tmp_path / f"{m}.csv", trace, m) for m in METHODS]

    setup = _cold(output._time_cells.cache_clear, trace)
    files = benchmark.pedantic(write_all, setup=setup, rounds=50)
    assert len(files) == 4


def test_transmission_csv_text(benchmark, triple):
    T = transmission(triple, SCAN_ENERGIES)[1]
    text = benchmark(transmission_csv_text, SCAN_ENERGIES * 1e3, T)
    assert text.count("\n") == SCAN_ENERGIES.size + 1


@pytest.fixture(scope="module")
def triple_config():
    cfg = resources.files("qshutter") / "configs" / "triple_barrier.cfg"
    return parse_config(cfg.read_text())


def test_resolve_scenario_cold(benchmark, triple_config):
    rs = benchmark.pedantic(
        resolve_scenario, args=(triple_config,), setup=make_spectrum.cache_clear, rounds=50
    )
    assert len(rs.problem.modes) == 4


def test_resolve_scenario_warm(benchmark, triple_config):
    resolve_scenario(triple_config)
    rs = benchmark(resolve_scenario, triple_config)
    assert len(rs.problem.modes) == 4


COLD_STARTS = {
    "import": ["-c", "import qshutter"],
    "poles": ["-m", "qshutter.cli", "poles", "--config", "triple_barrier"],
    "transmission": [
        "-m", "qshutter.cli", "transmission", "--config", "double_barrier",
        "--from", "1", "--to", "200",
    ],
}


@pytest.mark.parametrize("name", list(COLD_STARTS))
def test_cold_start(benchmark, name):
    # a fresh interpreter importing the same qshutter as this process
    package_root = str(Path(qshutter.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, path)))}
    proc = benchmark.pedantic(
        subprocess.run,
        args=([sys.executable, *COLD_STARTS[name]],),
        kwargs={"capture_output": True, "env": env},
        rounds=7,
    )
    assert proc.returncode == 0, proc.stderr
