"""Microbenchmarks of the hot kernels on fixed inputs (pytest-benchmark).

Run with

    python -m pytest bench/kernels.py

The file name does not match pytest's test-file pattern, so a bare
`python -m pytest` does not collect it.  Every input is fixed: the triple
barrier of the presets (m* = 0.067), its T(E) scan over (0, 100 meV] on
4000 points, the same scan of one 4-barrier (7-layer) profile of
perfbench's `structures` stream (seed 1, op 4), the pole search's count
and moment seeds of one box, Re k up to k(100 meV) (seed_poles), on both
profiles, one scalar T(E) at the
triple barrier's first resonance E_1, its stationary field
(solve_stationary) at the real k of E_1, transfer_matrix at 200 real k of
(0, 100 meV], the argument-reading entries of the hot paths
(wavenumber at E_1, energy_of at its pole's k as a Python complex, as the
Newton batch passes it, and m_function on one y and on the 2000 y of one
pole column), Newton from the first seed of the 50 meV box,
the lockstep Newton batch (poles._newton) from the 100 meV box's four
seeds, the same batch from two seeds it cannot bring home (a 100-round
stall and a seed whose second evaluation trips the overflow guard), the
walk of both outgoing pieces (scattering._outgoing) at the triple
barrier's four poles and their central-difference points, as one
Newton round walks them, the join test (scattering._join) at its four poles
as one batch, as the Newton batch runs it, and at its first pole alone, as
a mode solve runs it, build_profile on the triple barrier's layers, the whole
pole search for its four poles and for four poles of the 4-barrier
profile, the mode solves of the triple
barrier's four poles, one whole `structures` op of `perfbench` on the
triple barrier at N = 4 (build the profile, find its poles, solve their
modes, T(E_n) at each), one exact-N evaluation at the doublet
center on 2000 times and one 200 x 2000 density map built by a psi_exact
call per x, both cold, on a new problem each round with
psi_exact.cache_clear() emptying the grid memo before it, so that the M
columns and the x rows are evaluated every round, and both warm, with
one call before the rounds keeping the grid whose columns every timed
call then fetches and the problem's x rows, so that they time the
product and the call around it, the bare product of the warm evaluation
(the kept real row times the float view of the kept grid's block, one
real dgemv), so that the warm call's cost above it can be read, the same per-x map on a kept
problem over a new time window each round, so that its x rows are kept
and its M columns evaluated (`perfbench`'s `density_maps` op), the memory
the grid memo keeps (test_memo_bytes: eight such maps of a new problem on
fresh 2000-point windows, after psi_exact.cache_clear(), and the
tracemalloc bytes that allocations made under the package still hold
after them, in extra_info and bounded by the arrays of two blocks and
eight grids; unlike a wall time they hold to ~1% between rounds), the M
columns the first ops of two of `perfbench`'s streams evaluate
(test_stream_columns: 63 `scenario_sweep` ops and 54 `density_maps` ops
of seed 11 after the stream's set-up and warm-up, one wofz call per
column, in extra_info and pinned), the memory the scenario path keeps
(test_stream_bytes: the tracemalloc bytes under the package still held
after the set-up, warm-up and first 63 `scenario_sweep` ops of seed 11,
from emptied memos, and those of one 2000-point grid's kept time cells,
in extra_info and bounded), the M columns of the five figure
presets and both shipped `evolve` runs in the golden record's order
(test_preset_columns, pinned), the same map as
one broadcast call psi_exact(problem, xs[:, None], times), warm, one exact-N
evaluation at another energy of the kept spectrum on a kept grid (each
round's set-up empties the memo, keeps the grid's pole columns through
a call at the doublet center and makes a new problem at that energy, so
the timed call evaluates its x rows and only its own M(y_-k), the one
column of its k pair, which is `scenario_sweep`'s case),
one closed two-level density (density_two_level) at the doublet center,
x = L, on 2000 times over [0, 10 tau1], the dominant line
(dominant_frequency_series) of fig2b's trace, exact N = 4 at the same
energy, x and times,
the CSVs of that trace with every method (a first file, with the time-cell memo cleared so
that it formats the cells, a later file of the same trace, a first file of
a trace at another energy on the kept grid, which is `scenario_sweep`'s
case, and all four files of a trace with the memo cleared), the CSV text
of the 4000-point scan,
`resolve_scenario` on the shipped triple-barrier config with
make_spectrum's memo cleared before each round (cold: the pole search and
mode solves run) and filled (warm: only the stationary field is solved),
criterion 10's grid oracle (acceptance._check_crank_nicolson: the free
cutoff wave on the 680 nm grid, 1,250 Crank-Nicolson steps, against the
closed form), criterion 10's Faddeeva check (acceptance._check_faddeeva_oracle:
700 points against the 50-digit reference), the 50-digit secant of
reference.pole on the double barrier's third pole (385.50 meV), and one
whole selftest (run_acceptance, its output discarded) with make_spectrum's
and psi_exact's memos cleared before each round.
The cold starts time whole fresh interpreters: `import qshutter`, the
`poles` subcommand on the shipped triple barrier and the `transmission`
subcommand on the shipped double barrier over 1-200 meV.

Native thread pools are pinned to one thread before numpy is imported, as
in perfbench/run.py, so that a BLAS product times the same whatever the
machine's core count.
"""

import os

# pin native thread pools before numpy is imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from dataclasses import replace  # noqa: E402
from importlib import resources  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import qshutter  # noqa: E402
from qshutter import (  # noqa: E402
    build_profile,
    density_two_level,
    dominant_frequency_series,
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
from qshutter import PoleConvergenceError, acceptance, cli, mfunc, output, reference  # noqa: E402
from qshutter.mfunc import m_function, y_values  # noqa: E402
from qshutter.model import energy_of, wavenumber  # noqa: E402
from qshutter.output import transmission_csv_text, write_trace_csv  # noqa: E402
from qshutter.poles import _newton, refine_pole, seed_poles  # noqa: E402
from qshutter.presets import (  # noqa: E402
    DOUBLE_LAYERS,
    MASS_RATIO,
    PRESETS,
    TRIPLE_LAYERS,
    run_figure,
)
from qshutter.scattering import (  # noqa: E402
    _growth,
    _join,
    _layers,
    _outgoing,
    solve_stationary,
    transfer_matrix,
)
from qshutter.transient import METHOD_EXACT, METHODS, _grid, _GridKey  # noqa: E402

SCAN_ENERGIES = np.linspace(0.1 / 4000, 0.1, 4000)
TIMES = np.linspace(0.005, 10.0, 2000)
# triple-barrier seeds refine_pole cannot bring home: Newton from the first
# stalls for 100 rounds, and the second's first step trips the overflow guard
STALL_SEED = 0.08 - 3.5j
GUARD_SEED = 0.150123534489 - 0.001646011879j
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


@pytest.mark.parametrize("name", ["triple", "four_barriers"])
def test_transmission_scan(benchmark, triple, name):
    profile = triple if name == "triple" else build_profile(FOUR_BARRIERS, MASS_RATIO)
    _, T = benchmark(transmission, profile, SCAN_ENERGIES)
    assert T.shape == SCAN_ENERGIES.shape and T.max() <= 1.0 + 1e-9


@pytest.mark.parametrize("name", ["triple", "four_barriers"])
def test_box_seeds(benchmark, triple, name):
    # one box of the pole search, Re k up to k(100 meV): its contour count
    # and moment seeds
    profile = triple if name == "triple" else build_profile(FOUR_BARRIERS, MASS_RATIO)
    seeds = benchmark(seed_poles, profile, 0.1)
    assert len(seeds) == 4


def test_transmission_scalar(benchmark, triple):
    E_1 = find_poles(triple, 1)[0].E_position
    _, T = benchmark(transmission, triple, E_1)
    assert 0.9 < T <= 1.0 + 1e-9


def test_solve_stationary(benchmark, triple):
    k = float(wavenumber(find_poles(triple, 1)[0].E_position, triple).real)
    field = benchmark(solve_stationary, triple, k)
    assert abs(abs(field.r) ** 2 + abs(field.t) ** 2 - 1.0) < 1e-10


def test_transfer_matrix(benchmark, triple):
    k = wavenumber(np.linspace(0.1 / 200, 0.1, 200), triple).real
    m = benchmark(transfer_matrix, triple, k)
    assert np.all(np.abs(m.m11 * m.m22 - m.m12 * m.m21 - 1.0) < 1e-6)


def test_wavenumber(benchmark, triple):
    E_1 = find_poles(triple, 1)[0].E_position
    k = benchmark(wavenumber, E_1, triple)
    assert k.real > 0 and k.imag == 0


def test_energy_of(benchmark, triple):
    pole = find_poles(triple, 1)[0]
    E = benchmark(energy_of, complex(pole.k), triple)
    assert E == pole.E


@pytest.mark.parametrize("points", [1, 2000])
def test_m_function(benchmark, triple, points):
    y = y_values(find_poles(triple, 1)[0].k, TIMES[:points], triple.hbar_over_2m)
    m = benchmark(m_function, y)
    assert m.shape == y.shape and np.all(np.isfinite(m))


def test_refine_pole(benchmark, triple):
    seed = seed_poles(triple, 0.05)[0]
    pole = benchmark(refine_pole, triple, seed)
    assert abs(pole.k - seed) < 1e-2


def test_newton_batch(benchmark, triple):
    seeds = seed_poles(triple, 0.1)
    poles = benchmark(_newton, triple, seeds)
    assert len(seeds) == len(poles) == 4


def test_newton_failing_batch(benchmark, triple):
    def failing_batch():
        with pytest.raises(PoleConvergenceError) as err:
            _newton(triple, [STALL_SEED, GUARD_SEED])
        return err.value

    assert isinstance(benchmark(failing_batch), PoleConvergenceError)


def test_outgoing_batch(benchmark, triple):
    # the Newton batch's walk of both outgoing pieces at the four poles and
    # their central-difference points, one (3, 4) array
    ks = np.array([p.k for p in find_poles(triple, 4)])
    hs = np.abs(ks) * 1e-7
    points = np.array([ks, ks + hs, ks - hs])
    left, right = benchmark(_outgoing, _layers(triple, points), points)
    assert left.shape == right.shape == (len(TRIPLE_LAYERS) + 1, 2, 3, 4)


@pytest.mark.parametrize("points", ["batch", "mode"])
def test_join(benchmark, triple, points):
    # the Newton batch's join test at its four poles, or a mode's at one
    ks = np.array([p.k for p in find_poles(triple, 4)][: 4 if points == "batch" else 1])
    layers = _layers(triple, ks)
    left, right = _outgoing(layers, ks)
    edges, mismatch, _ = benchmark(_join, _growth(layers), left, right, ks)
    assert (edges > 0).all() and (mismatch < 1e-8).all()


def test_build_profile(benchmark):
    profile = benchmark(build_profile, list(TRIPLE_LAYERS), MASS_RATIO)
    assert len(profile.layers) == len(TRIPLE_LAYERS)


@pytest.mark.parametrize("name", ["triple", "four_barriers"])
def test_find_poles(benchmark, triple, name):
    profile = triple if name == "triple" else build_profile(FOUR_BARRIERS, MASS_RATIO)
    poles = benchmark(find_poles, profile, 4)
    assert len(poles) == 4


def test_solve_mode(benchmark, triple):
    poles = find_poles(triple, 4)
    modes = benchmark(lambda: [solve_mode(triple, p) for p in poles])
    assert all(m.outgoing_residual < 1e-8 for m in modes)


def test_structure_op(benchmark):
    # perfbench's structure_op, as the workload runs it
    def structure_op():
        profile = build_profile([tuple(l) for l in TRIPLE_LAYERS], MASS_RATIO)
        poles = find_poles(profile, 4)
        modes = [solve_mode(profile, p) for p in poles]
        return poles, modes, [transmission(profile, p.E_position)[1] for p in poles]

    poles, modes, Ts = benchmark(structure_op)
    assert len(poles) == len(modes) == 4 and all(T <= 1.0 + 1e-9 for T in Ts)


def _cold(clear, *args):
    """Setup for benchmark.pedantic: args, with a memo emptied by clear()."""

    def setup():
        clear()
        return args, {}

    return setup


def _cold_problem(problem, *args):
    """Setup for benchmark.pedantic: a new problem at problem's energy, which
    keeps no x rows, then args, with psi_exact's grid memo emptied."""
    spectrum = make_spectrum(problem.profile, len(problem.modes))

    def setup():
        psi_exact.cache_clear()
        return (spectrum.at(problem.E), *args), {}

    return setup


def test_psi_exact(benchmark, problem):
    setup = _cold_problem(problem, problem.L, TIMES)
    psi = benchmark.pedantic(psi_exact, setup=setup, rounds=100, warmup_rounds=1)
    assert psi.shape == TIMES.shape and np.all(np.isfinite(psi))


def test_psi_exact_warm(benchmark, problem):
    psi_exact(problem, problem.L, TIMES)
    psi = benchmark.pedantic(
        psi_exact, args=(problem, problem.L, TIMES), rounds=1000, warmup_rounds=1
    )
    assert psi.shape == TIMES.shape and np.all(np.isfinite(psi))


def test_gemv_warm(benchmark, problem):
    # the product of test_psi_exact_warm's call alone: the kept real row
    # against the float view of the kept grid's block, so that the time
    # above it is the call's own cost
    psi = psi_exact(problem, problem.L, TIMES)
    grid = _grid(TIMES.shape, _GridKey(TIMES.tobytes()), problem.profile.hbar_over_2m)
    row, floats = problem._x_rows[problem.L], grid.block.view(float)
    product = benchmark.pedantic(np.matmul, args=(row, floats), rounds=1000, warmup_rounds=1)
    assert product.view(complex).tobytes() == psi.tobytes()


def test_psi_exact_new_energy(benchmark, problem):
    # a new problem each round, as each scenario_sweep op resolves its own
    spectrum = make_spectrum(problem.profile, len(problem.modes))

    def setup():
        psi_exact.cache_clear()
        psi_exact(problem, problem.L, TIMES)
        other = spectrum.at(spectrum.poles[1].E_position)
        return (other, other.L, TIMES), {}

    psi = benchmark.pedantic(psi_exact, setup=setup, rounds=200, warmup_rounds=1)
    assert psi.shape == TIMES.shape and np.all(np.isfinite(psi))


def _density_map(problem, xs, times=TIMES):
    return np.array([np.abs(psi_exact(problem, x, times)) ** 2 for x in xs])


def test_density_map_per_x(benchmark, problem):
    xs = np.linspace(0.0, problem.L, 200)
    setup = _cold_problem(problem, xs)
    dmap = benchmark.pedantic(_density_map, setup=setup, rounds=10, warmup_rounds=1)
    assert dmap.shape == (xs.size, TIMES.size) and np.all(np.isfinite(dmap))


def test_density_map_new_window(benchmark, problem):
    # kept x rows, and a time window no earlier round used
    xs = np.linspace(0.0, problem.L, 200)
    _density_map(problem, xs)
    windows = (np.linspace(0.005 + 1e-4 * r, 10.0, TIMES.size) for r in range(1, 100))

    def setup():
        return (problem, xs, next(windows)), {}

    dmap = benchmark.pedantic(_density_map, setup=setup, rounds=30, warmup_rounds=1)
    assert dmap.shape == (xs.size, TIMES.size) and np.all(np.isfinite(dmap))


def _held_bytes(run) -> int:
    """Bytes that allocations made under the package during run() still hold
    after it."""
    tracemalloc.start()
    try:
        run()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    package = os.path.join(os.path.dirname(qshutter.__file__), "*")
    held = snapshot.filter_traces([tracemalloc.Filter(True, package)])
    return sum(stat.size for stat in held.statistics("filename"))


def _memo_bytes(problem, xs):
    """Bytes that allocations under the package still hold after eight
    per-x maps of a new problem on fresh windows, from an emptied memo."""
    problem = make_spectrum(problem.profile, len(problem.modes)).at(problem.E)
    psi_exact.cache_clear()

    def run():
        for r in range(1, 9):
            _density_map(problem, xs, np.linspace(0.005 + 1e-3 * r, 10.0, TIMES.size))

    return _held_bytes(run)


def test_memo_bytes(benchmark, problem):
    xs = np.linspace(0.0, problem.L, 200)
    held = benchmark.pedantic(_memo_bytes, args=(problem, xs), rounds=3, warmup_rounds=0)
    benchmark.extra_info["qshutter_held_bytes"] = held
    # eight kept grids of times, and the problem's pole set keeps blocks of
    # 2 + 2N columns on its two latest grids only
    arrays = 8 * TIMES.size * 8 + 2 * (2 + 2 * len(problem.modes)) * TIMES.size * 16
    assert arrays <= held < 1.25 * arrays


def _columns(run) -> int:
    """The wofz calls, one per M column evaluated, that run() makes."""
    calls, wofz = [], mfunc._wofz()

    def counting(z):
        calls.append(z.shape)
        return wofz(z)

    mfunc._WOFZ = counting
    try:
        run()
    finally:
        mfunc._WOFZ = wofz
    return len(calls)


def _stream(name: str, seed: int, n_ops: int, work_dir: Path):
    """run() for the first n_ops ops of perfbench's stream `name` at seed,
    after the stream's set-up and warm-up on an emptied grid memo."""
    # perfbench/workloads.py, imported read-only as bench/ab.py imports it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    workload = workloads.make_workloads(work_dir)[name]
    psi_exact.cache_clear()
    state = workload.setup(seed)
    workload.warm_up(state)

    def run():
        for op in itertools.islice(workload.ops(state), n_ops):
            op.run()
            if op.cleanup is not None:
                op.cleanup()

    return run


def _stream_columns(name: str, seed: int, n_ops: int, work_dir: Path) -> int:
    """The M columns the first n_ops ops of perfbench's stream `name` at
    seed evaluate, after its set-up and warm-up on an emptied grid memo."""
    return _columns(_stream(name, seed, n_ops, work_dir))


def _preset_columns(work_dir: Path) -> int:
    """The M columns of the five presets and both shipped `evolve` runs, in
    the order of tests/golden.py's generate, from emptied memos."""
    make_spectrum.cache_clear()
    psi_exact.cache_clear()

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            for name in sorted(PRESETS):
                run_figure(name, work_dir / name)
            for name in ("double_barrier", "triple_barrier"):
                assert cli.main(["evolve", "--config", name, "--out", str(work_dir)]) == 0

    return _columns(run)


@pytest.mark.parametrize(
    "name, n_ops, columns", [("scenario_sweep", 63, 72), ("density_maps", 54, 414)]
)
def test_stream_columns(benchmark, tmp_path, name, n_ops, columns):
    # the column traffic of one perfbench run per workload (seed 11): a
    # memo change that evaluates more columns on these streams shows here.
    # The k pair takes one column, M(y_-k): 100 -> 72 on scenario_sweep (44
    # new energies at one column, where 36 took two and the 8 whose pair a
    # grid kept took none, and the same 28 pole columns) and 468 -> 414 on
    # density_maps (54 fresh windows of 1 + 2N columns, not 2 + 2N)
    evaluated = benchmark.pedantic(
        _stream_columns, args=(name, 11, n_ops, tmp_path), rounds=1, iterations=1
    )
    benchmark.extra_info["columns"] = evaluated
    assert evaluated == columns


def _stream_bytes(seed: int, n_ops: int, work_dir: Path) -> int:
    """Bytes that allocations under the package still hold after the set-up,
    warm-up and first n_ops ops of perfbench's `scenario_sweep` stream at
    seed, from emptied spectrum, grid and time-cell memos."""
    make_spectrum.cache_clear()
    output._time_cells.cache_clear()
    return _held_bytes(lambda: _stream("scenario_sweep", seed, n_ops, work_dir)())


def test_stream_bytes(benchmark, tmp_path, trace):
    # what the scenario path keeps (seed 11): the stream holds 4.29 MB when a
    # kept grid's time cells are 2000 strings and each new energy stacks a
    # new block, 3.81 MB with one string per grid and the k pair written in
    # place, and 1.93 MB once a grid keeps no k pairs of earlier energies;
    # the time cells of one 2000-row grid (TIMES, the trace of
    # test_write_trace_csv) take 155,452 B as 2000 strings, 59,461 B as one
    held = benchmark.pedantic(_stream_bytes, args=(11, 63, tmp_path), rounds=1, iterations=1)
    output._time_cells.cache_clear()
    key = _GridKey(trace.times.tobytes())
    rows = _held_bytes(lambda: output._time_cells(key, trace.tau_1))
    benchmark.extra_info.update(qshutter_held_bytes=held, rows_bytes=rows)
    assert held < 2.5e6 and rows < 100_000


def test_preset_columns(benchmark, tmp_path):
    # the column traffic of the golden record's run: fig2a's N = 2 run between
    # N = 4 runs on one grid is another pole set, so it stacks a whole block
    # of 5 columns, and the next N = 4 run one of 9
    evaluated = benchmark.pedantic(_preset_columns, args=(tmp_path,), rounds=1, iterations=1)
    benchmark.extra_info["columns"] = evaluated
    assert evaluated == 47


def test_density_map_per_x_warm(benchmark, problem):
    xs = np.linspace(0.0, problem.L, 200)
    psi_exact(problem, problem.L, TIMES)
    dmap = benchmark.pedantic(_density_map, args=(problem, xs), rounds=30, warmup_rounds=1)
    assert dmap.shape == (xs.size, TIMES.size) and np.all(np.isfinite(dmap))


def test_density_map_broadcast(benchmark, problem):
    xs = np.linspace(0.0, problem.L, 200)[:, None]
    psi_exact(problem, problem.L, TIMES)
    dmap = benchmark.pedantic(
        lambda: np.abs(psi_exact(problem, xs, TIMES)) ** 2, rounds=30, warmup_rounds=1
    )
    assert dmap.shape == (xs.size, TIMES.size) and np.all(np.isfinite(dmap))


def test_density_two_level(benchmark, problem):
    mode_1, mode_2 = problem.modes[:2]
    freqs = frequencies(problem.E, mode_1.pole, mode_2.pole)
    t = np.linspace(0.0, 10.0 * mode_1.pole.tau, 2000)
    d = benchmark(density_two_level, mode_1, mode_2, freqs, problem.L, problem.k, t)
    assert d.shape == t.shape and np.all(d >= 0.0)


def test_dominant_frequency(benchmark, problem):
    mode_1, mode_2 = problem.modes[:2]
    t = np.linspace(0.0, 10.0 * mode_1.pole.tau, 2000)
    d = evolve_trace(problem, problem.L, t, (METHOD_EXACT,)).densities[METHOD_EXACT]
    omega = benchmark(dominant_frequency_series, t, d)
    # within criterion 8's 3% of omega_21 / 2
    half = frequencies(problem.E, mode_1.pole, mode_2.pole).omega_21 / 2.0
    assert omega == pytest.approx(half, rel=0.03)


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


def test_grid_oracle(benchmark):
    check = benchmark.pedantic(acceptance._check_crank_nicolson, rounds=10, warmup_rounds=1)
    assert check.passed


def test_faddeeva_oracle(benchmark):
    # criterion 10's generator, so the same 700 points
    checks = benchmark.pedantic(
        lambda: acceptance._check_faddeeva_oracle(np.random.default_rng(20260815)), rounds=3
    )
    assert all(check.passed for check in checks)


def test_reference_pole(benchmark):
    double = build_profile(list(DOUBLE_LAYERS), MASS_RATIO)
    root = benchmark(reference.pole, double, 0.8269 - 0.0763j)
    assert abs(root - (0.8268925864622473 - 0.07633861685396091j)) < 1e-15


def test_selftest(benchmark):
    def clear():
        make_spectrum.cache_clear()
        psi_exact.cache_clear()

    def selftest():
        with contextlib.redirect_stdout(io.StringIO()):
            return acceptance.run_acceptance()

    results = benchmark.pedantic(selftest, setup=clear, rounds=3)
    assert len(results) == 10


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
