"""CSV, manifest, and plot-script emission.

Schemas (fixed; part of the test surface):

    traces:        t_ps, t_over_tau1, density, method
    poles:         n, E_meV, Gamma_meV, Re_k_per_nm, Im_k_per_nm, tau_ps
    transmission:  E_meV, T

Manifests are plain structured text: one `check: name, expected, measured,
tolerance, verdict` line per assertion plus free-form `info:` lines.  Each
assertion is one Check record, built by check_abs or check_bound and
appended to Manifest.checks; the selftest prints the same record as an
expected-vs-measured sub-line.  A manifest's one verdict is Manifest.ok.  All
numbers go through one format, fmt's %.12g for floats, so identical inputs
produce byte-identical files.  The CSVs apply it with one % per file, over a
row template repeated once per row (_table).  A trace's `t_ps,t_over_tau1,`
cells depend only on its time grid and tau_1, so the cells of the 8 most
recently written grids are kept (_time_cells): every later file on a kept
grid, of the same trace or of another one, formats only its density column.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import DomainError
from .model import _real_array
from .poles import ResonancePole
from .transient import _COLUMN_MEMO_POINTS, _GRID_MEMO_SIZE, TransientTrace, _GridKey

__all__ = [
    "fmt",
    "write_trace_csv",
    "poles_csv_text",
    "write_poles_csv",
    "transmission_csv_text",
    "write_transmission_csv",
    "Check",
    "check_abs",
    "check_bound",
    "Manifest",
    "gnuplot_script",
]


def fmt(v) -> str:
    """Deterministic number formatting for manifests; the CSVs apply the
    same %.12g to their floats through one row template."""
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _write(path, text: str) -> str:
    """Write text to path with no newline translation; the path as a str."""
    path = Path(path)
    path.write_text(text, newline="")
    return str(path)


def _table(header: str, row: str, *columns: list) -> str:
    """header, then `row` filled from each row of the columns (zip's rows:
    the shortest column sets the count), as one % over `row` repeated."""
    n = min(map(len, columns))
    cells = [None] * (n * len(columns))
    for i, column in enumerate(columns):
        cells[i :: len(columns)] = column[:n]
    return header + row * n % tuple(cells)


# a trace row: its time cells, then a density slot and a method slot
_TRACE_ROW = "%.12g,%.12g,%%.12g,%%s\n"


# as many (grid, tau_1) keys as transient keeps time grids
@lru_cache(maxsize=_GRID_MEMO_SIZE)
def _time_cells(t_key: _GridKey, tau_1: float) -> str:
    """Every row on the time grid t_key as one template: its `t_ps,t_over_tau1,`
    cells, then a %.12g slot for the density and a %s slot for the method."""
    times = np.frombuffer(t_key.data)
    return _table("", _TRACE_ROW, times.tolist(), (times / tau_1).tolist())


def _last_cell(text: str) -> str:
    """`text` as csv.writer writes it at the end of a row: quoted when it
    holds a comma, a quote, a carriage return or a line feed."""
    buf = io.StringIO()
    csv.writer(buf).writerow(("", text))
    return buf.getvalue()[1:-2]


def write_trace_csv(path, trace: TransientTrace, method: str) -> str:
    """One curve of a trace; time in both ps and tau_1 units.

    The bytes are those of a csv.writer (line terminator "\\n") fed
    fmt(float(...)) fields; a method tag holding a carriage return is
    quoted as well, so every row reads back as four fields.  A method the
    trace does not hold raises DomainError before any file is opened.

    The time cells are keyed on (grid, tau_1), not on the trace, the grid as
    transient._GridKey keys it.  transient's caps on the grids it keeps
    serve here too: the cells of the 8 most recently written keys
    (_GRID_MEMO_SIZE) are kept, as one string of rows with a density and a
    method slot each (~0.07 MB per 2000-row grid), and every later write on
    a kept grid fills that string.
    A grid of more than 4096 points (_COLUMN_MEMO_POINTS) is formatted on
    every write and never kept, so a large trace pins no text.
    A free profile's tau_1 is nan, and every free trace carries the same
    np.nan object, which the memo matches by identity: two free traces on
    one grid share their cells, which are the same text ("nan" in the
    t_over_tau1 column).  _time_cells.cache_clear() empties the memo.
    """
    if method not in trace.densities:
        raise DomainError(f"trace has no '{method}' curve; it has {trace.methods}")
    times, curve = trace.times, trace.densities[method]
    format_cells = _time_cells if times.size <= _COLUMN_MEMO_POINTS else _time_cells.__wrapped__
    rows = format_cells(_GridKey(times.tobytes()), trace.tau_1)
    cells = [_last_cell(method)] * (2 * curve.size)
    cells[::2] = curve.tolist()
    return _write(path, "t_ps,t_over_tau1,density,method\n" + rows % tuple(cells))


def poles_csv_text(poles: list[ResonancePole]) -> str:
    return _table(
        "n,E_meV,Gamma_meV,Re_k_per_nm,Im_k_per_nm,tau_ps\n",
        "%s,%.12g,%.12g,%.12g,%.12g,%.12g\n",
        [p.index for p in poles],
        [p.E_position * 1e3 for p in poles],
        [p.Gamma * 1e3 for p in poles],
        [p.k.real for p in poles],
        [p.k.imag for p in poles],
        [p.tau for p in poles],
    )


def write_poles_csv(path, poles: list[ResonancePole]) -> str:
    return _write(path, poles_csv_text(poles))


def transmission_csv_text(energies_meV, T_values) -> str:
    """One row per energy; columns that are not 1-D and of one length raise
    DomainError, as _table would drop the rows past the shorter one."""
    E = _real_array(energies_meV, "energies_meV")
    T = _real_array(T_values, "T_values")
    if not (E.ndim == T.ndim == 1 and E.size == T.size):
        raise DomainError(
            f"energies_meV and T_values must be 1-D of one length, got {E.shape} and {T.shape}"
        )
    return _table("E_meV,T\n", "%.12g,%.12g\n", E.tolist(), T.tolist())


def write_transmission_csv(path, energies_meV, T_values) -> str:
    return _write(path, transmission_csv_text(energies_meV, T_values))


@dataclass(frozen=True)
class Check:
    """One expected-vs-measured assertion.

    With a tolerance it is an absolute band, |measured - expected| <= tolerance;
    without one (None) expected is the text of a bound whose verdict the
    caller decided.  render() gives the manifest `check:` line, line() the
    selftest sub-line.
    """

    name: str
    expected: float | str
    measured: float
    tolerance: float | None
    passed: bool

    def render(self) -> str:
        tol = "-" if self.tolerance is None else fmt(self.tolerance)
        return (
            f"check: {self.name}, {fmt(self.expected)}, {fmt(self.measured)}, "
            f"{tol}, {'PASS' if self.passed else 'FAIL'}"
        )

    def line(self) -> str:
        if self.tolerance is None:
            expected, measured = self.expected, f"{self.measured:.6g}"
        else:
            expected = f"{self.expected:g} +- {self.tolerance:g}"
            measured = f"{self.measured:.6f}"
        tag = "ok  " if self.passed else "FAIL"
        return f"    {tag}  {self.name}: expected {expected}, measured {measured}"


def check_abs(name: str, expected: float, measured: float, tol: float) -> Check:
    """|measured - expected| <= tol."""
    return Check(name, expected, measured, tol, bool(abs(measured - expected) <= tol))


def check_bound(name: str, expected: str, measured: float, ok: bool) -> Check:
    """Inequality or ordering check; the caller supplies the verdict."""
    return Check(name, expected, measured, None, bool(ok))


@dataclass
class Manifest:
    """Collects the infos and the appended Checks of one figure run."""

    title: str
    checks: list[Check] = field(default_factory=list)
    infos: list[str] = field(default_factory=list)

    def add_info(self, key: str, value) -> None:
        self.infos.append(f"info: {key} = {fmt(value)}")

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = [f"manifest: {self.title}"]
        lines.extend(self.infos)
        lines.extend(c.render() for c in self.checks)
        lines.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> str:
        return _write(path, self.render())


def gnuplot_script(path, title: str, curves: list[tuple[str, str]]) -> str:
    """Plain-text plotting script over the emitted trace CSVs (no plotting
    dependency in the package): |Psi|^2 (column 3) against t / tau_1
    (column 2); curves are (csv_filename, legend) pairs."""
    png = Path(path).with_suffix(".png").name
    # every ::1 skips the header row
    plots = ", \\\n     ".join(
        f"'{fname}' using 2:3 every ::1 with lines title '{label}'"
        for fname, label in curves
    )
    script = (
        "# generated plotting script; run with: gnuplot <this file>\n"
        "set datafile separator ','\n"
        f"set title '{title}'\n"
        "set xlabel 't / tau_1'\n"
        "set ylabel '|Psi|^2'\n"
        "set key top right\n"
        "set grid\n"
        "set terminal pngcairo size 960,640\n"
        f"set output '{png}'\n"
        f"plot {plots}\n"
    )
    return _write(path, script)
