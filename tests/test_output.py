"""CSV schemas, manifest rendering, and plot script emission."""

import csv
import io

import numpy as np
import pytest

from qshutter import TransientTrace, evolve_trace, make_problem
from qshutter.output import (
    Manifest,
    fmt,
    gnuplot_script,
    poles_csv_text,
    transmission_csv_text,
    write_poles_csv,
    write_trace_csv,
    write_transmission_csv,
)
from qshutter.transient import METHODS


def test_fmt_precision():
    assert fmt(0.1185458269) == "0.1185458269"
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(3) == "3"


class TestPolesCsv:
    def test_schema_and_values(self, triple_poles, tmp_path):
        path = tmp_path / "poles.csv"
        write_poles_csv(path, triple_poles)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["n", "E_meV", "Gamma_meV", "Re_k_per_nm", "Im_k_per_nm", "tau_ps"]
        assert len(rows) == 5
        first = rows[1]
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(triple_poles[0].E_position * 1e3)
        assert float(first[2]) == pytest.approx(triple_poles[0].Gamma * 1e3)
        assert float(first[3]) == pytest.approx(triple_poles[0].k.real)
        assert float(first[4]) == pytest.approx(triple_poles[0].k.imag)
        assert float(first[5]) == pytest.approx(triple_poles[0].tau)

    def test_text_matches_file(self, triple_poles, tmp_path):
        path = tmp_path / "poles.csv"
        write_poles_csv(path, triple_poles)
        assert path.read_text() == poles_csv_text(triple_poles)


class TestTransmissionCsv:
    def test_schema(self, tmp_path):
        path = tmp_path / "tx.csv"
        write_transmission_csv(path, [10.0, 11.0], [0.1, 0.9])
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["E_meV", "T"]
        assert rows[1] == ["10", "0.1"]
        assert transmission_csv_text([10.0, 11.0], [0.1, 0.9]).splitlines()[0] == "E_meV,T"


class TestTraceCsv:
    def test_schema(self, tmp_path):
        trace = TransientTrace(
            x=41.0,
            E=0.0129,
            tau_1=2.0,
            times=np.array([0.0, 1.0, 2.0]),
            densities={"exact-N": np.array([0.0, 0.5, 0.25])},
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, "exact-N")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["t_ps", "t_over_tau1", "density", "method"]
        assert rows[2] == ["1", "0.5", "0.5", "exact-N"]


def _trace_csv_by_rows(trace, method):
    """Reference trace CSV: one csv.writer row of fmt(float(...)) fields per time."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["t_ps", "t_over_tau1", "density", "method"])
    for t, v in zip(trace.times, trace.densities[method]):
        w.writerow([fmt(float(t)), fmt(float(t / trace.tau_1)), fmt(float(v)), method])
    return buf.getvalue()


class TestTraceCsvBytes:
    def test_matches_row_writer(self, problem_ebar, free_profile, tmp_path):
        # every method on the triple barrier, t = 0 included, and a free
        # profile, whose tau_1 is nan
        times = np.concatenate(([0.0], np.geomspace(1e-4, 50.0, 400)))
        free = make_problem(free_profile, 0.01, n_poles=0)
        traces = [
            evolve_trace(problem_ebar, problem_ebar.L, times, methods=METHODS),
            evolve_trace(free, 0.5, times),
        ]
        assert np.isnan(traces[1].tau_1)
        for trace in traces:
            for method in trace.densities:
                path = tmp_path / f"{method}.csv"
                write_trace_csv(path, trace, method)
                assert path.read_bytes() == _trace_csv_by_rows(trace, method).encode()


class TestManifest:
    def test_check_lines_and_result(self):
        m = Manifest("demo")
        m.add_info("E_meV", 12.949)
        assert m.check_abs("T", 0.119, 0.1186, 0.001)
        assert not m.check_abs("tau", 1.61, 1.71, 0.01)
        m.check_bound("monotone", "increasing", 0.54, True)
        text = m.render()
        lines = text.splitlines()
        assert lines[0] == "manifest: demo"
        assert lines[1] == "info: E_meV = 12.949"
        assert lines[2] == "check: T, 0.119, 0.1186, 0.001, PASS"
        assert lines[3] == "check: tau, 1.61, 1.71, 0.01, FAIL"
        assert lines[4] == "check: monotone, increasing, 0.54, -, PASS"
        assert lines[-1] == "result: FAIL"
        assert not m.ok

    def test_all_pass(self, tmp_path):
        m = Manifest("ok")
        m.check_abs("x", 1.0, 1.0, 0.1)
        assert m.ok
        path = tmp_path / "manifest.txt"
        m.write(path)
        assert path.read_text().endswith("result: PASS\n")


def test_gnuplot_script(tmp_path):
    path = tmp_path / "fig.gp"
    gnuplot_script(
        path, "fig demo", [("a.csv", "exact"), ("b.csv", "two-level")]
    )
    text = path.read_text()
    assert "set datafile separator ','" in text
    assert "a.csv" in text and "b.csv" in text
    assert "pngcairo" in text
