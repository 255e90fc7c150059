"""CSV schemas, manifest rendering, and plot script emission."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest

from qshutter import (
    DomainError,
    TransientTrace,
    evolve_trace,
    make_problem,
    output,
    transient,
    transmission,
)
from qshutter.acceptance import CheckResult
from qshutter.output import (
    Manifest,
    check_abs,
    check_bound,
    fmt,
    gnuplot_script,
    poles_csv_text,
    transmission_csv_text,
    write_trace_csv,
    write_transmission_csv,
)
from qshutter.transient import METHODS


def test_fmt_precision():
    assert fmt(0.1185458269) == "0.1185458269"
    assert fmt(1.0 / 3.0) == "0.333333333333"
    assert fmt(3) == "3"


class TestPolesCsv:
    def test_schema_and_values(self, triple_poles):
        rows = list(csv.reader(io.StringIO(poles_csv_text(triple_poles))))
        assert rows[0] == ["n", "E_meV", "Gamma_meV", "Re_k_per_nm", "Im_k_per_nm", "tau_ps"]
        assert len(rows) == 5
        first = rows[1]
        assert int(first[0]) == 1
        assert float(first[1]) == pytest.approx(triple_poles[0].E_position * 1e3)
        assert float(first[2]) == pytest.approx(triple_poles[0].Gamma * 1e3)
        assert float(first[3]) == pytest.approx(triple_poles[0].k.real)
        assert float(first[4]) == pytest.approx(triple_poles[0].k.imag)
        assert float(first[5]) == pytest.approx(triple_poles[0].tau)


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


def _csv_by_rows(header, rows):
    """Reference CSV text: one csv.writer row per row."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def _trace_csv_by_rows(trace, method):
    """Reference trace CSV: one csv.writer row of fmt(float(...)) fields per time."""
    return _csv_by_rows(
        ["t_ps", "t_over_tau1", "density", "method"],
        (
            [fmt(float(t)), fmt(float(t / trace.tau_1)), fmt(float(v)), method]
            for t, v in zip(trace.times, trace.densities[method])
        ),
    )


class TestTableCsvBytes:
    def test_poles_match_row_writer(self, triple_poles, double_poles):
        for poles in (triple_poles, double_poles, []):
            expected = _csv_by_rows(
                ["n", "E_meV", "Gamma_meV", "Re_k_per_nm", "Im_k_per_nm", "tau_ps"],
                (
                    [p.index, fmt(p.E_position * 1e3), fmt(p.Gamma * 1e3),
                     fmt(p.k.real), fmt(p.k.imag), fmt(p.tau)]
                    for p in poles
                ),
            )
            assert poles_csv_text(poles) == expected

    def test_transmission_matches_row_writer(self, triple_profile):
        energies = np.linspace(0.025, 100.0, 4000)
        T = transmission(triple_profile, energies * 1e-3)[1]
        cases = [
            (energies, T),
            ([1, 2.5, 1e-300, -0.0], [0, 1.0, np.float64(1.0 / 3.0), np.nan]),
        ]
        for e, t in cases:
            expected = _csv_by_rows(
                ["E_meV", "T"], ([fmt(float(a)), fmt(float(b))] for a, b in zip(e, t))
            )
            assert transmission_csv_text(e, t) == expected


def _hand_built(tag):
    """A three-time trace with a curve under `tag` and one under "b"."""
    return TransientTrace(
        x=1.0,
        E=0.01,
        tau_1=0.3,
        times=np.array([0.0, 0.125, 1.0 / 3.0]),
        densities={tag: np.array([0.0, 1e-20, 0.7]), "b": np.array([1.0, 2.0, 3.0])},
    )


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

    @pytest.mark.parametrize("order", [1, -1], ids=["forward", "reverse"])
    def test_every_method_in_either_order(self, problem_ebar, tmp_path, order):
        # the first write formats the time cells and the later ones reuse them
        times = np.concatenate(([0.0], np.geomspace(1e-3, 20.0, 300)))
        trace = evolve_trace(problem_ebar, problem_ebar.L, times, methods=METHODS)
        for method in METHODS[::order]:
            path = tmp_path / f"{method}.csv"
            write_trace_csv(path, trace, method)
            assert path.read_bytes() == _trace_csv_by_rows(trace, method).encode()

    def test_percent_in_method_tag(self, tmp_path):
        tag = "exact%d-100%"
        trace = _hand_built(tag)
        for method in ("b", tag):
            path = tmp_path / f"{method}.csv"
            write_trace_csv(path, trace, method)
            assert path.read_bytes() == _trace_csv_by_rows(trace, method).encode()

    @pytest.mark.parametrize("tag", ['a,"b"', "two\nlines", "two\rlines"])
    def test_method_tag_quoted_like_csv_writer(self, tmp_path, tag):
        trace = _hand_built(tag)
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace, tag)
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        assert [len(r) for r in rows] == [4] * 4
        assert [r[3] for r in rows[1:]] == [tag] * 3
        if "\r" not in tag:
            # the reference writer ends rows in "\n", so it leaves "\r" bare
            assert path.read_bytes() == _trace_csv_by_rows(trace, tag).encode()

    def test_time_cells_formatted_once_per_grid(
        self, triple_spectrum, ebar, monkeypatch, tmp_path
    ):
        formats = []
        table = output._table

        def counted(header, row, *columns):
            # _time_cells is the one caller that renders without a header
            if not header:
                formats.append(len(columns[0]))
            return table(header, row, *columns)

        def write_every_method(trace, name):
            for method in trace.methods:
                path = tmp_path / f"{name}-{method}.csv"
                write_trace_csv(path, trace, method)
                assert path.read_bytes() == _trace_csv_by_rows(trace, method).encode()

        # the memo is module state: an earlier test may have kept these grids
        output._time_cells.cache_clear()
        monkeypatch.setattr(output, "_table", counted)
        times = np.linspace(0.0, 10.0, 50)
        L = triple_spectrum.profile.total_length
        energies = (ebar, triple_spectrum.poles[1].E_position)
        traces = [evolve_trace(triple_spectrum.at(E), L, times, METHODS) for E in energies]
        assert traces[0].tau_1 == traces[1].tau_1
        for i, trace in enumerate(traces):
            write_every_method(trace, f"E{i}")
        assert formats == [50]
        # tau_1 sets the t_over_tau1 column, so another tau_1 formats again
        write_every_method(replace(traces[0], tau_1=2 * traces[0].tau_1), "tau")
        # and so does another grid
        write_every_method(
            evolve_trace(triple_spectrum.at(ebar), L, times[:40], METHODS), "grid"
        )
        assert formats == [50, 50, 40]
        assert output._time_cells.cache_info().currsize == 3
        # a grid past the point cap is formatted on every write and never kept
        n = transient._COLUMN_MEMO_POINTS + 1
        big = TransientTrace(
            x=1.0, E=0.01, tau_1=0.3, times=np.linspace(0.0, 10.0, n),
            densities={"a": np.linspace(0.0, 1.0, n), "b": np.zeros(n)},
        )
        write_every_method(big, "big")
        assert formats == [50, 50, 40, n, n]
        assert output._time_cells.cache_info().currsize == 3

    def test_missing_method_is_a_domain_error(self, tmp_path):
        trace = _hand_built("a")
        path = tmp_path / "trace.csv"
        with pytest.raises(DomainError, match=r"no 'two-level-M' curve.*\('a', 'b'\)"):
            write_trace_csv(path, trace, "two-level-M")
        assert not path.exists()


class TestManifest:
    def test_check_lines_and_result(self):
        m = Manifest("demo")
        m.add_info("E_meV", 12.949)
        m.checks += [
            check_abs("T", 0.119, 0.1186, 0.001),
            check_abs("tau", 1.61, 1.71, 0.01),
            check_bound("monotone", "increasing", 0.54, True),
        ]
        assert [c.passed for c in m.checks] == [True, False, True]
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
        m.checks.append(check_abs("x", 1.0, 1.0, 0.1))
        assert m.ok
        path = tmp_path / "manifest.txt"
        m.write(path)
        assert path.read_text().endswith("result: PASS\n")


class TestCheckRendering:
    """One Check renders as a manifest `check:` line and as a selftest line."""

    CHECKS = (
        check_abs("tau1 (ps)", 1.61, 1.61510339377, 0.01),
        check_abs("curlyE1 (meV)", 11.512, 11.503606063, 0.001),
        check_bound("pole search runtime (s)", "< 1", 0.0062993012, True),
    )

    def test_manifest_lines(self):
        assert [c.render() for c in self.CHECKS] == [
            "check: tau1 (ps), 1.61, 1.61510339377, 0.01, PASS",
            "check: curlyE1 (meV), 11.512, 11.503606063, 0.001, FAIL",
            "check: pole search runtime (s), < 1, 0.0062993012, -, PASS",
        ]

    def test_selftest_lines(self):
        result = CheckResult(
            "stated doublet parameters", number=1, checks=list(self.CHECKS), notes=["why"]
        )
        assert not result.ok
        assert result.render() == (
            "criterion  1: FAIL  stated doublet parameters\n"
            "    ok    tau1 (ps): expected 1.61 +- 0.01, measured 1.615103\n"
            "    FAIL  curlyE1 (meV): expected 11.512 +- 0.001, measured 11.503606\n"
            "    ok    pole search runtime (s): expected < 1, measured 0.0062993\n"
            "    note: why"
        )


def test_gnuplot_script(tmp_path):
    path = tmp_path / "fig.gp"
    gnuplot_script(
        path, "fig demo", [("a.csv", "exact"), ("b.csv", "two-level")]
    )
    text = path.read_text()
    assert "set datafile separator ','" in text
    assert "a.csv" in text and "b.csv" in text
    assert "pngcairo" in text
