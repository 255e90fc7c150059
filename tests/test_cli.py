"""Command-line surface: subcommands, exit codes, file side effects."""

import csv
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import TRIPLE_E1_MEV

import qshutter
from qshutter import find_poles
from qshutter.cli import main
from qshutter.presets import DOUBLE_LAYERS, MASS_RATIO


def run_cli(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


class TestPoles:
    def test_stdout_csv(self, capsys):
        code, out, err = run_cli(["poles", "--config", "triple_barrier", "--n", "2"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "E_meV", "Gamma_meV", "Re_k_per_nm", "Im_k_per_nm", "tau_ps"]
        assert len(rows) == 3
        assert abs(float(rows[1][1]) - TRIPLE_E1_MEV) < 1e-6

    def test_out_dir_matches_stdout(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["poles", "--config", "double_barrier", "--n", "1", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        written = tmp_path / "poles.csv"
        assert written.read_text() == out
        assert "wrote" in err

    def test_double_barrier_third_pole(self, capsys):
        # Newton from the third T(E) peak's seed used to leave the quadrant;
        # the third lowest pole (385.50 meV), which reference.pole confirms
        code, out, err = run_cli(["poles", "--config", "double_barrier", "--n", "3"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 4
        k3 = complex(float(rows[3][3]), float(rows[3][4]))
        assert abs(k3 - (0.826892586 - 0.076338617j)) < 1e-9
        profile = qshutter.build_profile(list(DOUBLE_LAYERS), MASS_RATIO)
        assert abs(qshutter.pole_condition(profile, find_poles(profile, 3)[2].k)) < 1e-12

    def test_n_zero_rejected(self, capsys):
        # the bound lives in the config's field table, as for evolve --n
        code, out, err = run_cli(["poles", "--config", "triple_barrier", "--n", "0"], capsys)
        assert code == 2
        assert "error:" in err
        assert "field 'n_poles'" in err

    def test_shipped_name_with_cfg_suffix(self, tmp_path, monkeypatch, capsys):
        # no triple_barrier.cfg in the working directory: the shipped file is read
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(["poles", "--config", "triple_barrier.cfg", "--n", "2"], capsys)
        assert code == 0
        assert out == run_cli(["poles", "--config", "triple_barrier", "--n", "2"], capsys)[1]

    def test_config_file_path(self, tmp_path, capsys):
        cfg = tmp_path / "custom.cfg"
        cfg.write_text(
            "layer = 5.0 nm, 0.23 eV\n"
            "layer = 5.0 nm, 0.0 eV\n"
            "layer = 5.0 nm, 0.23 eV\n"
            "mass_ratio = 0.067\n"
            "energy = 80.0 meV\n"
            "n_poles = 1\n"
            "t_max = 1.0 tau1\n"
            "points = 10\n"
            "x = L\n"
            "methods = exact-N\n"
            "out = t.csv\n"
        )
        code, out, err = run_cli(["poles", "--config", str(cfg)], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 2  # header + the one requested pole


class TestTransmission:
    def test_default_point_count(self, capsys):
        code, out, err = run_cli(
            ["transmission", "--config", "double_barrier", "--from", "70", "--to", "90"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["E_meV", "T"]
        assert len(rows) == 1 + 400
        assert float(rows[1][0]) == 70.0
        assert float(rows[-1][0]) == 90.0
        assert all(0.0 <= float(r[1]) <= 1.0 for r in rows[1:])

    def test_one_point_rejected(self, capsys):
        code, out, err = run_cli(
            ["transmission", "--config", "double_barrier", "--from", "70", "--to", "90",
             "--points", "1"],
            capsys,
        )
        assert code == 2
        assert "--points must be >= 2, got 1" in err

    def test_inverted_window_rejected(self, capsys):
        code, out, err = run_cli(
            ["transmission", "--config", "double_barrier", "--from", "90", "--to", "70"],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_out_file(self, tmp_path, capsys):
        code, out, err = run_cli(
            [
                "transmission", "--config", "triple_barrier",
                "--from", "10", "--to", "16", "--points", "7",
                "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "transmission.csv").read_text() == out


class TestEvolve:
    def test_shipped_config_writes_per_method(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["evolve", "--config", "triple_barrier", "--points", "40", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        for method in ("exact-N", "two-level-closed"):
            f = tmp_path / f"triple_trace_{method}.csv"
            assert f.exists()
            rows = list(csv.reader(f.open()))
            assert rows[0] == ["t_ps", "t_over_tau1", "density", "method"]
            assert len(rows) == 1 + 40
            assert rows[1][3] == method
        m = re.search(r"E = ([\d.]+) meV, tau1 = ([\d.]+) ps, x = ([\d.]+) nm", out)
        assert m is not None
        assert abs(float(m.group(3)) - 41.0) < 1e-12

    def test_position_override(self, tmp_path, capsys):
        code, out, err = run_cli(
            [
                "evolve", "--config", "double_barrier",
                "--points", "5", "--x", "7.5", "--out", str(tmp_path),
            ],
            capsys,
        )
        assert code == 0
        assert "x = 7.5 nm" in out

    @pytest.mark.parametrize(
        "flag, value, field",
        [("--points", "-3", "points"), ("--points", "0", "points"),
         ("--points", "1", "points"), ("--n", "0", "n_poles")],
    )
    def test_override_out_of_bounds_rejected(self, tmp_path, capsys, flag, value, field):
        # overrides obey the config text's bounds and name the field
        code, out, err = run_cli(
            ["evolve", "--config", "double_barrier", flag, value, "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert f"field '{field}'" in err
        assert not list(tmp_path.iterdir())

    def test_position_outside_structure_rejected(self, tmp_path, capsys):
        code, out, err = run_cli(
            ["evolve", "--config", "double_barrier", "--x", "99", "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "error:" in err


class TestFigure:
    def test_fig2b_passes(self, tmp_path, capsys):
        code, out, err = run_cli(["figure", "fig2b", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "result: PASS" in out
        assert err.count("wrote") >= 3

    def test_fig1_fails_honestly_but_writes(self, tmp_path, capsys):
        code, out, err = run_cli(["figure", "fig1", "--out", str(tmp_path)], capsys)
        assert code == 3
        assert "result: FAIL" in out
        assert "wrote" in err
        assert any(p.suffix == ".csv" for p in tmp_path.iterdir())

    def test_unknown_preset_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9"])
        assert exc.value.code == 2


class TestSelftest:
    def test_reports_every_criterion_and_fails(self, selftest_run):
        # criterion 1 times a pole search of the triple barrier on its own;
        # every spectrum comes from make_spectrum's memo, which searches each
        # distinct profile once: triple, double, b2 = 4 and 5 nm
        code, out, _, searches = selftest_run
        assert len(searches) == 1 + 4
        lines = re.findall(r"^criterion\s+\d+: (?:PASS|FAIL)", out, re.MULTILINE)
        assert len(lines) == 10
        m = re.search(r"passed (\d+) of 10 criteria", out)
        assert m is not None
        # stated resonance digits are not reachable from the pinned
        # constants, so the suite is expected to report those misses
        assert code == (0 if m.group(1) == "10" else 1)
        assert code == 1


def test_bad_config_name_lists_shipped(capsys):
    code, out, err = run_cli(["poles", "--config", "nope"], capsys)
    assert code == 2
    assert (
        "error: field 'config': 'nope' is neither a file nor a shipped config "
        "(shipped: double_barrier, triple_barrier)"
    ) in err


def test_no_arguments_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_entry_point():
    # the child imports the same qshutter as this process, installed or not
    package_root = str(Path(qshutter.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (package_root, path)))}
    proc = subprocess.run(
        [sys.executable, "-m", "qshutter.cli", "poles", "--config", "double_barrier", "--n", "1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("n,E_meV")
