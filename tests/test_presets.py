"""Figure presets: files emitted, manifest verdicts, curve sanity."""

import csv
from pathlib import Path

import numpy as np
import pytest

from qshutter import QShutterError
from qshutter.acceptance import (
    criterion_3,
    criterion_4,
    criterion_6,
    criterion_7,
    criterion_9,
)
from qshutter.presets import (
    DOUBLE_LAYERS,
    MASS_RATIO,
    PRESETS,
    TRIPLE_LAYERS,
    fig3b_layers,
    run_figure,
)


def test_preset_registry():
    assert set(PRESETS) == {"fig1", "fig2a", "fig2b", "fig3a", "fig3b"}
    for pid, preset in PRESETS.items():
        assert preset.preset_id == pid
        assert preset.description


def test_reference_names_read_from_the_shipped_configs():
    # perfbench, tests/golden.py and acceptance import these names; the
    # layers stay tuples of float pairs, so the profiles built from them hash
    assert TRIPLE_LAYERS == ((3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12))
    assert DOUBLE_LAYERS == ((5.0, 0.23), (5.0, 0.0), (5.0, 0.23))
    assert type(MASS_RATIO) is float and MASS_RATIO == 0.067
    assert fig3b_layers(3) == TRIPLE_LAYERS
    assert fig3b_layers(5)[2] == (5.0, 0.12)
    for layers in (TRIPLE_LAYERS, DOUBLE_LAYERS, fig3b_layers(4)):
        assert type(layers) is tuple
        assert all(type(layer) is tuple for layer in layers)
        assert {type(v) for layer in layers for v in layer} == {float}
        hash(layers)


def test_unknown_preset_rejected(tmp_path):
    with pytest.raises(QShutterError, match="preset"):
        run_figure("fig9", tmp_path)


class TestFig2b:
    """Doublet-center trace; all stated checks hold for the computed doublet."""

    @pytest.fixture(scope="class")
    @staticmethod
    def result(generated_outputs):
        return generated_outputs[1]["fig2b"]

    def test_manifest_passes(self, result):
        assert result.manifest.ok
        assert result.manifest.render().endswith("result: PASS\n")

    def test_files_exist(self, result):
        assert len(result.files) >= 2  # at least one curve + plot script
        for f in result.files:
            assert Path(f).exists()
        assert any(f.endswith(".gp") for f in result.files)
        assert Path(result.manifest_path).exists()

    def test_trace_schema_and_range(self, result):
        csvs = [f for f in result.files if f.endswith(".csv")]
        rows = list(csv.reader(Path(csvs[0]).open()))
        assert rows[0] == ["t_ps", "t_over_tau1", "density", "method"]
        t_tau = np.array([float(r[1]) for r in rows[1:]])
        d = np.array([float(r[2]) for r in rows[1:]])
        assert t_tau[0] == 0.0 and t_tau[-1] == pytest.approx(10.0)
        assert np.all(d >= 0.0)


class TestFig1:
    """Exact vs closed two-level curves; the stated incidence energy check
    fails honestly because the computed doublet sits below the stated one."""

    @pytest.fixture(scope="class")
    @staticmethod
    def result(generated_outputs):
        return generated_outputs[1]["fig1"]

    def test_files_written_despite_failed_check(self, result):
        assert not result.manifest.ok
        for f in result.files:
            assert Path(f).exists()

    def test_only_the_stated_energy_check_fails(self, result):
        failed = [c for c in result.manifest.checks if not c.passed]
        assert len(failed) == 1
        assert "E" in failed[0].name

    def test_curves_agree_after_initial_transient(self, result):
        csvs = sorted(f for f in result.files if f.endswith(".csv"))
        data = {}
        for f in csvs:
            rows = list(csv.reader(Path(f).open()))
            method = rows[1][3]
            data[method] = (
                np.array([float(r[1]) for r in rows[1:]]),
                np.array([float(r[2]) for r in rows[1:]]),
            )
        t, exact = data["exact-N"]
        _, closed = data["two-level-closed"]
        sel = t >= 0.5
        dev = np.abs(exact[sel] - closed[sel]) / np.maximum(exact[sel], 1e-12)
        assert float(dev.max()) < 0.05


class TestFig3b:
    """Transmission enhancement with center-barrier width."""

    @pytest.fixture(scope="class")
    @staticmethod
    def result(generated_outputs):
        return generated_outputs[1]["fig3b"]

    def test_manifest_passes(self, result):
        assert result.manifest.ok

    def test_three_structures_emitted(self, result):
        csvs = [f for f in result.files if f.endswith(".csv")]
        assert len(csvs) == 3


# every manifest's checks in order: (name, verdict, measured value)
MANIFEST_CHECKS = {
    "fig1": [
        ("E1 + 2*Gamma1 (meV)", False, 12.3186773232),
        ("tau1 (ps)", True, 1.61510339377),
        ("closed two-level vs exact, max rel dev on [0.5, 10] tau1", True, 0.0454407661761),
    ],
    "fig2a": [
        ("max |M-form density - envelope| over [0, 10] tau1", True, 0.0386786228982),
        ("residual oscillation frequency (rad/ps)", True, 4.34482852545),
    ],
    "fig2b": [
        ("T at the doublet center", True, 0.118545826936),
        ("dominant frequency (rad/ps)", True, 2.17241461073),
    ],
    "fig3a": [
        ("triple asymptote T", True, 0.118545826936),
        ("double asymptote T (own doublet offset)", False, 0.0238094388553),
        ("T(83.740 meV), double", True, 0.0229811569853),
    ],
    "fig3b": [
        ("T(Ebar(b2)) ordering over b2 = 3, 4, 5 nm", True, 0.423134225263),
        ("T(Ebar(5 nm))", True, 0.541680052198),
    ],
}


@pytest.mark.parametrize("preset_id", sorted(MANIFEST_CHECKS))
def test_manifest_checks_pinned(preset_id, generated_outputs):
    checks = generated_outputs[1][preset_id].manifest.checks
    expected = MANIFEST_CHECKS[preset_id]
    assert [(c.name, c.passed) for c in checks] == [(n, v) for n, v, _ in expected]
    for c, (_, _, measured) in zip(checks, expected):
        assert c.measured == pytest.approx(measured, rel=1e-9)


# checks a figure and a selftest criterion both make: (preset, criterion, name)
SHARED_CHECKS = [
    ("fig1", criterion_4, "tau1 (ps)"),
    ("fig1", criterion_6, "closed two-level vs exact, max rel dev on [0.5, 10] tau1"),
    ("fig2a", criterion_7, "max |M-form density - envelope| over [0, 10] tau1"),
    ("fig2a", criterion_7, "residual oscillation frequency (rad/ps)"),
    ("fig3a", criterion_3, "T(83.740 meV), double"),
    ("fig3b", criterion_9, "T(Ebar(b2)) ordering over b2 = 3, 4, 5 nm"),
    ("fig3b", criterion_9, "T(Ebar(5 nm))"),
]


@pytest.mark.parametrize("preset_id, criterion, name", SHARED_CHECKS)
def test_shared_check_matches_its_criterion(preset_id, criterion, name, generated_outputs):
    def find(checks):
        (check,) = (c for c in checks if c.name == name)
        return check.expected, check.tolerance

    figure = generated_outputs[1][preset_id].manifest.checks
    assert find(figure) == find(criterion().checks)
