"""Scenario-config grammar and resolution against computed resonances."""

import numpy as np
import pytest

from qshutter import ConfigError, parse_config, resolve_scenario
from qshutter.config import Incidence, ScenarioConfig, override

TRIPLE_CFG = """\
# reference triple barrier
layer = 3 nm, 0.12 eV
layer = 16 nm, 0 eV
layer = 3 nm, 0.12 eV
layer = 16 nm, 0 eV
layer = 3 nm, 0.12 eV
mass_ratio = 0.067
energy = doublet-center
n_poles = 4
t_max = 10 tau1
points = 200
x = L
methods = exact-N, two-level-M
out = trace.csv
"""


class TestParseConfig:
    def test_full_grammar(self):
        cfg = parse_config(TRIPLE_CFG)
        assert cfg.layers == (
            (3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12),
        )
        assert cfg.mass_ratio == 0.067
        assert cfg.incidence.kind == "doublet-center"
        assert cfg.n_poles == 4
        assert cfg.t_max_tau1 == 10.0
        assert cfg.points == 200
        assert cfg.x_nm is None  # x = L
        assert cfg.methods == ("exact-N", "two-level-M")
        assert cfg.out == "trace.csv"

    def test_absolute_energy(self):
        cfg = parse_config(
            "layer = 5 nm, 0.23 eV\nmass_ratio = 0.067\nenergy = 83.740 meV\n"
        )
        assert cfg.incidence.kind == "absolute"
        assert cfg.incidence.value == pytest.approx(83.740e-3)

    def test_offset_energy(self):
        cfg = parse_config(
            "layer = 5 nm, 0.23 eV\nmass_ratio = 0.067\n"
            "energy = E1 + 3.515*Gamma1\n"
        )
        assert cfg.incidence.kind == "offset"
        assert cfg.incidence.value == pytest.approx(3.515)

    def test_negative_offset_energy(self):
        cfg = parse_config(
            "layer = 5 nm, 0.23 eV\nmass_ratio = 0.067\n"
            "energy = E1 - 0.5*Gamma1\n"
        )
        assert cfg.incidence.value == pytest.approx(-0.5)

    def test_numeric_x(self):
        cfg = parse_config(
            "layer = 5 nm, 0.23 eV\nmass_ratio = 0.067\n"
            "energy = 10 meV\nx = 2.5 nm\n"
        )
        assert cfg.x_nm == 2.5

    def test_unknown_key_rejected_with_line(self):
        text = "layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\nenergy = 10 meV\nwat = 3\n"
        with pytest.raises(ConfigError, match="line 4"):
            parse_config(text)

    @pytest.mark.parametrize("key", ["bogus", "layer"])
    def test_override_of_an_unknown_key_names_it(self, key):
        cfg = parse_config(TRIPLE_CFG)
        with pytest.raises(ConfigError, match=f"field '{key}': unknown key '{key}'"):
            override(cfg, **{key: 1})

    def test_duplicate_scalar_key_rejected(self):
        text = (
            "layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\n"
            "energy = 10 meV\nenergy = 12 meV\n"
        )
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config(text)

    def test_layer_validation_names_layer_and_line(self):
        text = "layer = 5 nm, 0.1 eV\nlayer = -2 nm, 0 eV\nmass_ratio = 0.067\nenergy = 10 meV\n"
        with pytest.raises(ConfigError, match="layer 2"):
            parse_config(text)

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="layer"):
            parse_config("mass_ratio = 0.067\nenergy = 10 meV\n")
        with pytest.raises(ConfigError, match="energy"):
            parse_config("layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\n")

    def test_bad_energy_spec(self):
        with pytest.raises(ConfigError, match="energy"):
            parse_config(
                "layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\nenergy = later\n"
            )

    def test_zero_poles_rejected_with_line(self):
        # every config run reads pole 1 for its tau1 time grid
        text = "layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\nenergy = 10 meV\nn_poles = 0\n"
        with pytest.raises(
            ConfigError, match=r"line 4, field 'n_poles': value must be an integer >= 1"
        ):
            parse_config(text)

    @pytest.mark.parametrize(
        "line, field",
        [
            ("mass_ratio = 1e999", "mass_ratio"),
            ("energy = -5 meV", "energy"),
            ("energy = E1 + 1e999*Gamma1", "energy"),
            ("t_max = 0 tau1", "t_max"),
            ("n_poles = 2.5", "n_poles"),
            ("points = 1", "points"),
            ("x = 1e999 nm", "x"),
            ("layer = 2 nm, -0.1 eV", "layer 1"),
            ("methods = exact-N, simpson", "methods"),
            ("out = ", "out"),
        ],
    )
    def test_value_outside_its_rule_names_line_and_field(self, line, field):
        # ScenarioConfig reads each value by the rule of its key, and
        # parse_config adds the key's line
        base = {"layer": "layer = 5 nm, 0.1 eV", "mass_ratio": "mass_ratio = 0.067",
                "energy": "energy = 10 meV"}
        text = "\n".join({**base, line.split(" =")[0]: line}.values())
        with pytest.raises(ConfigError, match=rf"line \d, field '{field}': "):
            parse_config(text)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_poles = abc", "line 4, field 'n_poles': not a number: 'abc'"),
            ("layer = 5, 0.1", "line 4, field 'layer 2': expected '<width> nm, <height> eV'"),
            ("n_poles 4", "line 4: expected 'key = value'"),
        ],
    )
    def test_malformed_line_says_what_it_expected(self, line, message):
        text = f"layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\nenergy = 10 meV\n{line}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize(
        "incidence, text",
        [
            (Incidence("absolute", 0.01), "10 meV"),
            (Incidence("offset", -1.5), "E1 + -1.5*Gamma1"),
            (Incidence("doublet-center"), "doublet-center"),
        ],
    )
    def test_incidence_describes_itself(self, incidence, text):
        assert incidence.describe() == text

    def test_unknown_method_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            parse_config(
                "layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\n"
                "energy = 10 meV\nmethods = simpson\n"
            )

    def test_duplicate_method_rejected_with_line(self):
        # a repeated tag would write the same trace CSV twice
        text = (
            "layer = 5 nm, 0.1 eV\nmass_ratio = 0.067\nenergy = 10 meV\n"
            "methods = exact-N, exact-N, two-level-M\n"
        )
        with pytest.raises(
            ConfigError, match=r"line 4, field 'methods': duplicate method 'exact-N'"
        ):
            parse_config(text)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(
            "\n# leading comment\n\nlayer = 5 nm, 0.1 eV\n"
            "mass_ratio = 0.067\n# mid comment\nenergy = 10 meV\n\n"
        )
        assert cfg.layers == ((5.0, 0.1),)


class TestResolveScenario:
    def test_doublet_center_resolution(self):
        rs = resolve_scenario(parse_config(TRIPLE_CFG))
        p1 = rs.problem.modes[0].pole
        p2 = rs.problem.modes[1].pole
        assert rs.E_meV == pytest.approx(
            0.5 * (p1.E_position + p2.E_position) * 1e3, rel=1e-12
        )
        assert rs.tau_1 == pytest.approx(p1.tau, rel=1e-12)
        assert rs.x == rs.problem.L
        assert len(rs.times) == 200
        assert rs.times[0] == 0.0
        assert rs.times[-1] == pytest.approx(10.0 * rs.tau_1)

    def test_offset_resolution(self, double_poles):
        cfg = parse_config(
            "layer = 5 nm, 0.23 eV\nlayer = 5 nm, 0 eV\nlayer = 5 nm, 0.23 eV\n"
            "mass_ratio = 0.067\nenergy = E1 + 3.515*Gamma1\nn_poles = 2\n"
        )
        rs = resolve_scenario(cfg)
        p1 = double_poles[0]
        expect = (p1.E_position + 3.515 * p1.Gamma) * 1e3
        assert rs.E_meV == pytest.approx(expect, rel=1e-9)

    def test_two_level_methods_bump_n_poles(self):
        cfg = ScenarioConfig(
            layers=((3.0, 0.12), (16.0, 0.0), (3.0, 0.12), (16.0, 0.0), (3.0, 0.12)),
            mass_ratio=0.067,
            incidence=Incidence("absolute", 12.9e-3),
            n_poles=1,
            methods=("two-level-M",),
            points=16,
        )
        rs = resolve_scenario(cfg)
        assert len(rs.problem.modes) >= 2

    def test_free_profile_with_symbolic_energy_rejected(self):
        cfg = parse_config(
            "layer = 5 nm, 0 eV\nmass_ratio = 0.067\nenergy = doublet-center\n"
        )
        with pytest.raises(ConfigError, match="free"):
            resolve_scenario(cfg)

    def test_x_outside_structure_rejected(self):
        cfg = parse_config(
            "layer = 5 nm, 0.23 eV\nlayer = 5 nm, 0 eV\nlayer = 5 nm, 0.23 eV\n"
            "mass_ratio = 0.067\nenergy = 80 meV\nx = 99 nm\nn_poles = 1\n"
        )
        with pytest.raises(ConfigError, match="x"):
            resolve_scenario(cfg)

    def test_times_are_uniform(self):
        rs = resolve_scenario(parse_config(TRIPLE_CFG))
        steps = np.diff(rs.times)
        assert np.allclose(steps, steps[0])
