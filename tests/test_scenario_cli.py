"""Scenario parsing, sweeps, and the command-line interface."""
import json
import math
import os
import re
import sys

import numpy as np
import pytest

import risem
from risem import (Direction, LinearRis, ObservationPoint, Patch, RisGeometry, UnitCell,
                   patch_scattered_field_multi, ris_scattered_field_multi)
from risem import cli
from risem.cli import main
from risem.config import monte_carlo_power_grid
from risem.presets import FIGURE_IDS, reproduce, scenario_fig6, scenario_fig7a
from risem.scenario import (CompensateScheme, RandomScheme, ScenarioError, configure_linear,
                            manifest_for, parse_scenario, run_sweep, write_csv)
from risem.scenario import _load_desired_pattern as load_desired_pattern

PATCH_SCENARIO = """\
geometry:
  kind: patch
  a: 5.0
  b: 5.0
incident:
  - {theta_deg: 0.0, amplitude: 1.0}
observation:
  radius: 100.0
  grid: {start_deg: -90.0, stop_deg: 90.0, count: 181}
"""

LINEAR_COMPENSATE = """\
geometry:
  kind: linear
  n: 100
  spacing: 0.5
  a: 0.1
  b: 0.1
incident:
  - {theta_deg: 30.0, amplitude: 1.0}
observation:
  radius: 100.0
  grid: {start_deg: -90.0, stop_deg: 90.0, count: 721}
configure:
  scheme: compensate
  theta_i_deg: 30.0
  theta_s_deg: -50.0
"""

LINEAR_RANDOM = """\
geometry:
  kind: linear
  n: 32
  spacing: 0.5
  a: 0.1
  b: 0.1
incident:
  - {theta_deg: 30.0, amplitude: 1.0}
observation:
  radius: 100.0
  grid: {start_deg: -60.0, stop_deg: 60.0, count: 25}
configure:
  scheme: random
  seed: 7
"""


def _csv_text(result, path):
    """The CSV file write_csv gives for a sweep result, read back without newline translation."""
    write_csv(str(path), result.columns())
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


class TestParsing:
    def test_minimal_scenario_fills_defaults(self):
        scn = parse_scenario("geometry: {kind: patch, a: 1.0, b: 1.0}")
        assert scn.kind == "patch" and isinstance(scn.geometry, RisGeometry)
        assert scn.geometry.ctx.wavelength == 1.0
        assert scn.geometry.ctx.reflection_coefficient == -1.0
        assert scn.observation.radius == 100.0
        assert any(d.startswith("wave.wavelength") for d in scn.defaults_filled)
        assert any(d.startswith("observation.radius") for d in scn.defaults_filled)

    @pytest.mark.parametrize("text,filled", [
        ("geometry: {kind: patch, a: 1.0, b: 1.0}",
         ("wave.wavelength=1.0", "wave.gamma=-1.0", "observation.radius=100.0",
          "observation.grid=(-90, 90, 361)", "output.format=csv")),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\nwave: {gamma: [0.5, 0.1]}\n"
         "output: {path: x.csv}\nobservation: {radius: 5}",
         ("wave.wavelength=1.0", "observation.grid=(-90, 90, 361)")),
    ])
    def test_defaults_filled_exactly(self, text, filled):
        # the manifests record these strings, so their text and order are part of the output
        assert parse_scenario(text).defaults_filled == filled

    def test_full_scenario(self):
        scn = parse_scenario(LINEAR_COMPENSATE)
        assert scn.kind == "linear" and isinstance(scn.geometry, LinearRis)
        assert isinstance(scn.scheme, CompensateScheme)
        assert np.array_equal(scn.observation.theta_deg, np.linspace(-90.0, 90.0, 721))
        assert np.array_equal(scn.observation.phi_deg, np.zeros(721))
        assert len(scn.waves) == 1
        assert scn.waves[0].direction.theta == pytest.approx(math.radians(30.0))

    @pytest.mark.parametrize("text,fragment", [
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\nbogus: 1", "unknown key"),
        ("geometry: {kind: blob}", "geometry.kind"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0, c: 2}", "unknown key"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "observation: {radius: -1.0}", "radius"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "observation: {grid: {start_deg: 10, stop_deg: -10, count: 5}}",
         "monotone"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "observation:\n  grid: {start_deg: 0, stop_deg: 1, count: 2}\n"
         "  points: [{theta_deg: 0}]", "not both"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "incident: [{theta_deg: 120.0}]", "theta_deg"),
        ("geometry: {kind: linear, n: 4, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "incident: [{theta_deg: -95.0}]", "theta_deg"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "configure: {scheme: random}", "linear"),
        ("geometry: {kind: linear, n: 4, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "configure: {scheme: random, seed: no}", "seed"),
        ("geometry: {kind: linear, n: 4, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "configure: {scheme: random, seed: -1}", "'configure.seed' must be a non-negative"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\noutput: {format: xml}",
         "format"),
        ("", "empty"),
        ("geometry: [oops", "parse error"),
        ("geometry: {kind: linear, n: 4, spacing: .nan, a: 0.1, b: 0.1}", "spacing"),
        ("geometry: {kind: linear, n: 4, spacing: 0.5, a: .inf, b: 0.1}", "geometry.a"),
        ("geometry: {kind: linear, n: 4, spacing: 1" + "0" * 400 + ", a: 0.1, b: 0.1}",
         "spacing"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "observation: {radius: .inf}", "radius"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\nwave: {gamma: [.nan, 0.0]}",
         "gamma"),
        ("geometry: {kind: planar, cells: [{position: [true, 0, 0], a: 1.0, b: 1.0}]}",
         r"'geometry\.cells\[0\]\.position'"),
        ("geometry: {kind: planar, cells: [{position: [x, 0, 0], a: 1.0, b: 1.0}]}",
         r"'geometry\.cells\[0\]\.position'"),
        # accepted by the parser, refused by the model constructors
        ("geometry: {kind: patch, a: -1, b: 1.0}", "invalid 'geometry'"),
        ("geometry: {kind: linear, n: 4, spacing: -0.5, a: 0.1, b: 0.1}", "invalid 'geometry'"),
        ("geometry: {kind: planar, cells: [{position: [0, 0, 0], a: 1.0, b: 0}]}",
         r"invalid 'geometry\.cells\[0\]'"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\nwave: {wavelength: 0}",
         "invalid 'wave': wavelength must be positive"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "incident: [{theta_deg: 0.0, amplitude: -1}]",
         r"invalid 'incident\[0\]': wave amplitude must be finite and non-negative"),
        # refused by the reader itself
        ("geometry: 5", "section 'geometry' must be a mapping"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\nincident: [5]",
         r"section 'incident\[0\]' must be a mapping"),
        ("geometry: {kind: patch, a: 1.0}", "'geometry.b' must be a finite number, but is missing"),
        ("wave: {wavelength: 1.0}", "missing required section 'geometry'"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "incident: [{theta_deg: 0.0, phi_deg: 200}]", r"'incident\[0\]\.phi_deg' must lie in"),
    ])
    def test_rejects_malformed_text(self, text, fragment):
        with pytest.raises(ScenarioError, match=fragment):
            parse_scenario(text)

    # YAML keys need not be strings; each is named in the one-line error
    @pytest.mark.parametrize("keys,named", [("1: 2", "1"), ("~: 2", "None"),
                                            ("7: 1, z: 2", "7, z")],
                             ids=["int", "null", "mixed"])
    @pytest.mark.parametrize("template,section", [
        ("{geometry: {kind: patch, a: 1.0, b: 1.0}, %s}", "scenario"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0, %s}", "geometry"),
        ("geometry: {kind: planar, cells: [{position: [0, 0, 0], a: 1.0, b: 1.0, %s}]}",
         "geometry.cells[0]"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\nincident: [{theta_deg: 10.0, %s}]",
         "incident[0]"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "observation: {grid: {start_deg: 0, stop_deg: 1, count: 2, %s}}", "observation.grid"),
    ], ids=["top", "geometry", "cell", "incident", "grid"])
    def test_rejects_non_string_keys(self, tmp_path, capsys, template, section, keys, named):
        text = template % keys
        with pytest.raises(ScenarioError, match=re.escape(f"in '{section}': {named}")):
            parse_scenario(text)
        scenario = tmp_path / "s.yaml"
        scenario.write_text(text, encoding="utf-8")
        assert main(["sweep", str(scenario)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_scheme_round_trip_types(self):
        scn = parse_scenario(LINEAR_RANDOM)
        assert scn.scheme == RandomScheme(seed=7, expectation=False)

PLANAR_CELLS = """\
geometry:
  kind: planar
  cells:
    - {position: [0.0, 0.0, 0.0], a: 0.3, b: 0.25}
    - {position: [0.5, 0.1, 0.02], a: 0.4, b: 0.3, phase: 1.0}
    - {position: [1.1, -0.4, 0.0], a: 0.35, b: 0.45, area: 0.2, phase: 4.0}
"""
PATCH_CELL = "geometry: {kind: patch, a: 2.0, b: 1.5, area: 2.5}\n"
TWO_WAVES = """\
incident:
  - {theta_deg: 20.0, phi_deg: 30.0}
  - {theta_deg: 50.0, phi_deg: -120.0, amplitude: 0.5}
"""
# signed-theta cuts on both sides of the phi <= 0 branch of the flip
SIGNED_CUTS = (
    "observation:\n  radius: 90.0\n"
    "  grid: {start_deg: -90.0, stop_deg: 90.0, count: 37, phi_deg: -30.0}\n",
    "observation:\n  radius: 90.0\n"
    "  grid: {start_deg: -90.0, stop_deg: 90.0, count: 37, phi_deg: 0.0}\n",
    "observation:\n  radius: 90.0\n"
    "  grid: {start_deg: -90.0, stop_deg: 90.0, count: 37, phi_deg: 45.0}\n",
    "observation:\n  radius: 90.0\n  points: [{theta_deg: -70.0, phi_deg: -180.0},"
    " {theta_deg: -10.0, phi_deg: 120.0}, {theta_deg: 0.0, phi_deg: -60.0},"
    " {theta_deg: 35.0, phi_deg: 180.0}]\n",
)


def _scalar_cut(theta_deg, phi_deg):
    """The signed-theta flip for one point: negative theta turns phi by 180 deg."""
    theta, phi = math.radians(theta_deg), math.radians(phi_deg)
    if theta < 0:
        theta, phi = -theta, (phi + math.pi if phi <= 0 else phi - math.pi)
    return Direction(theta, phi)


def _per_point_magnitudes(scn, field_multi):
    thetas, phis = scn.observation.theta_deg, scn.observation.phi_deg
    return np.array([field_multi(scn.waves, ObservationPoint(scn.observation.radius,
                                                             _scalar_cut(t, p))).magnitude
                     for t, p in zip(thetas, phis)])


class TestSweeps:
    @pytest.mark.parametrize("cut", SIGNED_CUTS)
    def test_patch_sweep_equals_per_point_views(self, cut):
        scn = parse_scenario(PATCH_CELL + TWO_WAVES + cut)
        result, _ = run_sweep(scn)
        patch = Patch(2.0, 1.5, 2.5)
        ref = _per_point_magnitudes(
            scn, lambda waves, obs: patch_scattered_field_multi(patch, waves, obs,
                                                             scn.geometry.ctx))
        assert np.max(np.abs(result.magnitude - ref)) <= 1e-12 * np.max(ref)
        assert np.array_equal(result.phi_deg, scn.observation.phi_deg)

    @pytest.mark.parametrize("cut", SIGNED_CUTS)
    def test_planar_sweep_equals_per_point_views(self, cut):
        scn = parse_scenario(PLANAR_CELLS + TWO_WAVES + cut)
        result, _ = run_sweep(scn)
        geom = RisGeometry([UnitCell(np.array([0.0, 0.0, 0.0]), 0.3, 0.25),
                            UnitCell(np.array([0.5, 0.1, 0.02]), 0.4, 0.3, None, 1.0),
                            UnitCell(np.array([1.1, -0.4, 0.0]), 0.35, 0.45, 0.2, 4.0)],
                           scn.geometry.ctx)
        ref = _per_point_magnitudes(
            scn, lambda waves, obs: ris_scattered_field_multi(geom, waves, obs))
        assert np.max(np.abs(result.magnitude - ref)) <= 1e-12 * np.max(ref)
        assert np.array_equal(result.phi_deg, scn.observation.phi_deg)

    def test_patch_sweep_peak_at_broadside(self):
        scn = parse_scenario(PATCH_SCENARIO)
        result, solution = run_sweep(scn)
        assert solution is None
        peak = result.theta_deg[np.argmax(result.magnitude)]
        assert peak == 0.0
        assert result.magnitude.max() == pytest.approx(0.25, rel=1e-12)
        assert result.rcs.max() == pytest.approx(2500.0 * math.pi, rel=1e-9)

    def test_compensated_sweep_peak_at_design_angle(self):
        result, _ = run_sweep(parse_scenario(LINEAR_COMPENSATE))
        peak = result.theta_deg[np.argmax(result.magnitude)]
        assert peak == pytest.approx(-50.0, abs=0.25)

    def test_random_sweep_is_seed_deterministic(self, tmp_path):
        a, _ = run_sweep(parse_scenario(LINEAR_RANDOM))
        b, _ = run_sweep(parse_scenario(LINEAR_RANDOM))
        assert _csv_text(a, tmp_path / "a.csv") == _csv_text(b, tmp_path / "b.csv")
        other, _ = run_sweep(parse_scenario(LINEAR_RANDOM.replace("seed: 7",
                                                                  "seed: 8")))
        assert _csv_text(a, tmp_path / "a.csv") != _csv_text(other, tmp_path / "o.csv")

    def test_expectation_mode_rcs_follows_the_cell_sinc(self):
        text = LINEAR_RANDOM.replace("seed: 7", "seed: 7\n  expectation: true")
        result, _ = run_sweep(parse_scenario(text))
        sinc = np.sinc(0.1 * (0.5 + np.sin(np.radians(result.theta_deg))))
        want = 4.0 * math.pi * math.cos(math.radians(30.0)) ** 2 * 32 * 0.01 ** 2 * sinc ** 2
        assert np.max(np.abs(result.rcs - want)) <= 1e-12 * np.max(want)

    def test_two_wave_wide_cell_expectation_matches_monte_carlo(self):
        second_wave = "\n  - {theta_deg: -20.0, amplitude: 0.6}"
        text = (LINEAR_RANDOM.replace("spacing: 0.5", "spacing: 0.7")
                .replace("a: 0.1\n  b: 0.1", "a: 0.4\n  b: 0.4")
                .replace("amplitude: 1.0}", "amplitude: 1.0}" + second_wave))
        scn = parse_scenario(text)
        trials = 4000
        sampled, _ = run_sweep(scn, trials)
        mean, stderr = monte_carlo_power_grid(scn.geometry, scn.waves, 100.0,
                                              np.radians(sampled.theta_deg), trials, 7,
                                              return_stderr=True)
        assert np.allclose(sampled.magnitude ** 2, mean, rtol=1e-12, atol=0.0)
        expected, _ = run_sweep(parse_scenario(text.replace("seed: 7",
                                                            "seed: 7\n  expectation: true")))
        assert np.all(np.abs(expected.magnitude ** 2 - mean) <= 3.0 * stderr)

    def test_expectation_mode_with_zero_amplitude_is_finite(self):
        text = LINEAR_RANDOM.replace("amplitude: 1.0", "amplitude: 0.0").replace(
            "seed: 7", "seed: 7\n  expectation: true")
        result, _ = run_sweep(parse_scenario(text))
        assert np.all(result.rcs == 0.0) and np.all(result.magnitude == 0.0)

    def test_monte_carlo_sweep_matches_grid_mean(self):
        scn = parse_scenario(LINEAR_RANDOM)
        result, solution = run_sweep(scn, trials=40)
        power = monte_carlo_power_grid(scn.geometry, scn.waves, 100.0,
                                       np.radians(result.theta_deg), 40, 7)
        assert solution is None
        assert np.array_equal(result.magnitude, np.sqrt(power))
        assert np.allclose(result.rcs, 4.0 * np.pi * 100.0 ** 2 * power, rtol=1e-14)
        with pytest.raises(ScenarioError):
            run_sweep(scn, trials=0)

    @pytest.mark.parametrize("trials,expectation,draws", [
        (3, False, 0), (None, True, 0), (None, False, 1)], ids=["trials", "expectation", "single"])
    def test_only_a_single_draw_sweep_draws_phases(self, monkeypatch, trials, expectation,
                                                   draws):
        import risem.scenario
        seeds, draw = [], risem.scenario.random_phase_draw
        monkeypatch.setattr(risem.scenario, "random_phase_draw",
                            lambda n, seed: seeds.append(seed) or draw(n, seed))
        text = LINEAR_RANDOM + ("  expectation: true\n" if expectation else "")
        run_sweep(parse_scenario(text), trials)
        assert seeds == [7] * draws

    def test_db_columns_consistent_with_linear_columns(self):
        result, _ = run_sweep(parse_scenario(LINEAR_COMPENSATE))
        mask = result.magnitude > 0
        assert np.allclose(result.magnitude_db[mask],
                           20.0 * np.log10(result.magnitude[mask]), atol=1e-9)
        mask = result.rcs > 0
        assert np.allclose(result.rcs_db[mask],
                           10.0 * np.log10(result.rcs[mask]), atol=1e-9)

    def test_csv_format_and_line_endings(self, tmp_path):
        result, _ = run_sweep(parse_scenario(PATCH_SCENARIO))
        text = _csv_text(result, tmp_path / "sweep.csv")
        lines = text.split("\n")
        header = lines[0].split(",")
        assert header[0] == "theta_s_deg"
        assert "rcs_db" in header
        assert len(lines) == 181 + 2  # header + rows + trailing newline
        assert "\r" not in text

    def test_point_list_observation(self):
        text = ("geometry: {kind: linear, n: 4, spacing: 0.5, a: 0.1, b: 0.1}\n"
                "incident: [{theta_deg: 10.0}]\n"
                "observation:\n  radius: 100.0\n"
                "  points: [{theta_deg: -10.0}, {theta_deg: 35.0}]\n")
        result, _ = run_sweep(parse_scenario(text))
        assert list(result.theta_deg) == [-10.0, 35.0]

    def test_configure_linear_requires_a_linear_geometry(self):
        with pytest.raises(ScenarioError, match="configuration requires a linear geometry"):
            configure_linear(parse_scenario(PATCH_SCENARIO))

    def test_manifest_records_version_hash_and_defaults(self):
        scn = parse_scenario("geometry: {kind: patch, a: 1.0, b: 1.0}")
        doc = manifest_for(scn)
        assert doc["scenario_hash"] == scn.source_hash
        assert doc["defaults_filled"]
        from risem import __version__
        assert doc["library_version"] == __version__


LINEAR_BARE = "geometry: {kind: linear, n: 4, spacing: 0.5, a: 0.1, b: 0.1}\n"
TINY_RADIUS = """\
geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}
incident: [{theta_deg: 30.0}]
observation: {radius: 1.0e-320}
"""
# reads desired.json from the working directory
RESHAPE_SECTION = "configure: {scheme: reshape, desired_pattern_file: desired.json}\n"


class TestCli:
    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_sweep_writes_csv(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", LINEAR_COMPENSATE)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", scenario, "--format", "csv", "--out", out]) == 0
        lines = open(out, encoding="utf-8").read().splitlines()
        assert lines[0].startswith("theta_s_deg,")
        assert len(lines) == 722

    @pytest.mark.parametrize("geometry", [PATCH_CELL, PLANAR_CELLS])
    def test_sweep_without_incident_waves_gives_zeros(self, tmp_path, geometry):
        scenario = self._write(tmp_path, "s.yaml", geometry + SIGNED_CUTS[0])
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", scenario, "--format", "json", "--out", out]) == 0
        sweep = json.load(open(out, encoding="utf-8"))["sweep"]
        assert len(sweep["field_magnitude"]) == 37
        assert all(v == 0.0 for v in sweep["field_magnitude"] + sweep["rcs"])
        assert all(v is None for v in sweep["field_magnitude_db"] + sweep["rcs_db"])

        def refuse(name):
            raise ValueError(f"{name} is not valid JSON")
        json.load(open(out, encoding="utf-8"), parse_constant=refuse)

    def test_sweep_json_includes_manifest(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", PATCH_SCENARIO)
        out = str(tmp_path / "sweep.json")
        assert main(["patch-rcs", scenario, "--format", "json", "--out", out]) == 0
        doc = json.load(open(out, encoding="utf-8"))
        assert "manifest" in doc and "sweep" in doc
        assert doc["manifest"]["library_version"]

    def test_geometry_specific_commands_enforce_kind(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", PATCH_SCENARIO)
        assert main(["linear-field", scenario]) == 2
        assert main(["array-field", scenario]) == 2
        # the same model as a patch: the kind written in the file decides
        one_cell = self._write(tmp_path, "c.yaml", PATCH_SCENARIO.replace(
            "  kind: patch\n  a: 5.0\n  b: 5.0\n",
            "  kind: planar\n  cells: [{position: [0.0, 0.0, 0.0], a: 5.0, b: 5.0}]\n"))
        assert main(["patch-rcs", one_cell]) == 2
        assert main(["array-field", one_cell, "--out", str(tmp_path / "c.csv")]) == 0

    def test_seed_override_changes_output(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", LINEAR_RANDOM)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        out_c = str(tmp_path / "c.csv")
        assert main(["linear-field", scenario, "--out", out_a]) == 0
        assert main(["linear-field", scenario, "--seed", "7", "--out", out_b]) == 0
        assert main(["linear-field", scenario, "--seed", "99", "--out", out_c]) == 0
        read = lambda p: open(p, encoding="utf-8").read()
        assert read(out_a) == read(out_b)
        assert read(out_a) != read(out_c)

    def test_monte_carlo_trials_flag(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", LINEAR_RANDOM)
        out = str(tmp_path / "mc.csv")
        assert main(["linear-field", scenario, "--trials", "50", "--out", out]) == 0
        assert len(open(out, encoding="utf-8").read().splitlines()) == 26
        # --trials is meaningless without a random scheme
        comp = self._write(tmp_path, "c.yaml", LINEAR_COMPENSATE)
        assert main(["sweep", comp, "--trials", "10"]) == 2

    @pytest.mark.parametrize("command", [["sweep"], ["sweep", "--trials", "5"], ["mimo"],
                                         ["configure"]],
                             ids=["sweep", "trials", "mimo", "configure"])
    @pytest.mark.parametrize("angles", ["  points: [{theta_deg: 120.0}, {theta_deg: -200.0}]",
                                        "  grid: {start_deg: -120, stop_deg: 120, count: 5}"],
                             ids=["points", "grid"])
    def test_monte_carlo_sweep_checks_scatter_angles(self, tmp_path, capsys, command, angles):
        text = LINEAR_RANDOM.replace(
            "  grid: {start_deg: -60.0, stop_deg: 60.0, count: 25}", angles)
        scenario = self._write(tmp_path, "s.yaml", text)
        assert main([command[0], scenario, *command[1:]]) == 2
        assert capsys.readouterr().out == ""

    def test_mimo_command_emits_factored_system(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", LINEAR_RANDOM)
        out = str(tmp_path / "sys.json")
        assert main(["mimo", scenario, "--out", out]) == 0
        doc = json.load(open(out, encoding="utf-8"))
        system = doc["system"]
        assert system["dimensions"] == {"outputs": 25, "cells": 32, "inputs": 1}
        assert len(system["weights"]) == 32
        assert system["sa_unity"] is True

    def test_configure_command_emits_weights(self, tmp_path):
        scenario = self._write(tmp_path, "s.yaml", LINEAR_COMPENSATE)
        out = str(tmp_path / "w.json")
        assert main(["configure", scenario, "--out", out]) == 0
        doc = json.load(open(out, encoding="utf-8"))
        assert len(doc["areas"]) == 100
        assert len(doc["phases"]) == 100
        out_csv = str(tmp_path / "w.csv")
        assert main(["configure", scenario, "--format", "csv",
                     "--out", out_csv]) == 0
        lines = open(out_csv, encoding="utf-8").read().splitlines()
        assert lines[0] == "cell,area,phase"
        assert len(lines) == 101
        assert lines[1:] == [f"{i},{a:.12g},{p:.12g}" for i, (a, p)
                             in enumerate(zip(doc["areas"], doc["phases"]))]

    @pytest.mark.parametrize("argv,text,fragment", [
        (["mimo"], PATCH_SCENARIO, "'mimo' requires a linear geometry"),
        (["mimo"], LINEAR_BARE, "'mimo' needs at least one incident wave"),
        (["configure"], LINEAR_BARE, "scenario has no 'configure' section"),
        (["sweep", "--seed", "-3"], LINEAR_RANDOM, "'--seed' must be a non-negative integer"),
        (["configure", "--seed", "-3"], LINEAR_RANDOM, "'--seed' must be a non-negative integer"),
        (["sweep"], PATCH_SCENARIO + "wave: {wavelength: 0}\n", "invalid 'wave'"),
        (["mimo"], LINEAR_RANDOM.replace("amplitude: 1.0", "amplitude: -1.0"),
         "invalid 'incident[0]'"),
        # messages that hold line breaks are folded onto one line
        (["sweep"], PATCH_SCENARIO.replace("amplitude: 1.0", "amplitude: 1.0\x07"),
         'unacceptable character #x0007: special characters are not allowed in "<unicode'),
        (["sweep"], 'geometry: {kind: patch, a: 1, b: 1, "q\\nr": 2}\n',
         "unknown key(s) in 'geometry': q r"),
    ], ids=["mimo-patch", "mimo-no-waves", "configure-no-scheme", "sweep-negative-seed",
            "configure-negative-seed", "zero-wavelength", "negative-amplitude",
            "control-character", "line-break-key"])
    def test_refusal_exits_2_with_one_line(self, tmp_path, capsys, argv, text, fragment):
        scenario = self._write(tmp_path, "s.yaml", text)
        out = tmp_path / "out"
        assert main([argv[0], scenario, "--out", str(out), *argv[1:]]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err

    def test_missing_file_is_validation_failure(self, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.yaml")]) == 2

    @pytest.mark.parametrize("case", ["sweep-dir", "mimo-dir", "desired-dir", "out-dir",
                                      "reproduce-out-file"])
    def test_file_system_error_is_validation_failure(self, tmp_path, monkeypatch, capsys,
                                                     case):
        monkeypatch.chdir(tmp_path)
        os.mkdir("desired.json")
        os.mkdir("folder")
        scenario = self._write(tmp_path, "s.yaml", LINEAR_RANDOM)
        reshape = self._write(tmp_path, "r.yaml", "geometry: {kind: linear, n: 8, spacing: 0.5,"
                              " a: 0.1, b: 0.1}\nincident: [{theta_deg: 30.0}]\n" + RESHAPE_SECTION)
        argv = {"sweep-dir": ["sweep", "folder"],
                "mimo-dir": ["mimo", "folder"],
                "desired-dir": ["configure", reshape],
                "out-dir": ["sweep", scenario, "--out", "folder"],
                "reproduce-out-file": ["reproduce", "fig2", "--out", scenario]}[case]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_malformed_scenario_is_validation_failure(self, tmp_path):
        scenario = self._write(tmp_path, "bad.yaml",
                               PATCH_SCENARIO + "mystery_key: 1\n")
        assert main(["sweep", scenario]) == 2

    @pytest.mark.parametrize("text", [
        "geometry: " + "[" * 5000 + "]" * 5000 + "\n",
        "geometry:\n" + "".join(" " * i + "-\n" for i in range(3000)),
    ], ids=["flow", "block"])
    def test_deeply_nested_scenario_is_validation_failure(self, tmp_path, capsys, text):
        scenario = self._write(tmp_path, "deep.yaml", text)
        assert main(["sweep", scenario]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_deeply_nested_desired_file_is_validation_failure(self, tmp_path, capsys):
        depth = 10 ** 5
        pattern = self._write(tmp_path, "desired.json",
                              '{"desired": ' + "[" * depth + "]" * depth + "}")
        text = ("geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
                "incident: [{theta_deg: 30.0}]\n"
                "configure:\n"
                "  scheme: reshape\n"
                f"  desired_pattern_file: {pattern}\n")
        scenario = self._write(tmp_path, "s.yaml", text)
        assert main(["sweep", scenario]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # the tiny-* cases give non-finite results; huge-cells and huge-angles ask for
    # 10^14 elements (728 TiB), beyond the address space, so the allocation fails at once
    @pytest.mark.parametrize("command,text", [
        ("sweep",
         "wave: {wavelength: 1.0e-300}\n"
         "geometry: {kind: linear, n: 8, spacing: 0.5e-300, a: 0.1e-300, b: 0.1e-300,"
         " area: 1.0e-302}\n"
         "incident: [{theta_deg: 30.0}]\n"),
        ("sweep", TINY_RADIUS),
        ("sweep",
         "geometry: {kind: linear, n: 100000000000000, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "incident: [{theta_deg: 30.0}]\n"),
        ("sweep",
         "geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "incident: [{theta_deg: 30.0}]\n"
         "observation: {grid: {start_deg: -60.0, stop_deg: 60.0, count: 100000000000000}}\n"),
        ("mimo", TINY_RADIUS),
        ("configure", TINY_RADIUS + RESHAPE_SECTION),
        ("sweep", TINY_RADIUS + RESHAPE_SECTION),
    ], ids=["tiny-wavelength", "tiny-radius", "huge-cells", "huge-angles", "mimo-tiny-radius",
            "configure-tiny-radius-reshape", "sweep-tiny-radius-reshape"])
    def test_numerical_failure_exits_3_with_one_line(self, tmp_path, monkeypatch, capsys,
                                                     command, text):
        monkeypatch.chdir(tmp_path)
        self._write(tmp_path, "desired.json", json.dumps({"desired": [[1.0, 0.0]] * 8}))
        scenario = self._write(tmp_path, "s.yaml", text)
        assert main([command, scenario]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    # at 1e155 every |E|^2 is finite, but the squared amplitude of the RCS normalisation is not
    @pytest.mark.parametrize("text,amplitudes", [
        ("geometry: {kind: linear, n: 16, spacing: 0.5, a: 0.01, b: 0.01}\n"
         "incident: [{theta_deg: 0.0, amplitude: 1.0e+155}]\n", "[1e+155]"),
        ("geometry: {kind: patch, a: 1.0, b: 1.0}\n"
         "incident: [{theta_deg: 0.0, amplitude: 1.0e+308}, {theta_deg: 10.0}]\n",
         "[1e+308, 1.0]"),
    ], ids=["linear", "patch"])
    def test_an_amplitude_past_the_float_range_exits_3_by_name(self, tmp_path, capsys, text,
                                                               amplitudes):
        assert main(["sweep", self._write(tmp_path, "s.yaml", text)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"numerical failure: the squares of the incident amplitudes {amplitudes}"
                       " sum past the float range\n")

    # a Python float's ** raises OverflowError past about 1.3e154, where a product is inf and
    # the sweep's own check names the failure
    @pytest.mark.parametrize("text,argv", [
        ("geometry: {kind: linear, n: 16, spacing: 0.5, a: 0.1, b: 0.1}\n", []),
        ("geometry: {kind: patch, a: 2.0, b: 1.5}\n", []),
        ("geometry: {kind: linear, n: 16, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "configure: {scheme: random, expectation: true}\n", []),
        ("geometry: {kind: linear, n: 16, spacing: 0.5, a: 0.1, b: 0.1}\n"
         "configure: {scheme: random, seed: 1}\n", ["--trials", "3"]),
    ], ids=["linear", "patch", "expectation", "trials"])
    def test_a_radius_whose_square_overflows_exits_3_by_name(self, tmp_path, capsys, text,
                                                              argv):
        text += "incident: [{theta_deg: 30.0}]\nobservation: {radius: 1.0e+200}\n"
        assert main(["sweep", self._write(tmp_path, "s.yaml", text), *argv]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical failure: the sweep gave non-finite field magnitudes or RCS"
                       " values\n")

    def test_a_coupling_whose_square_overflows_exits_3_by_name(self, tmp_path, capsys):
        text = ("wave: {gamma: 1.0e+300}\n"
                "geometry: {kind: linear, n: 16, spacing: 0.5, a: 0.1, b: 0.1}\n"
                "incident: [{theta_deg: 30.0}]\n"
                "configure: {scheme: random, expectation: true}\n")
        assert main(["sweep", self._write(tmp_path, "s.yaml", text)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical failure: the sweep gave non-finite field magnitudes or RCS"
                       " values\n")

    def test_reshape_conditioning_failure_exits_3(self, tmp_path):
        desired = {"desired": [[1.0, 0.0]] * 8}
        pattern = self._write(tmp_path, "desired.json", json.dumps(desired))
        text = ("geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
                "incident: [{theta_deg: 30.0}]\n"
                "observation: {radius: 100.0}\n"
                "configure:\n"
                "  scheme: reshape\n"
                f"  desired_pattern_file: {pattern}\n"
                "  truncation_tol: 2.0\n")
        scenario = self._write(tmp_path, "s.yaml", text)
        assert main(["configure", scenario]) == 3

    def _reshape_scenario(self, tmp_path, spacing=0.5, truncation_tol="1.0e-8"):
        pattern = self._write(tmp_path, "desired.json", json.dumps({"desired": [[1.0, 0.0]] * 8}))
        return self._write(tmp_path, "r.yaml", (
            f"geometry: {{kind: linear, n: 8, spacing: {spacing}, a: 0.1, b: 0.1}}\n"
            "incident: [{theta_deg: 30.0}]\n"
            "observation: {radius: 100.0}\n"
            "configure:\n"
            "  scheme: reshape\n"
            f"  desired_pattern_file: {pattern}\n"
            f"  truncation_tol: {truncation_tol}\n"))

    @pytest.mark.parametrize("truncation_tol,code", [("1.0", 0), ("1.0000001", 3)])
    def test_dft_grid_truncation_edge(self, tmp_path, capsys, truncation_tol, code):
        # all singular values are equal: tol <= 1 keeps every direction, tol > 1 none
        scenario = self._reshape_scenario(tmp_path, truncation_tol=truncation_tol)
        out = str(tmp_path / "w.json")
        assert main(["configure", scenario, "--out", out]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert json.load(open(out, encoding="utf-8"))["reshape"]["rank"] == 8
        else:
            assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_half_wavelength_reshape_never_forms_v_s_or_calls_the_svd(self, tmp_path, monkeypatch):
        import risem.config
        from risem import MimoSystem

        def refuse(*args, **kwargs):
            raise AssertionError("dense V_s or SVD on the half-wavelength DFT grid")
        scenario = self._reshape_scenario(tmp_path)
        monkeypatch.setattr(risem.config.np.linalg, "svd", refuse)
        monkeypatch.setattr(MimoSystem, "v_scatter", property(refuse))
        assert main(["reproduce", "fig7b", "--out", str(tmp_path)]) == 0
        for command in ("sweep", "mimo", "configure"):
            assert main([command, scenario, "--out", str(tmp_path / command)]) == 0

    def test_off_grid_reshape_calls_the_svd(self, tmp_path, monkeypatch):
        import risem.config
        svd, calls = np.linalg.svd, []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)
        scenario = self._reshape_scenario(tmp_path, spacing=0.6)
        monkeypatch.setattr(risem.config.np.linalg, "svd", counted)
        assert main(["configure", scenario, "--out", str(tmp_path / "w.json")]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("doc", [
        {"desired": [None] * 8},
        {"desired": [[1.0, 0.0]] * 7 + [[1.0, "x"]]},
        [1, 2],
        {"desired": [[1.0, 0.0]] * 7 + [[True, 0.0]]},
        {"desired": [[1.0, 0.0]] * 7 + [[0.0, float("inf")]]},
        {"desired": [[1.0, 0.0]] * 7 + [[10 ** 400, 0.0]]},
        # rounds to the largest float, where the check of one value refuses it
        {"desired": [[1.0, 0.0]] * 7 + [[int(sys.float_info.max) + 1, 0.0]]},
    ])
    def test_malformed_desired_file_is_validation_failure(self, tmp_path, capsys, doc):
        pattern = self._write(tmp_path, "desired.json", json.dumps(doc))
        text = ("geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
                "incident: [{theta_deg: 30.0}]\n"
                "configure:\n"
                "  scheme: reshape\n"
                f"  desired_pattern_file: {pattern}\n")
        scenario = self._write(tmp_path, "s.yaml", text)
        assert main(["sweep", scenario]) == 2
        assert capsys.readouterr().err == (
            "error: desired pattern file must hold 8 finite [re, im] pairs under 'desired'\n")

    def test_desired_weights_keep_the_bits_of_complex_pairs(self, tmp_path):
        pairs = [[-0.0, 0.0], [0.0, -0.0], [1, -2], [5e-324, -1.5e300], [10 ** 300, 0.1]]
        pattern = self._write(tmp_path, "desired.json", json.dumps({"desired": pairs}))
        got = load_desired_pattern(pattern, len(pairs))
        want = np.array([complex(re, im) for re, im in pairs])
        assert got.shape == want.shape == (5,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("desired", [
        [[1.0, 0.0]] * 7 + [[True, 0.0]],
        [[1.0, 0.0]] * 7 + [[0.0, 10 ** 309]],
        [[1.0, 0.0]] * 7 + [[0.0, float("nan")]],
        [[1.0, 0.0]] * 7 + [[float("-inf"), 0.0]],
        [[1.0, 0.0]] * 7 + [["1.0", 0.0]],
        [[1.0, 0.0]] * 7 + [[None, 0.0]],
        [[1.0, 0.0]] * 7 + [[1.0, 0.0, 0.0]],
        [[1.0, 0.0]] * 7 + [[[1.0], 0.0]],
        [[1.0, 0.0]] * 7,
    ], ids=["bool", "huge-int", "nan", "inf", "string", "null", "triple", "nested", "short"])
    def test_desired_file_refusals(self, tmp_path, desired):
        pattern = self._write(tmp_path, "desired.json", json.dumps({"desired": desired}))
        with pytest.raises(ScenarioError, match=r"^desired pattern file must hold 8 finite "
                                                r"\[re, im\] pairs under 'desired'$"):
            load_desired_pattern(pattern, 8)

    def test_reshape_scenario_round_trips_through_sweep(self, tmp_path):
        # target: the field of a uniformly configured 8-cell array
        from risem import (Direction, LinearRis, ObservationPoint,
                           dft_scatter_grid, linear_field)
        from risem import PlaneWave, WaveContext
        ris = LinearRis.uniform(8, 0.5, 0.01, ctx=WaveContext())
        wave = PlaneWave(Direction(math.radians(30.0)), 1.0)
        grid = dft_scatter_grid(8)
        desired = [linear_field(ris, wave, ObservationPoint(100.0, Direction(t)))
                   for t in grid]
        pattern = self._write(tmp_path, "desired.json", json.dumps(
            {"desired": [[z.real, z.imag] for z in desired]}))
        text = ("geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
                "incident: [{theta_deg: 30.0}]\n"
                "observation:\n  radius: 100.0\n"
                "  points: "
                + "[" + ", ".join(f"{{theta_deg: {math.degrees(t):.12f}}}"
                                  for t in grid) + "]\n"
                "configure:\n"
                "  scheme: reshape\n"
                f"  desired_pattern_file: {pattern}\n")
        scenario = self._write(tmp_path, "s.yaml", text)
        out = str(tmp_path / "r.json")
        assert main(["sweep", scenario, "--format", "json", "--out", out]) == 0
        doc = json.load(open(out, encoding="utf-8"))
        got = np.array(doc["sweep"]["field_magnitude"])
        want = np.abs(np.array(desired))
        assert np.max(np.abs(got - want)) <= 1e-9 * want.max()
        assert doc["reshape"]["rank"] == 8

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_one_parser_serves_every_call_in_a_process(self, tmp_path, capsys):
        scenario = self._write(tmp_path, "s.yaml", PATCH_SCENARIO)

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"SystemExit {exc.code}"
            return code, *capsys.readouterr()

        calls = [["sweep", scenario], ["sweep", scenario, "--trials", "x"], ["--version"],
                 ["reproduce", "fig99"], ["sweep", scenario, "--format", "json"]]
        first = [outcome(argv) for argv in calls]
        assert [code for code, _, _ in first] == [0, "SystemExit 2", "SystemExit 0",
                                                  "SystemExit 2", 0]
        assert first[2][1] == f"{risem.__version__}\n"
        # in the reverse order, each call gives what it gave the first time
        assert [outcome(argv) for argv in reversed(calls)] == first[::-1]
        assert cli._build_parser() is cli._build_parser()


class TestReproduce:
    def test_figure_ids_are_stable(self):
        assert FIGURE_IDS == ("fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b",
                              "fig8", "fig9")

    @pytest.mark.parametrize("build,spacing,waves", [
        (lambda: scenario_fig6(0.5), 0.5, "  - {theta_deg: 30.0, amplitude: 1.0}\n"),
        (lambda: scenario_fig6(0.7), 0.7, "  - {theta_deg: 30.0, amplitude: 1.0}\n"),
        (scenario_fig7a, 0.5, "  - {theta_deg: 30.0, amplitude: 1.0}\n"
                              "  - {theta_deg: 70.0, amplitude: 0.5}\n"),
    ], ids=["fig6-d05", "fig6-d07", "fig7a"])
    def test_compensated_presets_are_their_scenario_texts(self, build, spacing, waves):
        # the text each preset was once read from
        parsed = parse_scenario(
            "geometry:\n  kind: linear\n  n: 100\n"
            f"  spacing: {spacing}\n  a: 0.1\n  b: 0.1\n"
            f"incident:\n{waves}"
            "observation:\n  radius: 100.0\n"
            "  grid: {start_deg: -90.0, stop_deg: 90.0, count: 3601}\n"
            "configure:\n  scheme: compensate\n  theta_i_deg: 30.0\n  theta_s_deg: -50.0\n")
        built = build()
        ris, reference = built.geometry, parsed.geometry
        for name in ("areas", "widths", "phases"):
            assert getattr(ris, name).tobytes() == getattr(reference, name).tobytes()
        assert (ris.spacing, ris.ctx) == (reference.spacing, reference.ctx)
        assert built.observation.radius == parsed.observation.radius
        for name in ("theta_deg", "phi_deg"):
            assert (getattr(built.observation, name).tobytes()
                    == getattr(parsed.observation, name).tobytes())
        assert ((built.kind, built.waves, built.scheme, built.output)
                == (parsed.kind, parsed.waves, parsed.scheme, parsed.output))
        # no text: no hash, and no defaults filled in for keys a text leaves out
        assert (built.defaults_filled, built.source_hash) == ((), "")

    def test_reproduce_writes_artifacts_and_manifest(self, tmp_path):
        manifest = reproduce("fig5", str(tmp_path))
        assert manifest["figure"] == "fig5"
        for name in manifest["files"]:
            assert (tmp_path / name).exists()
        assert (tmp_path / "fig5_manifest.json").exists()
        # the expected curve is nearly flat; finite cell width leaves only a
        # small directivity ripple
        checks = manifest["checks"]
        assert checks["expected_rcs_spread"] <= 0.1 * checks["expected_rcs_value"]

    def test_reproduce_cli_command(self, tmp_path):
        assert main(["reproduce", "fig2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig2_xoz.csv").exists()
        assert (tmp_path / "fig2_manifest.json").exists()

    def test_non_finite_check_exits_3_before_the_manifest(self, tmp_path, monkeypatch, capsys):
        import risem.presets
        build = risem.presets._reproduce_fig5

        def broken():
            files, params, checks = build()
            return files, params, {**checks, "expected_rcs_value": math.inf}
        monkeypatch.setitem(risem.presets._FIGURES, "fig5", broken)
        assert main(["reproduce", "fig5", "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        # neither the manifest nor fig5.csv
        assert list(tmp_path.iterdir()) == []

    def test_a_numpy_overflow_in_a_builder_exits_3_and_writes_nothing(self, tmp_path,
                                                                      monkeypatch, capsys):
        # the builder runs inside the CLI's numerical scope: the overflow gives inf, not a
        # RuntimeWarning, and the manifest's encoder refuses it
        import risem.presets
        monkeypatch.setitem(risem.presets._FIGURES, "fig5", lambda: (
            {"fig5.csv": {"x": [1.0]}}, {}, {"peak": np.float64(1e308) * 10}))
        assert main(["reproduce", "fig5", "--out", str(tmp_path)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_a_pattern_without_a_secondary_lobe(self):
        from risem.presets import _main_and_secondary
        theta = np.linspace(-90.0, 90.0, 181)
        # one lobe at 0 deg and a ripple 3 deg from it, inside the excluded band
        values = np.cos(np.radians(theta)) + 1e-3 * (theta == 3.0)
        assert _main_and_secondary(theta, values) == (0.0, None, None)

    @pytest.mark.parametrize("values,where,peak", [
        ([0.0, 1.0, 2.0, 3.0], True, None),
        ([0.0, 2.0, 0.0, 3.0, 1.0], True, 3),
        ([0.0, 2.0, 0.0, 3.0, 1.0], [True, True, True, False, True], 1),
        ([0.0, 2.0, 2.0, 1.0], True, None),
    ], ids=["monotone", "strongest", "masked", "plateau"])
    def test_strongest_peak(self, values, where, peak):
        from risem.presets import _strongest_peak
        assert _strongest_peak(np.array(values), where) == peak

    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            reproduce("fig99", ".")
