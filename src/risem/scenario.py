"""Scenario files: parsing, validation, and angle sweeps.

A scenario is a YAML document with sections `wave`, `geometry`, `incident`,
`observation`, `configure` and `output`. Unknown keys are rejected. Angles
are in degrees at this boundary and converted to radians internally; lengths
are in the same unit as the wavelength (the presets use wavelength = 1).
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import __version__
from .core import Direction, ObservationPoint, PlaneWave, WaveContext
from .config import (ReshapeSolution, beam_reshape, monte_carlo_power_grid,
                     phase_compensation, random_phase_draw, random_phase_miso_expected_power)
from .linear import LinearRis, MimoSystem, _field, assemble_mimo, dft_scatter_grid
from .patch import Patch, _one_cell
from .surface import RisGeometry, UnitCell, _field_magnitude

DEFAULT_RADIUS_WAVELENGTHS = 100.0


class ScenarioError(ValueError):
    """Malformed or invalid scenario text."""


def _require_mapping(node, name):
    if not isinstance(node, dict):
        raise ScenarioError(f"section '{name}' must be a mapping")
    return node


def _check_keys(node: dict, allowed, name: str):
    unknown = set(node) - set(allowed)
    if unknown:
        raise ScenarioError(f"unknown key(s) in '{name}': {', '.join(sorted(unknown))}")


def _is_finite_number(value) -> bool:
    # the bound also rejects NaN, and integers too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _get_number(node, key, name, default=None, required=False):
    if key not in node:
        if required:
            raise ScenarioError(f"missing required key '{key}' in '{name}'")
        return default
    value = node[key]
    if not _is_finite_number(value):
        raise ScenarioError(f"'{name}.{key}' must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True, eq=False)
class ObservationSpec:
    """Radius and the scatter (theta, phi) angles in degrees, one pair per point."""

    radius: float
    theta_deg: np.ndarray
    phi_deg: np.ndarray


@dataclass(frozen=True)
class RandomScheme:
    seed: int = 0
    expectation: bool = False


@dataclass(frozen=True)
class CompensateScheme:
    theta_i_deg: float
    theta_s_deg: float


@dataclass(frozen=True)
class ReshapeScheme:
    desired_pattern_file: str
    truncation_tol: float = 1e-8


@dataclass(frozen=True)
class OutputSpec:
    format: str = "csv"
    path: str | None = None


@dataclass(frozen=True)
class Scenario:
    kind: str  # geometry.kind as written: patch, linear or planar
    geometry: LinearRis | RisGeometry
    waves: tuple
    observation: ObservationSpec
    scheme: RandomScheme | CompensateScheme | ReshapeScheme | None
    output: OutputSpec
    defaults_filled: tuple
    source_hash: str


def _is_pair(value) -> bool:
    return (isinstance(value, list) and len(value) == 2
            and all(_is_finite_number(v) for v in value))


def _parse_complex(value, name):
    if _is_finite_number(value):
        return complex(value)
    if _is_pair(value):
        return complex(value[0], value[1])
    raise ScenarioError(f"'{name}' must be a finite number or [re, im] pair")


def _parse_wave_section(node, defaults):
    if node is None:
        defaults.extend(["wave.wavelength=1.0", "wave.gamma=-1.0"])
        return WaveContext()
    node = _require_mapping(node, "wave")
    _check_keys(node, {"wavelength", "gamma"}, "wave")
    if "wavelength" not in node:
        defaults.append("wave.wavelength=1.0")
    if "gamma" not in node:
        defaults.append("wave.gamma=-1.0")
    wavelength = _get_number(node, "wavelength", "wave", default=1.0)
    gamma = _parse_complex(node.get("gamma", -1.0), "wave.gamma")
    if wavelength <= 0:
        raise ScenarioError("'wave.wavelength' must be positive")
    return WaveContext(wavelength, gamma)


def _build(name, make, *args, **kwargs):
    """Call a model constructor; the ValueError it raises becomes a ScenarioError."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid '{name}': {exc}") from exc


def _parse_geometry(node, ctx):
    """The geometry kind and its model: a LinearRis, or a RisGeometry for patch and planar."""
    node = _require_mapping(node, "geometry")
    kind = node.get("kind")
    if kind == "patch":
        _check_keys(node, {"kind", "a", "b", "area"}, "geometry")
        patch = _build("geometry", Patch, _get_number(node, "a", "geometry", required=True),
                       _get_number(node, "b", "geometry", required=True),
                       _get_number(node, "area", "geometry"))
        return kind, _one_cell(patch, ctx)
    if kind == "linear":
        _check_keys(node, {"kind", "n", "spacing", "a", "b", "area"}, "geometry")
        n = node.get("n")
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ScenarioError("'geometry.n' must be a positive integer")
        spacing = _get_number(node, "spacing", "geometry", required=True)
        a = _get_number(node, "a", "geometry", required=True)
        b = _get_number(node, "b", "geometry", required=True)
        area = _get_number(node, "area", "geometry", default=a * b)
        return kind, _build("geometry", LinearRis.uniform, n, spacing, area, width=b, ctx=ctx)
    if kind == "planar":
        _check_keys(node, {"kind", "cells"}, "geometry")
        raw = node.get("cells")
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("'geometry.cells' must be a non-empty list")
        cells = []
        for i, c in enumerate(raw):
            name = f"geometry.cells[{i}]"
            c = _require_mapping(c, name)
            _check_keys(c, {"position", "a", "b", "area", "phase"}, name)
            pos = c.get("position")
            if not (isinstance(pos, list) and len(pos) == 3
                    and all(_is_finite_number(v) for v in pos)):
                raise ScenarioError(f"'{name}.position' must be a list of three finite numbers")
            cells.append(_build(name, UnitCell, np.array(pos, dtype=float),
                                _get_number(c, "a", name, required=True),
                                _get_number(c, "b", name, required=True),
                                _get_number(c, "area", name),
                                _get_number(c, "phase", name, default=0.0)))
        return kind, RisGeometry(tuple(cells), ctx)
    raise ScenarioError("'geometry.kind' must be one of patch, linear, planar")


def _parse_incident(node, linear: bool):
    if node is None:
        return ()
    if not isinstance(node, list):
        raise ScenarioError("'incident' must be a list")
    waves = []
    for i, w in enumerate(node):
        w = _require_mapping(w, f"incident[{i}]")
        _check_keys(w, {"theta_deg", "phi_deg", "amplitude"}, f"incident[{i}]")
        theta = _get_number(w, "theta_deg", f"incident[{i}]", required=True)
        phi = _get_number(w, "phi_deg", f"incident[{i}]", default=0.0)
        amp = _get_number(w, "amplitude", f"incident[{i}]", default=1.0)
        if linear:
            if not -90.0 <= theta <= 90.0:
                raise ScenarioError(
                    f"'incident[{i}].theta_deg' must lie in [-90, 90] for a linear array")
        else:
            if not 0.0 <= theta <= 90.0:
                raise ScenarioError(
                    f"'incident[{i}].theta_deg' must lie in [0, 90]")
            if not -180.0 <= phi <= 180.0:
                raise ScenarioError(f"'incident[{i}].phi_deg' must lie in [-180, 180]")
        if amp < 0:
            raise ScenarioError(f"'incident[{i}].amplitude' must be non-negative")
        waves.append(PlaneWave(Direction(math.radians(theta), math.radians(phi)), amp))
    return tuple(waves)


def _parse_observation(node, ctx, defaults):
    default_radius = DEFAULT_RADIUS_WAVELENGTHS * ctx.wavelength
    node = {} if node is None else _require_mapping(node, "observation")
    _check_keys(node, {"radius", "grid", "points"}, "observation")
    if "radius" not in node:
        defaults.append(f"observation.radius={default_radius}")
    radius = _get_number(node, "radius", "observation", default=default_radius)
    if radius <= 0:
        raise ScenarioError("'observation.radius' must be positive")
    if "grid" in node and "points" in node:
        raise ScenarioError("'observation' takes either 'grid' or 'points', not both")
    if "points" in node:
        raw = node["points"]
        if not isinstance(raw, list) or not raw:
            raise ScenarioError("'observation.points' must be a non-empty list")
        pts = []
        for i, p in enumerate(raw):
            p = _require_mapping(p, f"observation.points[{i}]")
            _check_keys(p, {"theta_deg", "phi_deg"}, f"observation.points[{i}]")
            pts.append((_get_number(p, "theta_deg", f"observation.points[{i}]", required=True),
                        _get_number(p, "phi_deg", f"observation.points[{i}]", default=0.0)))
        return ObservationSpec(radius, *np.array(pts, dtype=float).T)
    grid_node = node.get("grid")
    if grid_node is None:
        defaults.append("observation.grid=(-90, 90, 361)")
        grid_node = {"start_deg": -90.0, "stop_deg": 90.0, "count": 361}
    grid_node = _require_mapping(grid_node, "observation.grid")
    _check_keys(grid_node, {"start_deg", "stop_deg", "count", "phi_deg"}, "observation.grid")
    start = _get_number(grid_node, "start_deg", "observation.grid", required=True)
    stop = _get_number(grid_node, "stop_deg", "observation.grid", required=True)
    count = grid_node.get("count")
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise ScenarioError("'observation.grid.count' must be a positive integer")
    if stop < start:
        raise ScenarioError("'observation.grid' must be monotone: start_deg <= stop_deg")
    phi = _get_number(grid_node, "phi_deg", "observation.grid", default=0.0)
    return ObservationSpec(radius, np.linspace(start, stop, count), np.full(count, phi))


def _parse_scheme(node, geometry):
    if node is None:
        return None
    node = _require_mapping(node, "configure")
    kind = node.get("scheme")
    if kind in ("random", "compensate", "reshape") and not isinstance(geometry, LinearRis):
        raise ScenarioError(f"scheme '{kind}' requires a linear geometry")
    if kind == "random":
        _check_keys(node, {"scheme", "seed", "expectation"}, "configure")
        seed = node.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ScenarioError("'configure.seed' must be an integer")
        expectation = node.get("expectation", False)
        if not isinstance(expectation, bool):
            raise ScenarioError("'configure.expectation' must be a boolean")
        return RandomScheme(seed, expectation)
    if kind == "compensate":
        _check_keys(node, {"scheme", "theta_i_deg", "theta_s_deg"}, "configure")
        return CompensateScheme(
            _get_number(node, "theta_i_deg", "configure", required=True),
            _get_number(node, "theta_s_deg", "configure", required=True))
    if kind == "reshape":
        _check_keys(node, {"scheme", "desired_pattern_file", "truncation_tol"}, "configure")
        path = node.get("desired_pattern_file")
        if not isinstance(path, str) or not path:
            raise ScenarioError("'configure.desired_pattern_file' must be a path")
        return ReshapeScheme(path, _get_number(node, "truncation_tol", "configure",
                                               default=1e-8))
    raise ScenarioError("'configure.scheme' must be one of random, compensate, reshape")


def _parse_output(node, defaults):
    if node is None:
        defaults.append("output.format=csv")
        return OutputSpec()
    node = _require_mapping(node, "output")
    _check_keys(node, {"format", "path"}, "output")
    fmt = node.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ScenarioError("'output.format' must be csv or json")
    path = node.get("path")
    if path is not None and not isinstance(path, str):
        raise ScenarioError("'output.path' must be a string")
    return OutputSpec(fmt, path)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; unknown keys are rejected."""
    try:
        doc = yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"scenario parse error{where}: {exc.problem}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario parse error: nesting too deep") from exc
    if doc is None:
        raise ScenarioError("scenario is empty")
    doc = _require_mapping(doc, "scenario")
    _check_keys(doc, {"wave", "geometry", "incident", "observation", "configure",
                      "output"}, "scenario")
    if "geometry" not in doc:
        raise ScenarioError("missing required section 'geometry'")

    defaults: list[str] = []
    ctx = _parse_wave_section(doc.get("wave"), defaults)
    kind, geometry = _parse_geometry(doc["geometry"], ctx)
    waves = _parse_incident(doc.get("incident"), isinstance(geometry, LinearRis))
    observation = _parse_observation(doc.get("observation"), ctx, defaults)
    scheme = _parse_scheme(doc.get("configure"), geometry)
    output = _parse_output(doc.get("output"), defaults)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Scenario(kind, geometry, waves, observation, scheme, output,
                    tuple(defaults), digest)


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SweepResult:
    """Rows of scatter angle, field magnitude and RCS with dB companions."""

    theta_deg: np.ndarray
    magnitude: np.ndarray
    rcs: np.ndarray
    phi_deg: np.ndarray | None = None

    @property
    def magnitude_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(self.magnitude)

    @property
    def rcs_db(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 10.0 * np.log10(self.rcs)

    def columns(self) -> dict:
        cols = {"theta_s_deg": self.theta_deg}
        if self.phi_deg is not None:
            cols["phi_s_deg"] = self.phi_deg
        cols.update({"field_magnitude": self.magnitude,
                     "field_magnitude_db": self.magnitude_db,
                     "rcs": self.rcs, "rcs_db": self.rcs_db})
        return cols

    def to_csv_text(self) -> str:
        cols = self.columns()
        buf = io.StringIO()
        write_csv(buf, cols, zip(*cols.values()))
        return buf.getvalue()

    def to_json_dict(self) -> dict:
        """Columns as lists; a non-finite entry (the dB of a zero field) becomes None."""
        return {name: [v if math.isfinite(v) else None for v in np.asarray(values).tolist()]
                for name, values in self.columns().items()}

    def write(self, path: str) -> None:
        """Write the CSV text to path."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def write_csv(fh, header, rows) -> None:
    """Header row, then rows of numbers at 12 significant digits."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(format(v, ".12g") for v in row) + "\n")


def write_json(path: str, doc) -> None:
    """Indented JSON document with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def cut_angles(theta_deg, phi_deg):
    """Signed-theta principal-plane cut: negative theta flips phi by 180 deg.

    Takes arrays in degrees; returns (theta, phi) in radians with theta >= 0.
    """
    theta = np.radians(theta_deg)
    phi = np.radians(phi_deg)
    flipped = np.where(phi <= 0, phi + np.pi, phi - np.pi)
    return np.abs(theta), np.where(theta < 0, flipped, phi)


def _load_desired_pattern(path: str, n: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError as exc:
            raise ScenarioError("desired pattern file is nested too deeply") from exc
    values = doc.get("desired") if isinstance(doc, dict) else None
    if not (isinstance(values, list) and len(values) == n
            and all(_is_pair(v) for v in values)):
        raise ScenarioError(
            f"desired pattern file must hold {n} finite [re, im] pairs under 'desired'")
    return np.array([complex(re, im) for re, im in values])


def mimo_system(ris: LinearRis, waves, radius: float, thetas) -> MimoSystem:
    """The factored system of ris for the waves, seen at scatter angles thetas at one radius."""
    obs = [ObservationPoint(radius, Direction(t)) for t in thetas]
    return assemble_mimo(ris, [w.direction.theta for w in waves], obs)


def reshape_on_grid(ris: LinearRis, waves, radius: float, desired,
                    truncation_tol: float = 1e-8):
    """Least-squares reshape towards desired on the regular scatter grid.

    The matrix model fixes the sinc factor to 1, so the array is solved and
    configured with point cells. Returns (system, solution, configured array).
    Raises FloatingPointError if the solved weights are not finite.
    """
    ideal = LinearRis(ris.spacing, ris.areas, np.zeros(ris.n), ris.phases, ris.ctx)
    sys = mimo_system(ideal, waves, radius, dft_scatter_grid(ris.n))
    solution = beam_reshape(sys, [w.amplitude for w in waves], desired,
                            truncation_tol=truncation_tol)
    if not np.all(np.isfinite(solution.weights)):
        raise FloatingPointError("the reshape gave non-finite weights")
    return sys, solution, ideal.with_weights(solution.weights)


def configure_linear(scn: Scenario) -> tuple[LinearRis, ReshapeSolution | None]:
    """Apply the scenario's configuration scheme to its linear geometry."""
    ris = scn.geometry
    if not isinstance(ris, LinearRis):
        raise ScenarioError("configuration requires a linear geometry")
    scheme = scn.scheme
    if scheme is None or (isinstance(scheme, RandomScheme) and scheme.expectation):
        return ris, None
    if isinstance(scheme, RandomScheme):
        return ris.with_phases(random_phase_draw(ris.n, scheme.seed)), None
    if isinstance(scheme, CompensateScheme):
        phases = phase_compensation(math.radians(scheme.theta_i_deg),
                                    math.radians(scheme.theta_s_deg), ris)
        return ris.with_phases(phases), None
    if isinstance(scheme, ReshapeScheme):
        desired = _load_desired_pattern(scheme.desired_pattern_file, ris.n)
        _, solution, configured = reshape_on_grid(ris, scn.waves, scn.observation.radius,
                                                  desired, scheme.truncation_tol)
        return configured, solution
    raise ScenarioError(f"unsupported scheme {scheme!r}")


# a non-finite result raises FloatingPointError at the end instead of warning on the way
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def run_sweep(scn: Scenario, trials: int | None = None):
    """Evaluate the configured model on the observation grid.

    With a trial count, a random-phase scenario gives the Monte Carlo mean
    power over that many phase draws instead of one draw or the expectation.
    Returns (SweepResult, ReshapeSolution | None). Deterministic given the
    scenario text, including any random seed. Raises FloatingPointError if
    any field magnitude or RCS value is not finite.
    """
    if trials is not None:
        if not isinstance(scn.scheme, RandomScheme):
            raise ScenarioError("trials apply only to random-phase scenarios")
        if trials < 1:
            raise ScenarioError("trials must be a positive integer")
    obs_spec = scn.observation
    thetas_deg, phis_deg = obs_spec.theta_deg, obs_spec.phi_deg
    amp_sq = sum(w.amplitude ** 2 for w in scn.waves)
    solution = None

    if isinstance(scn.geometry, LinearRis):
        if not np.all(np.abs(thetas_deg) <= 90.0):
            raise ScenarioError("linear-array scatter angles must lie in [-90, 90]")
        thetas = np.radians(thetas_deg)
        ris, solution = configure_linear(scn)
        scheme = scn.scheme
        if trials is not None:
            magnitude = np.sqrt(monte_carlo_power_grid(ris, scn.waves, obs_spec.radius,
                                                       thetas, trials, scheme.seed))
        elif isinstance(scheme, RandomScheme) and scheme.expectation:
            magnitude = np.sqrt(random_phase_miso_expected_power(ris, scn.waves,
                                                                 obs_spec.radius, thetas))
        else:
            magnitude = np.abs(_field(ris, scn.waves, obs_spec.radius, thetas))
        phi_col = None
    else:
        magnitude = _field_magnitude(scn.geometry, scn.waves, obs_spec.radius,
                                     *cut_angles(thetas_deg, phis_deg))
        phi_col = phis_deg

    if amp_sq > 0:
        rcs = 4.0 * np.pi * obs_spec.radius ** 2 * magnitude ** 2 / amp_sq
    else:
        rcs = np.zeros(thetas_deg.size)
    if not (np.all(np.isfinite(magnitude)) and np.all(np.isfinite(rcs))):
        raise FloatingPointError("the sweep gave non-finite field magnitudes or RCS values")

    return SweepResult(thetas_deg, magnitude, rcs, phi_col), solution


def manifest_for(scn: Scenario, extra: dict | None = None) -> dict:
    """Run manifest: library version, scenario hash, filled defaults."""
    doc = {
        "library_version": __version__,
        "scenario_hash": scn.source_hash,
        "defaults_filled": list(scn.defaults_filled),
    }
    if extra:
        doc.update(extra)
    return doc
