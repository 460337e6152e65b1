"""Figure-reproduction presets: fixed scenarios, sweeps and manifests.

Every preset writes CSV sweep data plus a JSON manifest recording the
parameters and the numerical checks performed; the reshaping preset also
emits the factored system and the solved weights as JSON. A preset writes
nothing unless every JSON document, the manifest included, is finite.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .core import Direction, PlaneWave, WaveContext
from .config import (anomalous_pairs, compensation_delta,
                     grating_lobes, phase_compensation, random_phase_draw,
                     random_phase_expected_rcs)
from .linear import LinearRis, _field, _rcs, _steering, dft_scatter_grid
from .patch import Patch
from .scenario import (CompensateScheme, ObservationSpec, OutputSpec, Scenario, _output,
                       decibels, json_text, reshape_on_grid, run_sweep, write_csv)
from . import surface

OBS_RADIUS = 100.0
CELL = 0.1          # unit-cell edge for the linear presets, in wavelengths
N_CELLS = 100
STEER_FROM_DEG = 30.0
STEER_TO_DEG = -50.0
TWO_WAVE_DEG = ((30.0, 1.0), (70.0, 0.5))
# the compensation design pair in radians, and its phase gradient
STEER_FROM, STEER_TO = math.radians(STEER_FROM_DEG), math.radians(STEER_TO_DEG)
DELTA = compensation_delta(STEER_FROM, STEER_TO)


def _strongest_peak(values, where):
    """Index of the largest strict interior local maximum where `where` holds, or None."""
    v = np.asarray(values)
    inner = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:]) & np.broadcast_to(where, v.shape)[1:-1]
    idx = np.flatnonzero(inner) + 1
    return int(idx[np.argmax(v[idx])]) if idx.size else None


def _main_and_secondary(theta_deg, values, exclude_deg=5.0):
    """Global peak plus the strongest local maximum away from it."""
    theta_deg = np.asarray(theta_deg)
    main_i = int(np.argmax(values))
    main_angle = float(theta_deg[main_i])
    sec_i = _strongest_peak(values, np.abs(theta_deg - main_angle) > exclude_deg)
    if sec_i is None:
        return main_angle, None, None
    ratio_db = float(20.0 * np.log10(values[main_i] / values[sec_i]))
    return main_angle, float(theta_deg[sec_i]), ratio_db


def _compensated_scenario(spacing, waves) -> Scenario:
    """The linear preset array compensated from 30 deg to -50 deg under the given waves.

    waves are (theta_deg, amplitude) pairs; the sweep covers -90..90 deg in 0.05 deg steps.
    The scenario has no source text, so it has no hash and no filled defaults.
    """
    ris = LinearRis.uniform(N_CELLS, spacing, CELL * CELL, width=CELL)
    thetas = np.linspace(-90.0, 90.0, 3601)
    return Scenario("linear", ris,
                    tuple(PlaneWave(Direction(math.radians(t)), a) for t, a in waves),
                    ObservationSpec(OBS_RADIUS, thetas, np.zeros(thetas.size)),
                    CompensateScheme(STEER_FROM_DEG, STEER_TO_DEG), OutputSpec(), (), "")


def scenario_fig6(spacing: float) -> Scenario:
    """Steering preset: compensation 30 deg -> -50 deg at the given spacing."""
    return _compensated_scenario(spacing, ((STEER_FROM_DEG, 1.0),))


def scenario_fig7a() -> Scenario:
    """The steering preset at spacing 0.5 under the two waves of TWO_WAVE_DEG."""
    return _compensated_scenario(0.5, TWO_WAVE_DEG)


def _reproduce_fig2():
    cell = surface.RisGeometry((Patch(5.0, 5.0),), WaveContext())
    incident = Direction(0.0, 0.0)
    thetas = np.linspace(-90.0, 90.0, 721)
    files = {}
    for name, phi in (("xoz", 0.0), ("yoz", 90.0)):
        phis = np.where(thetas >= 0, phi, phi - 180.0)
        rcs = surface._rcs(cell, incident, np.radians(np.abs(thetas)), np.radians(phis))
        files[f"fig2_{name}.csv"] = {"theta_s_deg": thetas, "phi_s_deg": phis, "rcs": rcs,
                                     "rcs_db": decibels(rcs, 10.0)}
    peak = surface.ris_bistatic_rcs(cell, incident, Direction(0.0, 0.0))
    checks = {
        "broadside_rcs": peak,
        "broadside_rcs_expected": 4.0 * math.pi * 625.0,
        "first_null_deg_expected": math.degrees(math.asin(0.2)),
    }
    return files, {"patch": {"a": 5.0, "b": 5.0}, "incident_theta_deg": 0.0}, checks


def _reproduce_fig4():
    cell = surface.RisGeometry((Patch(5.0, 5.0),), WaveContext())
    waves = [PlaneWave(Direction(math.radians(15.0), math.radians(-45.0)), 1.0),
             PlaneWave(Direction(math.radians(45.0), math.radians(135.0)), 0.5)]
    thetas = np.linspace(0.0, 90.0, 91)
    phis = np.linspace(-180.0, 180.0, 181)
    grid_t, grid_p = np.meshgrid(thetas, phis, indexing="ij")
    mags = surface._field_magnitude(cell, waves, OBS_RADIUS, np.radians(grid_t),
                                    np.radians(grid_p))
    peak = mags.max()
    files = {"fig4_field.csv": {"theta_s_deg": grid_t.ravel(), "phi_s_deg": grid_p.ravel(),
                                "field_magnitude": mags.ravel(),
                                "field_normalized": (mags / peak).ravel()}}
    i, k = np.unravel_index(np.argmax(mags), mags.shape)
    checks = {
        "global_peak": {"theta_s_deg": float(thetas[i]), "phi_s_deg": float(phis[k])},
        "specular_directions_expected": [
            {"theta_s_deg": 15.0, "phi_s_deg": 135.0},
            {"theta_s_deg": 45.0, "phi_s_deg": -45.0},
        ],
    }
    params = {"patch": {"a": 5.0, "b": 5.0},
              "waves": [{"theta_i_deg": 15.0, "phi_i_deg": -45.0, "amplitude": 1.0},
                        {"theta_i_deg": 45.0, "phi_i_deg": 135.0, "amplitude": 0.5}]}
    return files, params, checks


def _reproduce_fig5():
    ris = LinearRis.uniform(N_CELLS, 0.5, CELL * CELL, width=CELL)
    thetas = np.linspace(-90.0, 90.0, 361)
    sample = ris.with_phases(random_phase_draw(ris.n, 0))
    expected = random_phase_expected_rcs(ris, STEER_FROM, np.radians(thetas))
    sampled = _rcs(sample, STEER_FROM, np.radians(thetas))
    files = {"fig5.csv": {"theta_s_deg": thetas, "expected_rcs": expected,
                          "expected_rcs_db": decibels(expected, 10.0),
                          "sampled_rcs_seed0": sampled}}
    checks = {"expected_rcs_spread": float(expected.max() - expected.min()),
              "expected_rcs_value": float(expected[0])}
    params = {"n": N_CELLS, "spacing": 0.5, "cell": CELL,
              "incident_theta_deg": STEER_FROM_DEG, "seed": 0}
    return files, params, checks


def _reproduce_fig6():
    files = {}
    checks = {}
    for spacing in (0.5, 0.7):
        result, _ = run_sweep(scenario_fig6(spacing))
        files[f"fig6_d{str(spacing).replace('.', '')}.csv"] = result.columns()
        main, secondary, ratio_db = _main_and_secondary(result.theta_deg,
                                                        result.magnitude)
        predicted = [math.degrees(t) for t in grating_lobes(DELTA, spacing, 1.0, STEER_FROM)]
        checks[f"spacing_{spacing}"] = {
            "main_lobe_deg": main,
            "strongest_secondary_deg": secondary,
            "main_over_secondary_db": ratio_db,
            "predicted_grating_lobes_deg": predicted,
        }
    params = {"n": N_CELLS, "cell": CELL, "steer_from_deg": STEER_FROM_DEG,
              "steer_to_deg": STEER_TO_DEG, "spacings": [0.5, 0.7]}
    return files, params, checks


def _reproduce_fig7a():
    result, _ = run_sweep(scenario_fig7a())
    predicted = [math.degrees(t)
                 for t in anomalous_pairs(DELTA, 0.5, 1.0, math.radians(70.0))]
    main = float(result.theta_deg[np.argmax(result.magnitude)])
    lobes = {}
    for angle in predicted:
        peak = _strongest_peak(result.magnitude, np.abs(result.theta_deg - angle) < 3.0)
        if peak is not None:
            lobes[f"{angle:.2f}"] = float(result.theta_deg[peak])
    checks = {"main_lobe_deg": main,
              "anomalous_lobes_deg": lobes,
              "predicted_anomalous_for_70deg": predicted}
    params = {"n": N_CELLS, "spacing": 0.5, "waves": list(TWO_WAVE_DEG),
              "delta": DELTA}
    return {"fig7a.csv": result.columns()}, params, checks


def fig7b_reshape():
    """Reshape setup: suppress the anomalous lobe, keep the -50 deg beam.

    The desired pattern is the compensation baseline driven by the 30 deg
    wave alone, sampled on the regular scatter grid; the solver then serves
    both incident waves. Returns (system, solution, configured array, waves).
    """
    base = LinearRis.uniform(N_CELLS, 0.5, CELL * CELL)
    compensated = base.with_phases(phase_compensation(STEER_FROM, STEER_TO, base))
    desired = _field(compensated, [PlaneWave(Direction(STEER_FROM), 1.0)], OBS_RADIUS,
                     dft_scatter_grid(N_CELLS))
    waves = [PlaneWave(Direction(math.radians(t)), a) for t, a in TWO_WAVE_DEG]
    return (*reshape_on_grid(base, waves, OBS_RADIUS, desired), waves)


def _reproduce_fig7b():
    sys, solution, configured, waves = fig7b_reshape()
    thetas = np.linspace(-90.0, 90.0, 3601)
    mags = np.abs(_field(configured, waves, OBS_RADIUS, np.radians(thetas)))
    files = {
        "fig7b.csv": {"theta_s_deg": thetas, "field_magnitude": mags,
                      "field_magnitude_db": decibels(mags, 20.0)},
        "fig7b_system.json": sys.to_json_dict(),
        "fig7b_weights.json": {**solution.to_json_dict(),
                               "truncation_tol": solution.truncation_tol},
    }
    main = mags[np.argmin(np.abs(thetas - STEER_TO_DEG))]
    anomalous = mags[np.argmin(np.abs(thetas - 52.59))]
    peak = _strongest_peak(mags, True)
    checks = {
        "peak_angles_deg": [] if peak is None else [float(thetas[peak])],
        "suppression_db_at_52p59": float(20.0 * np.log10(main / anomalous)),
    }
    params = {"n": N_CELLS, "spacing": 0.5, "waves": list(TWO_WAVE_DEG),
              "desired": "compensation baseline of the 30 deg wave"}
    return files, params, checks


def _steering_surface(name, theta_i_deg, theta_s_deg):
    """|T| and RCS over every (theta_i, theta_s) for compensation at a design pair."""
    theta_i, theta_s = math.radians(theta_i_deg), math.radians(theta_s_deg)
    base = LinearRis.uniform(N_CELLS, 0.5, CELL * CELL, ctx=WaveContext())
    ris = base.with_phases(phase_compensation(theta_i, theta_s, base))
    delta = compensation_delta(theta_i, theta_s)
    grid = np.linspace(-90.0, 90.0, 181)
    sines = np.sin(np.radians(grid))
    t = np.abs(_steering(ris, sines, sines))
    rcs = 4.0 * np.pi * np.cos(np.radians(grid))[:, None] ** 2 * t ** 2
    ti, ts = np.meshgrid(grid, grid, indexing="ij")
    files = {f"{name}_steering.csv": {"theta_i_deg": ti.ravel(), "theta_s_deg": ts.ravel(),
                                      "steering_magnitude": t.ravel(), "rcs": rcs.ravel()}}
    params = {"n": N_CELLS, "spacing": 0.5, "cell": CELL, "delta": delta}
    return files, params, {"delta": delta}


_FIGURES = {
    "fig2": _reproduce_fig2,
    "fig4": _reproduce_fig4,
    "fig5": _reproduce_fig5,
    "fig6": _reproduce_fig6,
    "fig7a": _reproduce_fig7a,
    "fig7b": _reproduce_fig7b,
    "fig8": lambda: _steering_surface("fig8", 0.0, 0.0),
    "fig9": lambda: _steering_surface("fig9", STEER_FROM_DEG, STEER_TO_DEG),
}
FIGURE_IDS = tuple(_FIGURES)


def reproduce(figure_id: str, outdir: str) -> dict:
    """Write the CSV/JSON artifacts for one preset; returns the manifest.

    Every JSON document, the manifest included, is encoded before the first
    file is written, so a non-finite number (FloatingPointError) writes nothing.
    """
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"choose from {', '.join(FIGURE_IDS)}")
    os.makedirs(outdir, exist_ok=True)
    files, params, checks = _FIGURES[figure_id]()
    from . import __version__
    manifest = {
        "figure": figure_id,
        "library_version": __version__,
        "parameters": params,
        "checks": checks,
        "files": list(files),
    }
    files[f"{figure_id}_manifest.json"] = manifest
    texts = {name: json_text(doc) for name, doc in files.items() if name.endswith(".json")}
    for name, content in files.items():
        path = os.path.join(outdir, name)
        if name in texts:
            with _output(path) as fh:
                fh.write(texts[name])
        else:
            write_csv(path, content)
    return manifest
