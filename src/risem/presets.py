"""Figure-reproduction presets: fixed scenarios, sweeps and manifests.

Every preset writes CSV sweep data plus a JSON manifest recording the
parameters and the numerical checks performed; the reshaping preset also
emits the factored system and the solved weights as JSON.
"""
from __future__ import annotations

import math
import os

import numpy as np

from .core import Direction, ObservationPoint, PlaneWave, WaveContext
from .config import (anomalous_pairs, beam_reshape, compensation_delta,
                     grating_lobes, phase_compensation, random_phase_draw,
                     random_phase_expected_rcs)
from .linear import (LinearRis, _field, _rcs, _steering, assemble_mimo,
                     dft_scatter_grid)
from .patch import Patch, _one_cell, patch_bistatic_rcs
from .scenario import (Scenario, parse_scenario, run_sweep, write_csv,
                       write_json)
from . import surface

FIGURE_IDS = ("fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9")

OBS_RADIUS = 100.0
CELL = 0.1          # unit-cell edge for the linear presets, in wavelengths
N_CELLS = 100
STEER_FROM_DEG = 30.0
STEER_TO_DEG = -50.0
TWO_WAVE_DEG = ((30.0, 1.0), (70.0, 0.5))


def _write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_csv(fh, header, rows)


def _local_maxima(values: np.ndarray) -> np.ndarray:
    """Indices of strict interior local maxima."""
    v = np.asarray(values)
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1


def _peak_angles(theta_deg, values, count):
    idx = _local_maxima(values)
    order = idx[np.argsort(values[idx])[::-1]]
    return sorted(float(theta_deg[i]) for i in order[:count])


def _main_and_secondary(theta_deg, values, exclude_deg=5.0):
    """Global peak plus the strongest local maximum away from it."""
    theta_deg = np.asarray(theta_deg)
    main_i = int(np.argmax(values))
    main_angle = float(theta_deg[main_i])
    idx = _local_maxima(values)
    idx = idx[np.abs(theta_deg[idx] - main_angle) > exclude_deg]
    if idx.size == 0:
        return main_angle, None, None
    sec_i = idx[np.argmax(values[idx])]
    ratio_db = float(20.0 * np.log10(values[main_i] / values[sec_i]))
    return main_angle, float(theta_deg[sec_i]), ratio_db


def _linear_scenario_text(spacing, scheme_lines, incident_lines,
                          grid=(-90.0, 90.0, 3601)):
    waves = "\n".join(f"  - {{theta_deg: {t}, amplitude: {a}}}"
                      for t, a in incident_lines)
    return (
        "geometry:\n"
        "  kind: linear\n"
        f"  n: {N_CELLS}\n"
        f"  spacing: {spacing}\n"
        f"  a: {CELL}\n"
        f"  b: {CELL}\n"
        "incident:\n"
        f"{waves}\n"
        "observation:\n"
        f"  radius: {OBS_RADIUS}\n"
        f"  grid: {{start_deg: {grid[0]}, stop_deg: {grid[1]}, count: {grid[2]}}}\n"
        + scheme_lines)


def scenario_fig6(spacing: float) -> Scenario:
    """Steering preset: compensation 30 deg -> -50 deg at the given spacing."""
    text = _linear_scenario_text(
        spacing,
        "configure:\n"
        "  scheme: compensate\n"
        f"  theta_i_deg: {STEER_FROM_DEG}\n"
        f"  theta_s_deg: {STEER_TO_DEG}\n",
        ((STEER_FROM_DEG, 1.0),))
    return parse_scenario(text)


def scenario_fig7a() -> Scenario:
    text = _linear_scenario_text(
        0.5,
        "configure:\n"
        "  scheme: compensate\n"
        f"  theta_i_deg: {STEER_FROM_DEG}\n"
        f"  theta_s_deg: {STEER_TO_DEG}\n",
        TWO_WAVE_DEG)
    return parse_scenario(text)


def _reproduce_fig2(outdir):
    ctx = WaveContext()
    patch = Patch(5.0, 5.0)
    cell = _one_cell(patch, ctx)
    incident = Direction(0.0, 0.0)
    thetas = np.linspace(-90.0, 90.0, 721)
    files = []
    for name, phi in (("xoz", 0.0), ("yoz", 90.0)):
        phis = np.where(thetas >= 0, phi, phi - 180.0)
        rcs = surface._rcs(cell, incident, np.radians(np.abs(thetas)), np.radians(phis))
        with np.errstate(divide="ignore"):
            rcs_db = 10.0 * np.log10(rcs)
        path = os.path.join(outdir, f"fig2_{name}.csv")
        _write_csv(path, ["theta_s_deg", "phi_s_deg", "rcs", "rcs_db"],
                   zip(thetas, phis, rcs, rcs_db))
        files.append(path)
    peak = patch_bistatic_rcs(patch, incident, Direction(0.0, 0.0), ctx)
    checks = {
        "broadside_rcs": peak,
        "broadside_rcs_expected": 4.0 * math.pi * 625.0,
        "first_null_deg_expected": math.degrees(math.asin(0.2)),
    }
    return files, {"patch": {"a": 5.0, "b": 5.0}, "incident_theta_deg": 0.0}, checks


def _reproduce_fig4(outdir):
    ctx = WaveContext()
    patch = Patch(5.0, 5.0)
    waves = [PlaneWave(Direction(math.radians(15.0), math.radians(-45.0)), 1.0),
             PlaneWave(Direction(math.radians(45.0), math.radians(135.0)), 0.5)]
    thetas = np.linspace(0.0, 90.0, 91)
    phis = np.linspace(-180.0, 180.0, 181)
    grid_t, grid_p = np.meshgrid(thetas, phis, indexing="ij")
    mags = surface._field_magnitude(_one_cell(patch, ctx), waves, OBS_RADIUS,
                                    np.radians(grid_t), np.radians(grid_p))
    peak = mags.max()
    path = os.path.join(outdir, "fig4_field.csv")
    _write_csv(path, ["theta_s_deg", "phi_s_deg", "field_magnitude", "field_normalized"],
               zip(grid_t.ravel(), grid_p.ravel(), mags.ravel(), (mags / peak).ravel()))
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
    return [path], params, checks


def _reproduce_fig5(outdir):
    ctx = WaveContext()
    ris = LinearRis.uniform(N_CELLS, 0.5, CELL * CELL, width=CELL, ctx=ctx)
    theta_i = math.radians(STEER_FROM_DEG)
    thetas = np.linspace(-90.0, 90.0, 361)
    sample = ris.with_phases(random_phase_draw(ris.n, 0))
    expected = random_phase_expected_rcs(ris, theta_i, np.radians(thetas))
    sampled = _rcs(sample, theta_i, np.radians(thetas))
    with np.errstate(divide="ignore"):
        expected_db = 10.0 * np.log10(expected)
    path = os.path.join(outdir, "fig5.csv")
    _write_csv(path, ["theta_s_deg", "expected_rcs", "expected_rcs_db",
                      "sampled_rcs_seed0"], zip(thetas, expected, expected_db, sampled))
    checks = {"expected_rcs_spread": float(expected.max() - expected.min()),
              "expected_rcs_value": float(expected[0])}
    params = {"n": N_CELLS, "spacing": 0.5, "cell": CELL,
              "incident_theta_deg": STEER_FROM_DEG, "seed": 0}
    return [path], params, checks


def _reproduce_fig6(outdir):
    files = []
    checks = {}
    for spacing in (0.5, 0.7):
        scn = scenario_fig6(spacing)
        result, _ = run_sweep(scn)
        tag = f"d{str(spacing).replace('.', '')}"
        path = os.path.join(outdir, f"fig6_{tag}.csv")
        result.write(path, "csv")
        files.append(path)
        main, secondary, ratio_db = _main_and_secondary(result.theta_deg,
                                                        result.magnitude)
        delta = compensation_delta(math.radians(STEER_FROM_DEG),
                                   math.radians(STEER_TO_DEG))
        predicted = [math.degrees(t) for t in
                     grating_lobes(delta, spacing, 1.0, math.radians(STEER_FROM_DEG))]
        checks[f"spacing_{spacing}"] = {
            "main_lobe_deg": main,
            "strongest_secondary_deg": secondary,
            "main_over_secondary_db": ratio_db,
            "predicted_grating_lobes_deg": predicted,
        }
    params = {"n": N_CELLS, "cell": CELL, "steer_from_deg": STEER_FROM_DEG,
              "steer_to_deg": STEER_TO_DEG, "spacings": [0.5, 0.7]}
    return files, params, checks


def _reproduce_fig7a(outdir):
    scn = scenario_fig7a()
    result, _ = run_sweep(scn)
    path = os.path.join(outdir, "fig7a.csv")
    result.write(path, "csv")
    delta = compensation_delta(math.radians(STEER_FROM_DEG),
                               math.radians(STEER_TO_DEG))
    predicted = [math.degrees(t)
                 for t in anomalous_pairs(delta, 0.5, 1.0, math.radians(70.0))]
    main = float(result.theta_deg[np.argmax(result.magnitude)])
    lobes = {}
    for angle in predicted:
        near = np.abs(result.theta_deg - angle) < 3.0
        idx = _local_maxima(result.magnitude)
        idx = idx[near[idx]]
        if idx.size:
            lobes[f"{angle:.2f}"] = float(
                result.theta_deg[idx[np.argmax(result.magnitude[idx])]])
    checks = {"main_lobe_deg": main,
              "anomalous_lobes_deg": lobes,
              "predicted_anomalous_for_70deg": predicted}
    params = {"n": N_CELLS, "spacing": 0.5, "waves": list(TWO_WAVE_DEG),
              "delta": delta}
    return [path], params, checks


def fig7b_reshape():
    """Reshape setup: suppress the anomalous lobe, keep the -50 deg beam.

    The desired pattern is the compensation baseline driven by the 30 deg
    wave alone, sampled on the regular scatter grid; the solver then serves
    both incident waves. Returns (system, solution, configured array, waves).
    """
    ctx = WaveContext()
    theta_i = math.radians(STEER_FROM_DEG)
    theta_s = math.radians(STEER_TO_DEG)
    base = LinearRis.uniform(N_CELLS, 0.5, CELL * CELL, ctx=ctx)
    compensated = base.with_phases(phase_compensation(theta_i, theta_s, base))
    grid = dft_scatter_grid(N_CELLS)
    obs = [ObservationPoint(OBS_RADIUS, Direction(t)) for t in grid]
    desired = _field(compensated, [PlaneWave(Direction(theta_i), 1.0)], OBS_RADIUS, grid)
    waves = [PlaneWave(Direction(math.radians(t)), a) for t, a in TWO_WAVE_DEG]
    sys = assemble_mimo(base, [w.direction.theta for w in waves], obs)
    solution = beam_reshape(sys, [w.amplitude for w in waves], desired)
    configured = base.with_weights(solution.weights)
    return sys, solution, configured, waves


def _reproduce_fig7b(outdir):
    sys, solution, configured, waves = fig7b_reshape()
    thetas = np.linspace(-90.0, 90.0, 3601)
    mags = np.abs(_field(configured, waves, OBS_RADIUS, np.radians(thetas)))
    with np.errstate(divide="ignore"):
        mags_db = 20.0 * np.log10(mags)
    csv_path = os.path.join(outdir, "fig7b.csv")
    _write_csv(csv_path, ["theta_s_deg", "field_magnitude", "field_magnitude_db"],
               zip(thetas, mags, mags_db))
    sys_path = os.path.join(outdir, "fig7b_system.json")
    write_json(sys_path, sys.to_json_dict())
    sol_path = os.path.join(outdir, "fig7b_weights.json")
    write_json(sol_path, {
        "weights": [[float(w.real), float(w.imag)] for w in solution.weights],
        "residual": solution.residual,
        "rank": solution.rank,
        "discarded_fraction": solution.discarded_fraction,
        "truncation_tol": solution.truncation_tol,
    })
    main = mags[np.argmin(np.abs(thetas - STEER_TO_DEG))]
    anomalous = mags[np.argmin(np.abs(thetas - 52.59))]
    checks = {
        "peak_angles_deg": _peak_angles(thetas, mags, 1),
        "suppression_db_at_52p59": float(20.0 * np.log10(main / anomalous)),
    }
    params = {"n": N_CELLS, "spacing": 0.5, "waves": list(TWO_WAVE_DEG),
              "desired": "compensation baseline of the 30 deg wave"}
    return [csv_path, sys_path, sol_path], params, checks


def _steering_surface(outdir, name, theta_i_deg, theta_s_deg):
    """|T| and RCS over every (theta_i, theta_s) for compensation at a design pair."""
    theta_i, theta_s = math.radians(theta_i_deg), math.radians(theta_s_deg)
    base = LinearRis.uniform(N_CELLS, 0.5, CELL * CELL, ctx=WaveContext())
    ris = base.with_phases(phase_compensation(theta_i, theta_s, base))
    delta = compensation_delta(theta_i, theta_s)
    grid = np.linspace(-90.0, 90.0, 181)
    ti, ts = np.meshgrid(grid, grid, indexing="ij")
    t = np.abs(_steering(ris, np.sin(np.radians(ti)) + np.sin(np.radians(ts))))
    rcs = 4.0 * np.pi * np.cos(np.radians(ti)) ** 2 * t ** 2
    path = os.path.join(outdir, f"{name}_steering.csv")
    _write_csv(path, ["theta_i_deg", "theta_s_deg", "steering_magnitude", "rcs"],
               zip(ti.ravel(), ts.ravel(), t.ravel(), rcs.ravel()))
    params = {"n": N_CELLS, "spacing": 0.5, "cell": CELL, "delta": delta}
    return [path], params, {"delta": delta}


def reproduce(figure_id: str, outdir: str) -> dict:
    """Write the CSV/JSON artifacts for one preset; returns the manifest."""
    if figure_id not in FIGURE_IDS:
        raise ValueError(f"unknown figure id {figure_id!r}; "
                         f"choose from {', '.join(FIGURE_IDS)}")
    os.makedirs(outdir, exist_ok=True)
    builders = {
        "fig2": _reproduce_fig2,
        "fig4": _reproduce_fig4,
        "fig5": _reproduce_fig5,
        "fig6": _reproduce_fig6,
        "fig7a": _reproduce_fig7a,
        "fig7b": _reproduce_fig7b,
        "fig8": lambda d: _steering_surface(d, "fig8", 0.0, 0.0),
        "fig9": lambda d: _steering_surface(d, "fig9", STEER_FROM_DEG, STEER_TO_DEG),
    }
    files, params, checks = builders[figure_id](outdir)
    from . import __version__
    manifest = {
        "figure": figure_id,
        "library_version": __version__,
        "parameters": params,
        "checks": checks,
        "files": [os.path.basename(f) for f in files],
    }
    manifest_path = os.path.join(outdir, f"{figure_id}_manifest.json")
    write_json(manifest_path, manifest)
    return manifest
