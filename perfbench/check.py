"""Output check: compare a seeded sample of each job's rows with the oracle.

The deviation of a job is max|out - ref| / max|ref| over its checked rows,
column by column. The checked rows are a seeded sample plus the row where the
output peaks, so max|ref| is the job's peak and not an accidental null.
Limits:

* TOL (1e-12) for values read back at full precision (JSON);
* TOL + PRINT for values read back from the 12-significant-digit CSV, whose
  rounding alone moves a value by up to 5e-12 of itself;
* RESHAPE_TOL (1e-9) for the reshape residual and the recovered weights,
  relative to the desired pattern and to the generating weights.

check_job returns a Verdict; run.py counts a job whose verdict is not ok as
failed. Nothing here imports risem.
"""
from __future__ import annotations

import glob
import json
import math
import os
from dataclasses import dataclass

import numpy as np

import oracle

TOL = 1e-12
PRINT = 5e-12
RESHAPE_TOL = 1e-9
SAMPLE = 16


@dataclass
class Verdict:
    ok: bool
    deviation: float      # worst relative deviation, in units of its limit
    rows: int             # output rows the job wrote
    bytes: int            # output bytes the job wrote
    note: str = ""


class Mismatch(Exception):
    """The output disagrees with the reference or is malformed."""


def _dev(out, ref) -> float:
    out = np.asarray(out)
    ref = np.asarray(ref)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return math.inf
    scale = float(np.max(np.abs(ref)))
    if scale == 0.0:
        return float(np.max(np.abs(out)))
    return float(np.max(np.abs(out - ref))) / scale


class _Tracker:
    """Keeps the worst deviation, each one scaled by its own limit."""

    def __init__(self):
        self.worst = 0.0
        self.where = ""

    def cmp(self, what, out, ref, limit):
        ratio = _dev(out, ref) / limit
        if ratio > self.worst or math.isnan(ratio):
            self.worst, self.where = ratio, what
        if not ratio <= 1.0:
            raise Mismatch(f"{what}: deviation {ratio * limit:.3e} > {limit:.1e}")

    def require(self, cond, what):
        if not cond:
            raise Mismatch(what)


def _read_csv(path, header):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
    if first != ",".join(header):
        raise Mismatch(f"{os.path.basename(path)}: header {first!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header):
        raise Mismatch(f"{os.path.basename(path)}: {data.shape[1]} columns")
    return data


def _sample(rng, size, peak):
    rows = set(rng.choice(size, size=min(SAMPLE, size), replace=False).tolist())
    rows.update((0, size - 1, int(peak)))
    return np.array(sorted(rows))


SWEEP = ["theta_s_deg", "field_magnitude", "field_magnitude_db", "rcs", "rcs_db"]
CUT = ["theta_s_deg", "phi_s_deg", "field_magnitude", "field_magnitude_db", "rcs", "rcs_db"]


def _rcs(mag, radius, amp_sq):
    return 4.0 * np.pi * radius ** 2 * np.asarray(mag) ** 2 / amp_sq


def _check_sweep_csv(job, rng, t: _Tracker):
    p = job.params
    cut = job.kind in ("planar", "patch")
    data = _read_csv(job.out, CUT if cut else SWEEP)
    thetas = p["thetas"]
    t.require(data.shape[0] == thetas.size, f"{data.shape[0]} rows, expected {thetas.size}")
    mag, rcs = data[:, -4], data[:, -2]
    t.require(np.all(np.isfinite(mag)) and np.all(mag >= 0), "non-finite magnitude")
    limit = TOL + PRINT
    t.cmp("theta", data[:, 0], thetas, limit)
    rows = _sample(rng, thetas.size, np.argmax(mag))
    ts = thetas[rows]
    if job.kind == "linear":
        ref = np.abs(oracle.linear_field(p["weights"], p["width"], p["spacing"], p["waves"],
                                         ts, p["radius"], gamma=p["gamma"]))
    elif job.kind == "expect":
        ref = np.sqrt(oracle.linear_expected_power(p["area"], p["width"], p["n"], p["waves"],
                                                   ts, p["radius"], gamma=p["gamma"]))
    elif job.kind == "montecarlo":
        ref = np.sqrt(oracle.linear_monte_carlo_power(
            p["area"], p["width"], p["n"], p["spacing"], p["waves"], ts, p["radius"],
            p["trials"], p["seed"], gamma=p["gamma"]))
    else:
        dirs = [oracle.cut_direction(th, p["phi_cut"]) for th in ts]
        waves = [(math.radians(a), math.radians(b), A) for a, b, A in p["waves"]]
        t.cmp("phi", data[:, 1], np.full(thetas.size, p["phi_cut"]), limit)
        if job.kind == "patch":
            ref = oracle.patch_field(p["a"], p["b"], p["area"], waves, dirs, p["radius"],
                                     gamma=p["gamma"])
        else:
            ref = oracle.planar_field(p["positions"], p["a"], p["b"], p["area"], p["phase"],
                                      waves, dirs, p["radius"], gamma=p["gamma"])
    amp_sq = sum(w[-1] ** 2 for w in p["waves"])
    t.cmp("field_magnitude", mag[rows], ref, limit)
    t.cmp("rcs", rcs[rows], _rcs(ref, p["radius"], amp_sq), limit)
    return thetas.size


def _cpairs(pairs):
    return np.array([complex(re, im) for re, im in pairs])


def _check_reshape(job, rng, t: _Tracker):
    p = job.params
    with open(job.out, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = p["n"]
    waves_rad = [(math.radians(a), A) for a, A in p["waves"]]
    desired = p["desired"]
    dnorm = float(np.linalg.norm(desired))
    if job.kind == "reshape":
        sol = doc["reshape"]
        weights = _cpairs(sol["weights"])
        t.require(sol["rank"] == n, f"rank {sol['rank']} < {n}")
        t.require(sol["residual"] <= RESHAPE_TOL * dnorm, f"residual {sol['residual']:.3e}")
        # the fraction is sqrt(|d|^2 - |kept|^2)/|d|: about sqrt(eps) when nothing is dropped
        t.require(sol["discarded_fraction"] <= 1e-6, "discarded part of the target")
        sweep = doc["sweep"]
        thetas = np.asarray(sweep["theta_s_deg"])
        mag = np.asarray(sweep["field_magnitude"])
        rcs = np.asarray(sweep["rcs"])
        t.require(thetas.size == p["thetas"].size, f"{thetas.size} sweep rows")
        t.cmp("theta", thetas, p["thetas"], TOL)
        rows = _sample(rng, thetas.size, np.argmax(mag))
        ref = np.abs(oracle.linear_field(weights, 0.0, p["spacing"], p["waves"],
                                         thetas[rows], p["radius"], gamma=p["gamma"]))
        amp_sq = sum(A ** 2 for _, A in p["waves"])
        t.cmp("field_magnitude", mag[rows], ref, TOL)
        t.cmp("rcs", rcs[rows], _rcs(ref, p["radius"], amp_sq), TOL)
        rows_out = thetas.size
    else:
        sys_ = doc["system"]
        m = p["thetas"].size
        t.require(sys_["dimensions"] == {"outputs": m, "cells": n, "inputs": len(waves_rad)},
                  f"dimensions {sys_['dimensions']}")
        lam = 1.0
        ts = np.radians(p["thetas"])
        ti = np.array([w[0] for w in waves_rad])
        t.cmp("prefactor", complex(*sys_["prefactor"]), oracle.coupling(p["gamma"]) / lam, TOL)
        t.cmp("radii", np.asarray(sys_["radii"]), np.full(m, p["radius"]), TOL)
        t.cmp("scatter_theta", np.asarray(sys_["scatter_theta"]), ts, TOL)
        t.cmp("incident_theta", np.asarray(sys_["incident_theta"]), ti, TOL)
        t.cmp("scatter_knots", _cpairs(sys_["scatter_knots"]),
              np.exp(1j * oracle.TWO_PI * p["spacing"] * np.sin(ts) / lam), TOL)
        t.cmp("incident_knots", _cpairs(sys_["incident_knots"]),
              np.exp(1j * oracle.TWO_PI * p["spacing"] * np.sin(ti) / lam), TOL)
        t.cmp("range_diag", _cpairs(sys_["range_diag"]),
              np.full(m, np.exp(-2j * np.pi * p["radius"] / lam) / p["radius"]), TOL)
        t.cmp("cos_incident", np.asarray(sys_["cos_incident"]), np.cos(ti), TOL)
        weights = _cpairs(sys_["weights"])
        rows_out = m
    t.require(weights.shape == (n,), f"{weights.size} weights")
    t.cmp("weights", weights, p["w_true"], RESHAPE_TOL)
    achieved = oracle.point_source_field_rad(weights, p["spacing"], waves_rad,
                                             oracle.dft_grid(n), p["radius"], gamma=p["gamma"])
    t.require(np.linalg.norm(achieved - desired) <= RESHAPE_TOL * dnorm,
              "weights do not realize the desired pattern")
    return rows_out


# -- presets ----------------------------------------------------------------

N_CELLS, SPACING, CELL, R = 100, 0.5, 0.1, 100.0
STEER = (30.0, -50.0)
TWO_WAVES = ((30.0, 1.0), (70.0, 0.5))


def _preset_sweep(t, rng, path, weights, width, spacing, waves):
    data = _read_csv(path, SWEEP)
    thetas = np.linspace(-90.0, 90.0, 3601)
    t.require(data.shape[0] == thetas.size, f"{path}: {data.shape[0]} rows")
    rows = _sample(rng, thetas.size, np.argmax(data[:, 1]))
    ref = np.abs(oracle.linear_field(weights, width, spacing, waves, thetas[rows], R))
    t.cmp(f"{os.path.basename(path)} field", data[rows, 1], ref, TOL + PRINT)
    amp_sq = sum(A ** 2 for _, A in waves)
    t.cmp(f"{os.path.basename(path)} rcs", data[rows, 3], _rcs(ref, R, amp_sq), TOL + PRINT)
    return data.shape[0]


def _check_figure(fig, outdir, rng, t: _Tracker):
    limit = TOL + PRINT
    path = lambda name: os.path.join(outdir, name)  # noqa: E731
    area = CELL * CELL
    if fig == "fig2":
        rows = 0
        for name, phi in (("xoz", 0.0), ("yoz", 90.0)):
            data = _read_csv(path(f"fig2_{name}.csv"), ["theta_s_deg", "phi_s_deg", "rcs", "rcs_db"])
            t.require(data.shape[0] == 721, "fig2 rows")
            sel = _sample(rng, 721, np.argmax(data[:, 2]))
            ref = [oracle.patch_rcs(5.0, 5.0, 25.0, 0.0, 0.0, math.radians(abs(th)),
                                    math.radians(ph)) for th, ph in data[sel, :2]]
            t.cmp(f"fig2_{name} rcs", data[sel, 2], np.array(ref), limit)
            t.cmp(f"fig2_{name} phi", data[:, 1],
                  np.where(data[:, 0] >= 0, phi, phi - 180.0), limit)
            rows += 721
        return rows
    if fig == "fig4":
        data = _read_csv(path("fig4_field.csv"), ["theta_s_deg", "phi_s_deg",
                                                  "field_magnitude", "field_normalized"])
        t.require(data.shape[0] == 91 * 181, "fig4 rows")
        sel = _sample(rng, data.shape[0], np.argmax(data[:, 2]))
        waves = [(math.radians(15.0), math.radians(-45.0), 1.0),
                 (math.radians(45.0), math.radians(135.0), 0.5)]
        dirs = [(math.radians(a), math.radians(b)) for a, b in data[sel, :2]]
        ref = oracle.patch_field(5.0, 5.0, 25.0, waves, dirs, R)
        t.cmp("fig4 field", data[sel, 2], ref, limit)
        t.cmp("fig4 normalized", data[sel, 3], data[sel, 2] / data[:, 2].max(), limit)
        return data.shape[0]
    if fig == "fig5":
        data = _read_csv(path("fig5.csv"), ["theta_s_deg", "expected_rcs",
                                            "expected_rcs_db", "sampled_rcs_seed0"])
        t.require(data.shape[0] == 361, "fig5 rows")
        sel = _sample(rng, 361, np.argmax(data[:, 3]))
        # with r = 1 and unit amplitude, 4 pi |E|^2 is the bistatic RCS
        expected = 4.0 * np.pi * oracle.linear_expected_power(
            area, CELL, N_CELLS, [(STEER[0], 1.0)], data[sel, 0], 1.0)
        t.cmp("fig5 expected", data[sel, 1], expected, limit)
        weights = area * np.exp(1j * oracle.binary_phases(N_CELLS, 0))
        sampled = 4.0 * np.pi * np.abs(oracle.linear_field(
            weights, CELL, SPACING, [(STEER[0], 1.0)], data[sel, 0], 1.0)) ** 2
        t.cmp("fig5 sampled", data[sel, 3], sampled, limit)
        return 361
    if fig == "fig6":
        rows = 0
        for spacing, tag in ((0.5, "d05"), (0.7, "d07")):
            phases = oracle.compensation_phases(N_CELLS, spacing, *STEER)
            rows += _preset_sweep(t, rng, path(f"fig6_{tag}.csv"), area * np.exp(1j * phases),
                                  CELL, spacing, [(STEER[0], 1.0)])
        return rows
    if fig == "fig7a":
        phases = oracle.compensation_phases(N_CELLS, SPACING, *STEER)
        return _preset_sweep(t, rng, path("fig7a.csv"), area * np.exp(1j * phases), CELL,
                             SPACING, list(TWO_WAVES))
    if fig == "fig7b":
        with open(path("fig7b_weights.json"), encoding="utf-8") as fh:
            sol = json.load(fh)
        weights = _cpairs(sol["weights"])
        data = _read_csv(path("fig7b.csv"), ["theta_s_deg", "field_magnitude",
                                             "field_magnitude_db"])
        t.require(data.shape[0] == 3601, "fig7b rows")
        sel = _sample(rng, 3601, np.argmax(data[:, 1]))
        ref = np.abs(oracle.linear_field(weights, 0.0, SPACING, list(TWO_WAVES),
                                         data[sel, 0], R))
        t.cmp("fig7b field", data[sel, 1], ref, limit)
        grid = oracle.dft_grid(N_CELLS)
        comp = area * np.exp(1j * oracle.compensation_phases(N_CELLS, SPACING, *STEER))
        desired = oracle.point_source_field_rad(comp, SPACING, [(math.radians(STEER[0]), 1.0)],
                                                grid, R)
        achieved = oracle.point_source_field_rad(
            weights, SPACING, [(math.radians(a), A) for a, A in TWO_WAVES], grid, R)
        t.require(np.linalg.norm(achieved - desired) <= RESHAPE_TOL * np.linalg.norm(desired),
                  "fig7b weights do not realize the target")
        with open(path("fig7b_system.json"), encoding="utf-8") as fh:
            sys_ = json.load(fh)
        t.cmp("fig7b knots", _cpairs(sys_["scatter_knots"]),
              np.exp(1j * oracle.TWO_PI * SPACING * np.sin(grid)), TOL)
        return 3601
    if fig in ("fig8", "fig9"):
        delta_to = STEER if fig == "fig9" else (0.0, 0.0)
        weights = area * np.exp(1j * oracle.compensation_phases(N_CELLS, SPACING, *delta_to))
        data = _read_csv(path(f"{fig}_steering.csv"), ["theta_i_deg", "theta_s_deg",
                                                       "steering_magnitude", "rcs"])
        t.require(data.shape[0] == 181 * 181, f"{fig} rows")
        sel = _sample(rng, data.shape[0], np.argmax(data[:, 2]))
        steer = np.array([oracle.linear_steering(weights, 0.0, SPACING, ti, ts)
                          for ti, ts in data[sel, :2]])
        t.cmp(f"{fig} steering", data[sel, 2], np.abs(steer), limit)
        rcs = 4.0 * np.pi * np.cos(np.radians(data[sel, 0])) ** 2 * np.abs(steer) ** 2
        t.cmp(f"{fig} rcs", data[sel, 3], rcs, limit)
        return data.shape[0]
    raise Mismatch(f"no reference for {fig}")


def _check_reproduce(job, rng, t: _Tracker, stdout: str):
    fig = job.params["figure"]
    manifest = json.loads(stdout)
    t.require(manifest.get("figure") == fig, "manifest names another figure")
    for name in manifest["files"]:
        t.require(os.path.isfile(os.path.join(job.out, name)), f"missing {name}")
    return _check_figure(fig, job.out, rng, t)


def output_bytes(job) -> int:
    if os.path.isdir(job.out):
        return sum(os.path.getsize(f) for f in glob.glob(os.path.join(job.out, "*")))
    return os.path.getsize(job.out) if os.path.exists(job.out) else 0


def check_job(job, rng, stdout: str = "") -> Verdict:
    """Compare one finished job's output with the oracle."""
    t = _Tracker()
    nbytes = output_bytes(job)
    try:
        if job.kind == "reproduce":
            rows = _check_reproduce(job, rng, t, stdout)
        elif job.kind in ("reshape", "mimo"):
            rows = _check_reshape(job, rng, t)
        else:
            rows = _check_sweep_csv(job, rng, t)
    except (Mismatch, OSError, ValueError, KeyError, TypeError) as exc:
        return Verdict(False, t.worst, 0, nbytes, f"{job.slot}: {exc}")
    return Verdict(True, t.worst, rows, nbytes, t.where)
