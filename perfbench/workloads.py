"""Seeded inputs for the four workloads.

A workload is a fixed list of job slots. A slot fixes everything that sets a
job's cost (command, cell count, wave count, angle count, scheme), so the work
per round does not depend on the seed. The seed draws everything else: angles,
amplitudes, spacings, radii, cell layouts, phases, reflection coefficients,
random-scheme seeds and reshape targets, plus the order of the jobs in each
round. Each slot gets VARIANTS distinct input files; round k uses variant
k % VARIANTS, so consecutive rounds never repeat an input.

Every file is written with paths relative to the work directory, so the same
seed gives byte-identical files wherever they are generated.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import oracle

WORKLOADS = ("linear-sweep", "reshape", "planar-patch", "reproduce")
VARIANTS = 3
FIGURES = ("fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9")

# Whole rounds one run measures at the reference run length. The count is
# fixed, not timed, so that every run takes its percentiles over the same
# sample whatever the shared machine's speed at the time; --seconds scales it.
# Each count puts the job_tail_s rank (the 11th slowest job) inside one class
# of equal-cost jobs, not on the edge between two:
#   linear-sweep  6 x 11 jobs: 11th of the 18 n1000 jobs
#   reshape       6 x 8 jobs:  11th of the 12 n1024 jobs (the n512 jobs take a fifth as long)
#   planar-patch  5 x 9 jobs:  6th of the 10 one-wave 1024-cell jobs (5 two-wave ones above)
#   reproduce     4 x 8 jobs:  3rd of the 4 fig4 jobs (8 fig8/fig9 jobs above)
REFERENCE_SECONDS = 20
ROUNDS = {"linear-sweep": 6, "reshape": 6, "planar-patch": 5, "reproduce": 4}


def rounds_for(workload: str, seconds: float, minimum: int = 1) -> int:
    """Whole rounds a run of `seconds` measures."""
    return max(minimum, round(ROUNDS[workload] * seconds / REFERENCE_SECONDS))


@dataclass
class Job:
    """One CLI call plus what the output check needs to know about it."""

    slot: str
    argv: list
    out: str                 # output file, or output directory for reproduce
    kind: str                # linear | expect | montecarlo | reshape | mimo | planar | patch | reproduce
    params: dict = field(default_factory=dict)


def yfloat(x: float) -> str:
    """A YAML float literal that PyYAML reads back as exactly x."""
    text = repr(float(x))
    if "e" in text or "." not in text:
        text = f"{x:.17e}"
    return text


def _grid_yaml(count, phi=None):
    extra = f", phi_deg: {yfloat(phi)}" if phi is not None else ""
    return f"  grid: {{start_deg: -90.0, stop_deg: 90.0, count: {count}{extra}}}\n"


def _points_yaml(thetas):
    rows = "".join(f"    - {{theta_deg: {yfloat(t)}}}\n" for t in thetas)
    return "  points:\n" + rows


def _wave_yaml(gamma):
    return ("wave:\n  wavelength: 1.0\n"
            f"  gamma: [{yfloat(gamma.real)}, {yfloat(gamma.imag)}]\n")


def _write(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _gamma(rng) -> complex:
    return complex(round(rng.uniform(-1.0, -0.6), 4), round(rng.uniform(-0.3, 0.3), 4))


# ---------------------------------------------------------------------------
# linear-sweep
# ---------------------------------------------------------------------------

# (slot, command, cells, waves, angles, grid?, scheme, trials)
LINEAR_SLOTS = (
    ("n1000-none", "sweep", 1000, 1, 3601, True, "none", None),
    ("n1000-comp", "linear-field", 1000, 1, 3601, True, "compensate", None),
    ("n1000-rand", "sweep", 1000, 1, 3601, True, "random", None),
    ("n8192-comp", "linear-field", 8192, 1, 361, False, "compensate", None),
    ("n100-comp2", "sweep", 100, 2, 3601, True, "compensate", None),
    ("n100-expect", "linear-field", 100, 1, 3601, True, "expectation", None),
    ("n100-mc", "sweep", 100, 1, 3601, True, "random", 100),
    ("n100-pts3", "linear-field", 100, 3, 361, False, "none", None),
    ("n16-none", "sweep", 16, 1, 3601, True, "none", None),
    ("n16-pts3", "linear-field", 16, 3, 1201, False, "random", None),
    ("n16-mc2", "linear-field", 16, 2, 181, False, "random", 500),
)


def _linear_job(rng, tag, slot):
    name, cmd, n, n_waves, count, grid, scheme, trials = slot
    gamma = _gamma(rng)
    spacing = round(rng.uniform(0.5, 0.8), 3)
    radius = round(rng.uniform(50.0, 200.0), 2)
    if scheme == "expectation":
        # wide cells, one wave: the exact sinc-aware expectation applies
        a, b = round(rng.uniform(0.25, 0.45), 3), round(rng.uniform(0.25, 0.45), 3)
    else:
        a, b = round(rng.uniform(0.05, 0.15), 3), round(rng.uniform(0.05, 0.15), 3)
    waves = [(round(rng.uniform(-80.0, 80.0), 4), round(rng.uniform(0.3, 1.5), 4))
             for _ in range(n_waves)]
    if grid:
        thetas = np.linspace(-90.0, 90.0, count)
        obs = _grid_yaml(count)
    else:
        pts = np.round(rng.uniform(-90.0, 90.0, count), 6)
        thetas = pts
        obs = _points_yaml(pts)
    text = (_wave_yaml(gamma)
            + f"geometry: {{kind: linear, n: {n}, spacing: {yfloat(spacing)}, "
              f"a: {yfloat(a)}, b: {yfloat(b)}}}\n"
            + "incident:\n"
            + "".join(f"  - {{theta_deg: {yfloat(t)}, amplitude: {yfloat(A)}}}\n"
                      for t, A in waves)
            + f"observation:\n  radius: {yfloat(radius)}\n" + obs)
    area = a * b
    phases = np.zeros(n)
    rand_seed = int(rng.integers(0, 2 ** 31))
    argv_extra = []
    if scheme == "compensate":
        ts = round(rng.uniform(-80.0, 80.0), 4)
        text += (f"configure: {{scheme: compensate, theta_i_deg: {yfloat(waves[0][0])}, "
                 f"theta_s_deg: {yfloat(ts)}}}\n")
        phases = oracle.compensation_phases(n, spacing, waves[0][0], ts)
    elif scheme in ("random", "expectation"):
        expect = "true" if scheme == "expectation" else "false"
        text += f"configure: {{scheme: random, seed: {rand_seed}, expectation: {expect}}}\n"
        if trials is not None:
            # the override path: --seed replaces the scenario's seed
            rand_seed = int(rng.integers(0, 2 ** 31))
            argv_extra = ["--seed", str(rand_seed), "--trials", str(trials)]
        elif scheme == "random":
            phases = oracle.binary_phases(n, rand_seed)
    path = f"in/{tag}.yaml"
    _write(path, text)
    out = f"out/{tag}.csv"
    kind = ("montecarlo" if trials is not None
            else "expect" if scheme == "expectation" else "linear")
    params = dict(n=n, spacing=spacing, area=area, width=b, gamma=gamma,
                  radius=radius, waves=waves, thetas=np.asarray(thetas, dtype=float),
                  weights=area * np.exp(1j * phases), trials=trials, seed=rand_seed)
    return Job(name, [cmd, path, "--out", out] + argv_extra, out, kind, params)


# ---------------------------------------------------------------------------
# reshape
# ---------------------------------------------------------------------------

# (slot, command, cells, waves)
RESHAPE_SLOTS = (
    ("n1024-sweep", "sweep", 1024, 1),
    ("n1024-mimo", "mimo", 1024, 2),
    ("n512-sweep1", "sweep", 512, 1),
    ("n512-sweep2", "sweep", 512, 2),
    ("n512-mimo", "mimo", 512, 1),
    ("n128-sweep1", "sweep", 128, 1),
    ("n128-sweep2", "sweep", 128, 2),
    ("n128-mimo", "mimo", 128, 2),
)
RESHAPE_ANGLES = 721


def _reshape_job(rng, tag, slot):
    name, cmd, n, n_waves = slot
    gamma = _gamma(rng)
    radius = round(rng.uniform(50.0, 200.0), 2)
    # the regular scatter grid is a DFT only at half-wavelength spacing
    spacing = 0.5
    t0 = round(rng.uniform(-50.0, 50.0), 4)
    waves = [(t0, round(rng.uniform(0.5, 1.5), 4))]
    if n_waves == 2:
        # a weak second wave keeps every cell's aggregated excitation away
        # from zero, so the generating weights are recoverable
        waves.append((round(rng.uniform(-80.0, 80.0), 4),
                      round(waves[0][1] * rng.uniform(0.05, 0.3), 4)))
    w_true = (np.round(rng.uniform(0.005, 0.02, n), 6)
              * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n)))
    waves_rad = [(math.radians(t), A) for t, A in waves]
    desired = oracle.point_source_field_rad(w_true, spacing, waves_rad,
                                            oracle.dft_grid(n), radius, gamma=gamma)
    desired_path = f"in/{tag}.desired.json"
    with open(desired_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump({"desired": [[float(z.real), float(z.imag)] for z in desired]}, fh)
        fh.write("\n")
    text = (_wave_yaml(gamma)
            + f"geometry: {{kind: linear, n: {n}, spacing: {yfloat(spacing)}, "
              "a: 0.1, b: 0.1}\n"
            + "incident:\n"
            + "".join(f"  - {{theta_deg: {yfloat(t)}, amplitude: {yfloat(A)}}}\n"
                      for t, A in waves)
            + f"observation:\n  radius: {yfloat(radius)}\n" + _grid_yaml(RESHAPE_ANGLES)
            + f"configure: {{scheme: reshape, desired_pattern_file: {desired_path}}}\n")
    path = f"in/{tag}.yaml"
    _write(path, text)
    out = f"out/{tag}.json"
    params = dict(n=n, spacing=spacing, gamma=gamma, radius=radius, waves=waves,
                  thetas=np.linspace(-90.0, 90.0, RESHAPE_ANGLES), w_true=w_true,
                  desired=desired)
    if cmd == "sweep":
        return Job(name, ["sweep", path, "--format", "json", "--out", out], out,
                   "reshape", params)
    return Job(name, ["mimo", path, "--out", out], out, "mimo", params)


# ---------------------------------------------------------------------------
# planar-patch
# ---------------------------------------------------------------------------

# (slot, command, cells or None for a patch, waves, angles)
PLANAR_SLOTS = (
    ("cells1024-w1a", "array-field", 1024, 1, 361),
    ("cells1024-w2", "array-field", 1024, 2, 361),
    ("cells1024-w1b", "array-field", 1024, 1, 361),
    ("cells512-w2", "array-field", 512, 2, 361),
    ("cells256-w1", "array-field", 256, 1, 361),
    ("cells256-w2", "array-field", 256, 2, 361),
    ("patch-w1", "patch-rcs", None, 1, 3601),
    ("patch-w2a", "patch-rcs", None, 2, 3601),
    ("patch-w2b", "patch-rcs", None, 2, 3601),
)


def _planar_job(rng, tag, slot):
    name, cmd, cells, n_waves, count = slot
    gamma = _gamma(rng)
    radius = round(rng.uniform(50.0, 200.0), 2)
    phi_cut = round(rng.uniform(-180.0, 180.0), 4)
    waves = [(round(rng.uniform(0.0, 80.0), 4), round(rng.uniform(-180.0, 180.0), 4),
              round(rng.uniform(0.3, 1.5), 4)) for _ in range(n_waves)]
    incident = "incident:\n" + "".join(
        f"  - {{theta_deg: {yfloat(t)}, phi_deg: {yfloat(p)}, amplitude: {yfloat(A)}}}\n"
        for t, p, A in waves)
    observation = f"observation:\n  radius: {yfloat(radius)}\n" + _grid_yaml(count, phi_cut)
    params = dict(gamma=gamma, radius=radius, phi_cut=phi_cut, waves=waves,
                  thetas=np.linspace(-90.0, 90.0, count))
    if cells is None:
        a, b = round(rng.uniform(1.0, 8.0), 3), round(rng.uniform(1.0, 8.0), 3)
        area = round(a * b * rng.uniform(0.8, 1.0), 4)
        geometry = (f"geometry: {{kind: patch, a: {yfloat(a)}, b: {yfloat(b)}, "
                    f"area: {yfloat(area)}}}\n")
        params.update(a=a, b=b, area=area)
        kind = "patch"
    else:
        side = int(math.ceil(math.sqrt(cells)))
        idx = np.arange(cells)
        pitch = 0.5
        pos = np.stack([(idx % side) * pitch + rng.uniform(-0.05, 0.05, cells),
                        (idx // side) * pitch + rng.uniform(-0.05, 0.05, cells),
                        rng.uniform(-0.05, 0.05, cells)], axis=1).round(6)
        a = rng.uniform(0.2, 0.45, cells).round(4)
        b = rng.uniform(0.2, 0.45, cells).round(4)
        phase = rng.uniform(0.0, 2.0 * np.pi, cells).round(6)
        explicit_area = rng.random(cells) < 0.5
        area = np.where(explicit_area, (a * b * 0.9).round(6), a * b)
        rows = []
        for i in range(cells):
            area_txt = f", area: {yfloat(area[i])}" if explicit_area[i] else ""
            rows.append(f"    - {{position: [{yfloat(pos[i, 0])}, {yfloat(pos[i, 1])}, "
                        f"{yfloat(pos[i, 2])}], a: {yfloat(a[i])}, b: {yfloat(b[i])}"
                        f"{area_txt}, phase: {yfloat(phase[i])}}}\n")
        geometry = "geometry:\n  kind: planar\n  cells:\n" + "".join(rows)
        params.update(positions=pos, a=a, b=b, area=area, phase=phase)
        kind = "planar"
    path = f"in/{tag}.yaml"
    _write(path, _wave_yaml(gamma) + geometry + incident + observation)
    out = f"out/{tag}.csv"
    return Job(name, [cmd, path, "--out", out], out, kind, params)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------

def _reproduce_job(rng, tag, figure):
    out = f"out/{tag}"
    return Job(figure, ["reproduce", figure, "--out", out], out, "reproduce",
               dict(figure=figure))


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------

def _slots(workload):
    if workload == "linear-sweep":
        return LINEAR_SLOTS, _linear_job
    if workload == "reshape":
        return RESHAPE_SLOTS, _reshape_job
    if workload == "planar-patch":
        return PLANAR_SLOTS, _planar_job
    if workload == "reproduce":
        return FIGURES, _reproduce_job
    raise ValueError(f"unknown workload {workload!r}")


def generate(workload: str, seed: int, workdir: str) -> list[list[Job]]:
    """Write the workload's inputs under workdir; return one job list per variant.

    The caller must have made workdir the current directory: every path in
    the files and in the job argv is relative to it.
    """
    if os.path.abspath(workdir) != os.getcwd():
        raise RuntimeError("generate() expects workdir to be the current directory")
    os.makedirs("in", exist_ok=True)
    os.makedirs("out", exist_ok=True)
    slots, make = _slots(workload)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    variants = []
    for v in range(VARIANTS):
        jobs = []
        for i, slot in enumerate(slots):
            name = slot if isinstance(slot, str) else slot[0]
            jobs.append(make(rng, f"v{v}-{i:02d}-{name}", slot))
        variants.append(jobs)
    return variants


def round_order(seed: int, workload: str, round_index: int, size: int) -> list[int]:
    """Seeded job order for one round."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), 1000 + round_index])
    return [int(i) for i in rng.permutation(size)]


def warmup_inputs(workload: str) -> list[list[str]]:
    """Tiny jobs of the workload's own commands, written under warm/.

    They pay the first-call costs (imports inside the library, NumPy and
    BLAS initialization) that set-up time includes. Same for every seed.
    """
    os.makedirs("warm", exist_ok=True)
    lin = ("geometry: {kind: linear, n: 64, spacing: 0.5, a: 0.1, b: 0.1}\n"
           "incident:\n  - {theta_deg: 20.0, amplitude: 1.0}\n"
           "  - {theta_deg: -35.0, amplitude: 0.1}\n"
           "observation:\n  grid: {start_deg: -90.0, stop_deg: 90.0, count: 9}\n")
    jobs = []
    if workload == "linear-sweep":
        _write("warm/lin.yaml", lin + "configure: {scheme: compensate, "
               "theta_i_deg: 20.0, theta_s_deg: -40.0}\n")
        _write("warm/rand.yaml", lin + "configure: {scheme: random, seed: 1}\n")
        _write("warm/exp.yaml", lin.replace("\n  - {theta_deg: -35.0, amplitude: 0.1}", "")
               .replace("a: 0.1, b: 0.1", "a: 0.3, b: 0.3")
               + "configure: {scheme: random, seed: 1, expectation: true}\n")
        jobs = [["sweep", "warm/lin.yaml", "--out", "warm/lin.csv"],
                ["linear-field", "warm/rand.yaml", "--out", "warm/rand.csv"],
                ["sweep", "warm/rand.yaml", "--trials", "5", "--out", "warm/mc.csv"],
                ["sweep", "warm/exp.yaml", "--out", "warm/exp.csv"]]
    if workload in ("reshape", "reproduce"):
        grid = oracle.dft_grid(64)
        desired = np.exp(1j * 3.0 * grid) * 1e-3
        with open("warm/desired.json", "w", encoding="utf-8") as fh:
            json.dump({"desired": [[float(z.real), float(z.imag)] for z in desired]}, fh)
        _write("warm/reshape.yaml", lin + "configure: {scheme: reshape, "
               "desired_pattern_file: warm/desired.json}\n")
        jobs += [["sweep", "warm/reshape.yaml", "--format", "json", "--out", "warm/r.json"],
                 ["mimo", "warm/reshape.yaml", "--out", "warm/m.json"]]
    if workload == "planar-patch":
        _write("warm/planar.yaml",
               "geometry:\n  kind: planar\n  cells:\n"
               "    - {position: [0.0, 0.0, 0.0], a: 0.4, b: 0.4, phase: 0.5}\n"
               "    - {position: [0.5, 0.0, 0.0], a: 0.4, b: 0.4}\n"
               "incident:\n  - {theta_deg: 20.0, phi_deg: 30.0}\n"
               "observation:\n  grid: {start_deg: -90.0, stop_deg: 90.0, count: 9, phi_deg: 10.0}\n")
        _write("warm/patch.yaml",
               "geometry: {kind: patch, a: 2.0, b: 3.0}\n"
               "incident:\n  - {theta_deg: 20.0, phi_deg: 30.0}\n"
               "observation:\n  grid: {start_deg: -90.0, stop_deg: 90.0, count: 9, phi_deg: 10.0}\n")
        jobs += [["array-field", "warm/planar.yaml", "--out", "warm/p.csv"],
                 ["patch-rcs", "warm/patch.yaml", "--out", "warm/q.csv"]]
    if workload == "reproduce":
        jobs += [["reproduce", "fig2", "--out", "warm/rep"],
                 ["reproduce", "fig5", "--out", "warm/rep"]]
    return jobs
