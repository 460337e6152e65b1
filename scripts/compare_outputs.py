#!/usr/bin/env python3
"""Compare what two source trees of risem write, on one fixed corpus of CLI runs.

    python scripts/compare_outputs.py OLD_TREE NEW_TREE

Each tree runs the corpus in a child process with PYTHONPATH=<tree>/src and a
fresh working directory: every figure preset; `sweep` as CSV and JSON, `mimo`
and `configure` as CSV and JSON over the scenario kinds below, among them
compensated linear sweeps of 1000 cells (summed in blocks) and 8192 cells
(summed per cell), planar files of 65, 129 and 1024 cells (the rows of a
table are one match), a 1024-cell file with its cell keys shuffled and a
third of its numbers in exponent form (read by the row reader), the same
file with a comment line inside its cell table and with CRLF line ends (both
read by the event pass alone), a 256-cell one-line JSON file,
a 256-cell file with a '!' in a comment, one with a merged cell, one with a
cell shared by alias, a 256-cell table of one-line rows under an anchored key
that a later key aliases (read by the Python loader), the 1024-cell file
followed by an anchored `output: &o {format: csv}` (read by the Python loader
alone), the 1024-cell table beside a table of 160 scatter points whose rows
each repeat theta_deg (the point table read by the event pass), one with
quoted keys and values, a 64-cell file at normal incidence on the phi = 0 cut
(whose rows with theta >= 0 the factored cell sum leaves to the per-term sum),
a linear file of 1200 scatter points with phi_deg written first on a third of
its rows (read by the row reader), a linear sweep with no incident wave (every
value column 0 or -inf, each written by the CSV writer's '%.12g' fallback; and
as JSON, with a null for every dB value), a linear sweep at a radius of 1e150
(magnitudes near 1e-152, with three-digit exponents, and dB values near -3040;
and as JSON, whose magnitudes are written in scientific form), a 1024-cell
Monte Carlo sweep of 300 trials (its mean taken from lag correlations over many
trial blocks), a two-wave Monte Carlo sweep of 300 trials, two blocks of 256 and
44, at the seed 2^96 + 11 (four entropy words, so five with the trial index), a
three-wave expectation sweep, a two-wave expectation sweep of 8192 cells as JSON (whose
Gram matrix entries between the waves are summed per cell, past the blocked
sum's bound) and a two-wave expectation at one incident angle (whose Gram
matrix entries are all equal); and a fixed list of malformed inputs, among
them an empty stream, a second document, a block text 3000 levels deep, a
one-line flow text 5000 levels deep, a 2000-deep one after a tab that only
libyaml reads, the 1200-point file with a point outside the linear range, a
129-cell file whose 65th cell has a null area, a radius of 1e200, whose
square overflows, a radius of 1e-300, whose square underflows to 0, in an expectation sweep and a Monte Carlo sweep, a reshape
whose desired pattern of 1e10 an amplitude of 1e-300 cannot reach, Monte
Carlo trials asked of an expectation scenario, a linear `n` of 10 000 items
(long-value) and a patch geometry with 30 unknown keys (many-unknown-keys),
each refused in one short line; and a reshape whose desired-pattern file
holds a string of brackets beside its pairs, which is read.
Every output file, and the exit code, stdout and stderr of every run, is
reported as identical, or with the largest deviation of each numeric CSV
column or JSON field that moved, relative to that column's largest
magnitude; for CSV, also the part beyond one unit of the 12th significant
digit that it prints, and for a JSON field smaller than its document, also
relative to the document's largest magnitude. Each run of NEW_TREE must also
keep the CLI's contract (contract_faults): it exits 0, 2 or 3, and an exit of
2 or 3 writes exactly one stderr line and nothing to stdout. A run that
raises, such as under PYTHONWARNINGS=error::RuntimeWarning where the CLI
warns, breaks it. The exit status is 0 when every output is identical and
every run of NEW_TREE keeps the contract, and 1 otherwise.

No digests are stored: last-bit rounding depends on libm and BLAS, so only two
trees run on one machine can be compared.
"""
import argparse
import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile

import yaml


def linear(spacing=0.5, width=0.1, incident="[{theta_deg: 30.0}]", n=16, count=181):
    """A linear scenario text of n cells over count scatter angles; b is the cell width."""
    return (f"geometry: {{kind: linear, n: {n}, spacing: {spacing}, a: 0.1, b: {width}}}\n"
            f"incident: {incident}\n"
            "observation: {radius: 100.0, grid: {start_deg: -90.0, stop_deg: 90.0, "
            f"count: {count}}}}}\n")


def planar_cells(count=1024, null_area_at=None):
    """Seeded cell rows in the benchmark's flow layout, every other one with an area.

    The cell at null_area_at gives its area as null, which the reader refuses.
    """
    rng, rows = random.Random(7), []
    for i in range(count):
        x, y, z = ((i % 32) * 0.5 + rng.uniform(-0.05, 0.05),
                   (i // 32) * 0.5 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        a, b = round(rng.uniform(0.2, 0.45), 4), round(rng.uniform(0.2, 0.45), 4)
        area = ", area: ~" if i == null_area_at else (
            f", area: {round(a * b * 0.9, 6)}" if i % 2 else "")
        rows.append(f"    - {{position: [{x:.6f}, {y:.6f}, {z:.6f}], a: {a}, b: {b}{area}, "
                    f"phase: {rng.uniform(0.0, 6.28):.6f}}}\n")
    return "geometry:\n  kind: planar\n  cells:\n" + "".join(rows)


def shuffled_cells(count=1024):
    """Seeded cell rows with their keys in a shuffled order and a third of the numbers as '%.17e'.

    Every other cell has an area. The rows are those the row reader reads.
    """
    rng, rows = random.Random(11), []

    def number(v):
        return f"{v:.17e}" if rng.random() < 1 / 3 else f"{v:.6f}"

    for i in range(count):
        x, y, z = ((i % 32) * 0.5 + rng.uniform(-0.05, 0.05),
                   (i // 32) * 0.5 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        a, b = rng.uniform(0.2, 0.45), rng.uniform(0.2, 0.45)
        items = [f"position: [{number(x)}, {number(y)}, {number(z)}]", f"a: {number(a)}",
                 f"b: {number(b)}", f"phase: {number(rng.uniform(0.0, 6.28))}"]
        if i % 2:
            items.append(f"area: {number(a * b * 0.9)}")
        rng.shuffle(items)
        rows.append("    - {" + ", ".join(items) + "}\n")
    return rows


def shuffled_points(count=1200, outside_at=None):
    """A linear scenario of count seeded scatter points, as the row reader reads them.

    Every third row writes phi_deg first, as '{phi_deg: 0.0, theta_deg: x}', and
    a fifth of the angles are in '%.17e' form. The point at outside_at lies at
    95 deg, which a linear array refuses.
    """
    rng, rows = random.Random(13), []
    for i in range(count):
        theta = 95.0 if i == outside_at else rng.uniform(-90.0, 90.0)
        theta = f"{theta:.17e}" if rng.random() < 0.2 else f"{theta:.6f}"
        rows.append(f"    - {{phi_deg: 0.0, theta_deg: {theta}}}\n" if i % 3 == 0
                    else f"    - {{theta_deg: {theta}}}\n")
    return ("geometry: {kind: linear, n: 16, spacing: 0.7, a: 0.1, b: 0.1}\n"
            "incident:\n  - {theta_deg: 30.0, amplitude: 1.0}\n  - {theta_deg: -45.0}\n"
            "observation:\n  radius: 100.0\n  points:\n" + "".join(rows)
            + "configure: {scheme: random, seed: 5}\n")


PLANAR_TAIL = ("incident: [{theta_deg: 20.0, phi_deg: 30.0}]\n"
               "observation: {radius: 50.0, grid: {start_deg: -90.0, stop_deg: 90.0, count: 91, "
               "phi_deg: 15.0}}\n")
TWO_WAVES = "[{theta_deg: 30.0}, {theta_deg: -20.0, amplitude: 0.6}]"
THREE_WAVES = ("[{theta_deg: 30.0}, {theta_deg: -20.0, amplitude: 0.6}, "
               "{theta_deg: 65.0, amplitude: 1.4}]")
COMPENSATE = "configure: {scheme: compensate, theta_i_deg: 30.0, theta_s_deg: -50.0}\n"
# a few cells and angles each, so the corpus runs in seconds
SCENARIOS = {
    "planar.yaml": (
        "geometry:\n  kind: planar\n  cells:\n"
        + "".join(f"    - {{position: [{x}, {y}, 0.0], a: 0.4, b: 0.4, phase: {0.3 * (x + 2 * y)}}}\n"
                  for x in range(3) for y in range(3))
        + "incident: [{theta_deg: 20.0, phi_deg: 30.0}, {theta_deg: 40.0, amplitude: 0.5}]\n"
          "observation: {radius: 50.0, grid: {start_deg: -90.0, stop_deg: 90.0, count: 91}}\n"),
    "planar_1024.yaml": planar_cells() + PLANAR_TAIL,
    "planar_shuffled.yaml": "geometry:\n  kind: planar\n  cells:\n" + "".join(shuffled_cells())
    + PLANAR_TAIL,
    # a comment line inside the cell table, and CRLF line ends: the row reader leaves both
    "planar_shuffled_comment.yaml": "geometry:\n  kind: planar\n  cells:\n"
    + "".join(shuffled_cells()[:500] + ["    # the second half\n"] + shuffled_cells()[500:])
    + PLANAR_TAIL,
    "planar_shuffled_crlf.yaml": ("geometry:\n  kind: planar\n  cells:\n"
                                  + "".join(shuffled_cells()) + PLANAR_TAIL).replace("\n", "\r\n"),
    # JSON is YAML: one line, as json.dumps writes it
    "planar_json.yaml": json.dumps(yaml.safe_load(planar_cells(256) + PLANAR_TAIL)),
    # a '!' that is no tag
    "planar_note.yaml": "# note!\n" + planar_cells(256) + PLANAR_TAIL,
    # an anchored cell, merged into the cells after it ('<<')
    "planar_merge.yaml": (
        "geometry:\n  kind: planar\n  cells:\n"
        "    - &base {position: [0.0, 0.0, 0.0], a: 0.4, b: 0.3, phase: 0.5}\n"
        "    - {<<: *base, position: [0.5, 0.0, 0.0]}\n"
        "    - <<: *base\n      position: [0.0, 0.5, 0.0]\n      area: 0.1\n"
        + PLANAR_TAIL),
    # one anchored cell mapping, shared by alias with a later cell (no '<<')
    "planar_shared.yaml": (
        "geometry:\n  kind: planar\n  cells:\n"
        "    - &cell {position: [0.0, 0.0, 0.0], a: 0.4, b: 0.3, phase: 0.5}\n"
        "    - {position: [0.5, 0.0, 0.0], a: 0.3, b: 0.4, area: 0.1}\n"
        "    - *cell\n"
        + PLANAR_TAIL),
    # a table of one-line rows under an anchored key, aliased by the same key written again
    # (the later value is read): the anchor leaves the whole text to the Python loader
    "planar_anchored.yaml": planar_cells(256).replace("  cells:\n", "  cells: &c\n")
    + "  cells: *c\n" + PLANAR_TAIL,
    # an anchor after a table of one-line rows: the Python loader reads the whole text
    "planar_1024_anchored_output.yaml": planar_cells() + PLANAR_TAIL
    + "output: &o {format: csv}\n",
    # point rows that each repeat a key stay in the text beside the cut cell table, and
    # the later theta_deg of each row is read
    "planar_1024_repeated_points.yaml": planar_cells()
    + "incident: [{theta_deg: 20.0, phi_deg: 30.0}]\n"
    "observation:\n  radius: 50.0\n  points:\n"
    + "".join(f"    - {{theta_deg: {t}.0, phi_deg: 15.0, theta_deg: {t + 1}.0}}\n"
              for t in range(-80, 80)),
    # quoted keys and quoted string values
    "quoted.yaml": ('"geometry": {\'kind\': "patch", "a": 2.0, \'b\': 1.5}\n'
                    "'incident': [{\"theta_deg\": 25.0, 'phi_deg': -40.0}]\n"
                    '"output": {"format": \'json\'}\n'),
    "patch.yaml": ("geometry: {kind: patch, a: 2.0, b: 1.5}\n"
                   "incident: [{theta_deg: 25.0, phi_deg: -40.0}]\n"
                   "observation: {radius: 80.0}\n"),
    "patch_no_waves.yaml": "geometry: {kind: patch, a: 2.0, b: 1.5}\n",
    "compensate.yaml": linear() + COMPENSATE,
    "compensate_points.yaml": (
        "geometry: {kind: linear, n: 24, spacing: 0.7, a: 0.1, b: 0.1}\n"
        "incident: [{theta_deg: 30.0}, {theta_deg: 70.0, amplitude: 0.5}]\n"
        "observation:\n  radius: 100.0\n  points:\n"
        + "".join(f"    - {{theta_deg: {t}.0}}\n" for t in range(-85, 86, 17))
        + COMPENSATE),
    # compensated sweeps whose largest cell angle is under the blocked sum's bound (about
    # 7500 rad) and over it (about 38 600 rad, summed per cell as perfbench/oracle.py does)
    "linear_1000.yaml": linear(0.8, n=1000, count=3601) + COMPENSATE,
    "linear_8192.yaml": linear(0.5, n=8192) + COMPENSATE,
    "linear_points_shuffled.yaml": shuffled_points(),
    # the CSV writer's rare layouts: every value column 0 or -inf, and three-digit exponents
    "linear_no_waves.yaml": linear(incident="[]"),
    "linear_far.yaml": linear().replace("radius: 100.0", "radius: 1.0e+150"),
    "random.yaml": linear() + "configure: {scheme: random, seed: 3}\n",
    "expectation.yaml": linear()
    + "configure: {scheme: random, expectation: true}\n",
    # two waves: Monte Carlo and the expectation sum over a wave axis
    "random_two_waves.yaml": linear(incident=TWO_WAVES) + "configure: {scheme: random, seed: 3}\n",
    "expectation_wide.yaml": linear(width=0.45, incident=TWO_WAVES)
    + "configure: {scheme: random, expectation: true}\n",
    # 1024 cells: the Monte Carlo mean's trial blocks hold 8 trials of 2048-point spectra
    "random_1024.yaml": linear(0.6, n=1024) + "configure: {scheme: random, seed: 7}\n",
    "expectation_three_waves.yaml": linear(0.7, width=0.3, incident=THREE_WAVES)
    + "configure: {scheme: random, expectation: true}\n",
    # the Gram entries between the waves reach a cell angle of about 34 700 rad, past the
    # blocked sum's bound, so they take the per-cell float64 phases
    "expectation_8192.yaml": linear(0.8, n=8192, incident=TWO_WAVES)
    + "configure: {scheme: random, expectation: true}\n",
    # two waves from one direction: every Gram entry is the diagonal's
    "expectation_one_angle.yaml": linear(
        0.7, width=0.3, incident="[{theta_deg: 30.0}, {theta_deg: 30.0, amplitude: 0.6}]")
    + "configure: {scheme: random, expectation: true}\n",
    "reshape05.yaml": linear()
    + "configure: {scheme: reshape, desired_pattern_file: desired.json}\n",
    "reshape06.yaml": linear(0.6)
    + "configure: {scheme: reshape, desired_pattern_file: desired.json}\n",
    "desired.json": json.dumps({"desired": [[math.cos(0.4 * k), math.sin(0.4 * k)]
                                            for k in range(16)]}),
    # malformed inputs
    "empty.yaml": "",
    "comment_only.yaml": "# a stream with no document\n",
    "two_documents.yaml": "geometry: {kind: patch, a: 1.0, b: 1.0}\n--- 2\n",
    "unknown_key.yaml": "geometry: {kind: patch, a: 1.0, b: 1.0, c: 2.0}\n",
    "bad_syntax.yaml": "geometry: [kind: patch\n",
    "outside.yaml": linear(incident="[{theta_deg: 95.0}]"),
    "huge_amplitude.yaml": "geometry: {kind: patch, a: 1.0, b: 1.0}\n"
                           "incident: [{theta_deg: 0.0, amplitude: 1.0e+308}]\n",
    "tagged.yaml": "geometry: {kind: patch, a: !!float x, b: 1.0}\n",
    # the first scalar the construction fails on is located, with its own reason
    "tagged_later.yaml": 'a: [!!float ""]\nb: !!int x\n',
    "tagged_nested.yaml": ("geometry: {kind: patch, a: 1, b: 1}\nwave: {gamma: [!!float , 1]}\n"
                           "output: {path: !!int x}\n"),
    # untagged: libyaml loads it and the timestamp constructor refuses it
    "bad_timestamp.yaml": "geometry: {kind: patch, a: 1, b: 1}\noutput: {path: 2020-13-45}\n",
    "deep_value.yaml": "geometry: {kind: patch, a: 1.0, b: " + "[" * 1500 + "]" * 1500 + "}\n",
    "deep_block.yaml": "geometry:\n" + "".join(" " * i + "-\n" for i in range(1, 3001))
    + " " * 3001 + "x\n",
    "deep_flow.yaml": "geometry: " + "[" * 5000 + "]" * 5000 + "\n",
    # a tab between flow items, which libyaml reads and the Python loader refuses
    "deep_flow_tab.yaml": "x: {a: 1,\tc: 2}\ngeometry: " + "[" * 2000 + "]" * 2000 + "\n",
    "planar_null_area.yaml": planar_cells(null_area_at=700) + PLANAR_TAIL,
    # tables just past 64 and 128 rows, and a refused 65th row
    "planar_65.yaml": planar_cells(65) + PLANAR_TAIL,
    "planar_129.yaml": planar_cells(129) + PLANAR_TAIL,
    "planar_129_null_area.yaml": planar_cells(129, null_area_at=64) + PLANAR_TAIL,
    "radius_overflow.yaml": linear().replace("radius: 100.0", "radius: 1.0e+200"),
    # r^2 underflows to 0, so the random-phase power is not finite
    "expectation_tiny_radius.yaml": linear().replace("radius: 100.0", "radius: 1.0e-300")
    + "configure: {scheme: random, expectation: true}\n",
    "random_tiny_radius.yaml": linear().replace("radius: 100.0", "radius: 1.0e-300")
    + "configure: {scheme: random, seed: 3}\n",
    # the reshape's weights leave the float range
    "reshape_out_of_reach.yaml": (
        "geometry: {kind: linear, n: 8, spacing: 0.5, a: 0.1, b: 0.1}\n"
        "incident: [{theta_deg: 0.0, amplitude: 1.0e-300}]\n"
        "observation: {radius: 100.0}\n"
        "configure: {scheme: reshape, desired_pattern_file: far_desired.json}\n"),
    "far_desired.json": json.dumps({"desired": [[1e10, 0.0]] * 8}),
    "linear_points_outside.yaml": shuffled_points(outside_at=700),
    # normal incidence on the phi = 0 cut: u_y is 0 on every row with theta >= 0 and about
    # 1e-16 on the rest, and u_x is 0 at theta = 0, so the factored cell sum leaves some
    # rows to the per-term sum
    "planar_normal.yaml": planar_cells(64) + "incident: [{theta_deg: 0.0}]\n"
    "observation: {radius: 50.0, grid: {start_deg: -90.0, stop_deg: 90.0, count: 181}}\n",
    "bad_desired.yaml": linear()
    + "configure: {scheme: reshape, desired_pattern_file: bad_desired.json}\n",
    "bad_desired.json": json.dumps({"desired": [[1.0, "x"]] * 16}),
    "long_value.yaml": linear().replace("n: 16",
                                        "n: [" + ", ".join(map(str, range(10_000))) + "]"),
    "many_unknown_keys.yaml": "geometry: {kind: patch, a: 1.0, b: 1.0, "
    + ", ".join(f"key_{i}: 1" for i in range(30)) + "}\n",
    # brackets in a string are no nesting: the file is read as desired.json is
    "reshape_brackets.yaml": linear()
    + "configure: {scheme: reshape, desired_pattern_file: brackets_desired.json}\n",
    "brackets_desired.json": json.dumps({"note": "[" * 5000 + "]" * 3000, "desired": [
        [math.cos(0.4 * k), math.sin(0.4 * k)] for k in range(16)]}),
}
FIGURES = ("fig2", "fig4", "fig5", "fig6", "fig7a", "fig7b", "fig8", "fig9")
RUNS = {
    **{f"reproduce-{fig}": ["reproduce", fig, "--out", "presets"] for fig in FIGURES},
    "sweep-compensate-csv": ["sweep", "compensate.yaml", "--out", "compensate.csv"],
    "sweep-compensate-json": ["sweep", "compensate.yaml", "--format", "json",
                              "--out", "compensate.json"],
    "mimo-compensate": ["mimo", "compensate.yaml", "--out", "compensate_mimo.json"],
    "configure-compensate-csv": ["configure", "compensate.yaml", "--format", "csv",
                                 "--out", "compensate_weights.csv"],
    "configure-compensate-json": ["configure", "compensate.yaml",
                                  "--out", "compensate_weights.json"],
    "sweep-planar": ["sweep", "planar.yaml", "--out", "planar.csv"],
    "sweep-planar-1024": ["sweep", "planar_1024.yaml", "--out", "planar_1024.csv"],
    "sweep-planar-65": ["sweep", "planar_65.yaml", "--out", "planar_65.csv"],
    "sweep-planar-129": ["sweep", "planar_129.yaml", "--out", "planar_129.csv"],
    "sweep-planar-shuffled": ["sweep", "planar_shuffled.yaml", "--out", "planar_shuffled.csv"],
    "sweep-planar-shuffled-comment": ["sweep", "planar_shuffled_comment.yaml",
                                      "--out", "planar_shuffled_comment.csv"],
    "sweep-planar-shuffled-crlf": ["sweep", "planar_shuffled_crlf.yaml",
                                   "--out", "planar_shuffled_crlf.csv"],
    "sweep-planar-json": ["sweep", "planar_json.yaml", "--format", "json",
                          "--out", "planar_json.json"],
    "sweep-planar-note": ["sweep", "planar_note.yaml", "--out", "planar_note.csv"],
    "sweep-planar-merge": ["sweep", "planar_merge.yaml", "--format", "json",
                           "--out", "planar_merge.json"],
    "sweep-planar-shared": ["sweep", "planar_shared.yaml", "--out", "planar_shared.csv"],
    "sweep-planar-normal": ["sweep", "planar_normal.yaml", "--out", "planar_normal.csv"],
    "sweep-planar-anchored": ["sweep", "planar_anchored.yaml", "--out", "planar_anchored.csv"],
    "sweep-planar-1024-anchored-output": ["sweep", "planar_1024_anchored_output.yaml",
                                          "--out", "planar_1024_anchored_output.csv"],
    "sweep-planar-1024-repeated-points": ["sweep", "planar_1024_repeated_points.yaml",
                                          "--out", "planar_1024_repeated_points.csv"],
    "sweep-quoted": ["sweep", "quoted.yaml", "--out", "quoted.json"],
    "sweep-patch": ["sweep", "patch.yaml", "--format", "json", "--out", "patch.json"],
    "sweep-patch-no-waves": ["sweep", "patch_no_waves.yaml", "--out", "patch_no_waves.csv"],
    "sweep-compensate-points": ["sweep", "compensate_points.yaml",
                                "--out", "compensate_points.csv"],
    "sweep-linear-1000": ["sweep", "linear_1000.yaml", "--out", "linear_1000.csv"],
    "sweep-linear-8192": ["sweep", "linear_8192.yaml", "--out", "linear_8192.csv"],
    "sweep-linear-points-shuffled": ["sweep", "linear_points_shuffled.yaml",
                                     "--out", "linear_points_shuffled.csv"],
    "sweep-linear-no-waves": ["sweep", "linear_no_waves.yaml", "--out", "linear_no_waves.csv"],
    "sweep-linear-far": ["sweep", "linear_far.yaml", "--out", "linear_far.csv"],
    "sweep-linear-no-waves-json": ["sweep", "linear_no_waves.yaml", "--format", "json",
                                   "--out", "linear_no_waves.json"],
    "sweep-linear-far-json": ["sweep", "linear_far.yaml", "--format", "json",
                              "--out", "linear_far.json"],
    "sweep-random": ["sweep", "random.yaml", "--out", "random.csv"],
    "sweep-random-seed": ["sweep", "random.yaml", "--seed", "11", "--out", "random_seed.csv"],
    "sweep-random-trials": ["sweep", "random.yaml", "--trials", "40",
                            "--out", "random_trials.csv"],
    "sweep-expectation": ["sweep", "expectation.yaml", "--out", "expectation.csv"],
    "sweep-random-two-waves-trials": ["sweep", "random_two_waves.yaml", "--trials", "40",
                                      "--out", "random_two_waves_trials.csv"],
    "sweep-random-two-waves-wide-seed": ["sweep", "random_two_waves.yaml", "--trials", "300",
                                         "--seed", "79228162514264337593543950347",
                                         "--out", "random_two_waves_wide_seed.csv"],
    "sweep-expectation-wide": ["sweep", "expectation_wide.yaml",
                               "--out", "expectation_wide.csv"],
    "sweep-random-1024-trials": ["sweep", "random_1024.yaml", "--trials", "300",
                                 "--out", "random_1024_trials.csv"],
    "sweep-expectation-three-waves": ["sweep", "expectation_three_waves.yaml",
                                      "--out", "expectation_three_waves.csv"],
    "sweep-expectation-8192-json": ["sweep", "expectation_8192.yaml", "--format", "json",
                                    "--out", "expectation_8192.json"],
    "sweep-expectation-one-angle": ["sweep", "expectation_one_angle.yaml",
                                    "--out", "expectation_one_angle.csv"],
    "sweep-reshape05": ["sweep", "reshape05.yaml", "--format", "json",
                        "--out", "reshape05.json"],
    "mimo-reshape05": ["mimo", "reshape05.yaml", "--out", "reshape05_mimo.json"],
    "configure-reshape05": ["configure", "reshape05.yaml", "--out", "reshape05_weights.json"],
    "sweep-reshape06": ["sweep", "reshape06.yaml", "--format", "json",
                        "--out", "reshape06.json"],
    "configure-reshape06": ["configure", "reshape06.yaml", "--out", "reshape06_weights.json"],
    # malformed inputs: only the exit code and stderr are written
    "missing-file": ["sweep", "missing.yaml"],
    "empty": ["sweep", "empty.yaml"],
    "comment-only": ["sweep", "comment_only.yaml"],
    "two-documents": ["sweep", "two_documents.yaml"],
    "unknown-key": ["sweep", "unknown_key.yaml"],
    "bad-syntax": ["sweep", "bad_syntax.yaml"],
    "outside": ["sweep", "outside.yaml"],
    "huge-amplitude": ["sweep", "huge_amplitude.yaml"],
    "tagged": ["sweep", "tagged.yaml"],
    "tagged-later": ["sweep", "tagged_later.yaml"],
    "tagged-nested": ["sweep", "tagged_nested.yaml"],
    "bad-timestamp": ["sweep", "bad_timestamp.yaml"],
    "deep-value": ["sweep", "deep_value.yaml"],
    "deep-block": ["sweep", "deep_block.yaml"],
    "deep-flow": ["sweep", "deep_flow.yaml"],
    "deep-flow-tab": ["sweep", "deep_flow_tab.yaml"],
    "planar-null-area": ["sweep", "planar_null_area.yaml"],
    "planar-129-null-area": ["sweep", "planar_129_null_area.yaml"],
    "linear-points-outside": ["sweep", "linear_points_outside.yaml"],
    "radius-overflow": ["sweep", "radius_overflow.yaml"],
    "expectation-tiny-radius": ["sweep", "expectation_tiny_radius.yaml"],
    "trials-tiny-radius": ["sweep", "random_tiny_radius.yaml", "--trials", "5"],
    "reshape-out-of-reach": ["configure", "reshape_out_of_reach.yaml"],
    "bad-desired": ["configure", "bad_desired.yaml"],
    "negative-seed": ["sweep", "random.yaml", "--seed", "-3"],
    "trials-on-expectation": ["sweep", "expectation.yaml", "--trials", "5"],
    "mimo-on-patch": ["mimo", "patch.yaml"],
    "configure-unconfigured": ["configure", "patch.yaml"],
    "long-value": ["sweep", "long_value.yaml"],
    "many-unknown-keys": ["sweep", "many_unknown_keys.yaml"],
    "configure-reshape-brackets": ["configure", "reshape_brackets.yaml",
                                   "--out", "reshape_brackets_weights.json"],
}
RECORD = "runs.json"


def run_corpus(src: str) -> None:
    """Write the corpus inputs into the working directory, run it, record each run."""
    import risem.cli as cli
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"risem imported from {cli.__file__}, not from {src}")
    for name, text in SCENARIOS.items():
        with open(name, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    record = {}
    for name, argv in RUNS.items():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:           # argparse refuses the command line
                code = exc.code
            except Exception as exc:            # noqa: BLE001 - a traceback is an outcome too
                code = f"raised {type(exc).__name__}: {exc}"
        record[name] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    with open(RECORD, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)


def contract_faults(record: dict) -> list:
    """'<run>: <fault>' for each run of a corpus record that breaks the CLI's contract.

    A run exits 0, 2 or 3, and one that exits 2 or 3 writes exactly one stderr
    line and nothing to stdout. A run that raised has the exit 'raised ...'.
    """
    faults = []
    for name, run in record.items():
        code, out, err = run["exit"], run["stdout"], run["stderr"]
        if code not in (0, 2, 3):
            faults.append(f"{name}: exit {code}")
        elif code and (out or err.count("\n") != 1 or not err.endswith("\n")):
            faults.append(f"{name}: exit {code} with stderr {err[:200]!r} "
                          f"and stdout {out[:200]!r}")
    return faults


def _outputs(tree: str, workdir: str) -> tuple:
    """Run the corpus on tree in workdir: ({output name: text} for every run and file, record)."""
    src = os.path.join(os.path.abspath(tree), "src")
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, os.path.abspath(__file__), "--run-corpus", src],
                   cwd=workdir, env=env, check=True, timeout=600)
    outputs = {}
    with open(os.path.join(workdir, RECORD), encoding="utf-8") as fh:
        record = json.load(fh)
    for name, run in record.items():
        for part, value in run.items():
            outputs[f"{name}:{part}"] = value if isinstance(value, str) else json.dumps(value)
    for root, _, files in os.walk(workdir):
        for file in files:
            path = os.path.relpath(os.path.join(root, file), workdir)
            if path != RECORD and path not in SCENARIOS:
                with open(os.path.join(root, file), encoding="utf-8") as fh:
                    outputs[path] = fh.read()
    return outputs, record


def _printed_unit(value: float) -> float:
    """One unit of the 12th significant digit of value, as '%.12g' prints it."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 11) if value else 0.0


def _deviation(old: list, new: list, printed: bool, document: float = 0.0) -> str | None:
    """None if the float columns are equal, else their largest deviation in words.

    Deviations are relative to the column's largest finite magnitude. For
    printed (CSV) columns, the part of each deviation beyond one unit of the
    12th significant digit is given too: rounding to print cannot explain it.
    Where the column's largest magnitude is below document, the largest finite
    magnitude of its whole document, the deviation relative to that is given
    too: a lone round-off-level scalar is its own column maximum.
    """
    pairs = [(x, y) for x, y in zip(old, new) if x != y and not (math.isnan(x) and math.isnan(y))]
    if not pairs:
        return None
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pairs):
        return "differs (not finite)"
    scale = max(abs(v) for v in old + new if math.isfinite(v))
    largest = max(abs(x - y) for x, y in pairs)
    words = f"{largest / scale:.2g} of the column maximum"
    if scale < document:
        words += f" ({largest / document:.2g} of the document maximum)"
    if printed:
        beyond = max(max(abs(x - y) - max(_printed_unit(x), _printed_unit(y)), 0.0)
                     for x, y in pairs)
        words += f" ({beyond / scale:.2g} beyond one printed unit)"
    return words


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_leaves(doc, path="", out=None) -> dict:
    """{field path with list indices as []: [leaf values in order]} of a JSON document."""
    out = {} if out is None else out
    if isinstance(doc, dict):
        for key, value in doc.items():
            _json_leaves(value, f"{path}.{key}", out)
    elif isinstance(doc, list):
        for value in doc:
            _json_leaves(value, f"{path}[]", out)
    else:
        out.setdefault(path or ".", []).append(doc)
    return out


def describe(name: str, old: str, new: str) -> str:
    """'identical', or what moved between the two texts of one output."""
    if old == new:
        return "identical"
    if name.endswith((":exit", ":stderr")):
        return f"differs: {old.strip()!r} then {new.strip()!r}"
    if name.endswith(".csv"):
        old_rows, new_rows = list(csv.reader(io.StringIO(old))), list(csv.reader(io.StringIO(new)))
        if len(old_rows) != len(new_rows) or old_rows[:1] != new_rows[:1]:
            return "differs (header or row count)"
        changed = sum(a != b for a, b in zip(old_rows[1:], new_rows[1:]))
        try:
            columns = [(col, [float(v) for v in a], [float(v) for v in b]) for col, a, b
                       in zip(old_rows[0], zip(*old_rows[1:]), zip(*new_rows[1:]))]
        except ValueError:
            return "differs (not numeric)"
        moved = [f"{col} {dev}" for col, a, b in columns if (dev := _deviation(a, b, True))]
        return f"{changed} of {len(old_rows) - 1} rows differ; " + "; ".join(moved)
    try:
        old_doc, new_doc = json.loads(old), json.loads(new)
    except ValueError:
        return "differs (text)"
    old_leaves, new_leaves = _json_leaves(old_doc), _json_leaves(new_doc)
    if old_leaves.keys() != new_leaves.keys() or any(
            len(old_leaves[k]) != len(new_leaves[k]) for k in old_leaves):
        return "differs (structure)"
    document = max((abs(float(v)) for leaves in (old_leaves, new_leaves)
                    for values in leaves.values() for v in values
                    if _is_number(v) and math.isfinite(v)), default=0.0)
    moved = []
    for key, a in old_leaves.items():
        b = new_leaves[key]
        if all(map(_is_number, a + b)):
            dev = _deviation([float(v) for v in a], [float(v) for v in b], False, document)
        else:
            dev = None if a == b else "differs"
        if dev:
            moved.append(f"{key} {dev}")
    return "; ".join(moved) or "differs (formatting)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_tree", nargs="?")
    parser.add_argument("new_tree", nargs="?")
    parser.add_argument("--run-corpus", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.run_corpus:
        run_corpus(args.run_corpus)
        return 0
    if not (args.old_tree and args.new_tree):
        parser.error("give OLD_TREE and NEW_TREE")
    with tempfile.TemporaryDirectory() as old_dir, tempfile.TemporaryDirectory() as new_dir:
        (old, _), (new, record) = (_outputs(args.old_tree, old_dir),
                                   _outputs(args.new_tree, new_dir))
    names, moved = sorted(old.keys() | new.keys()), []
    for name in names:
        if name not in old or name not in new:
            verdict = f"only in {'NEW' if name in new else 'OLD'}"
        else:
            verdict = describe(name, old[name], new[name])
        print(f"{name}: {verdict}")
        if verdict != "identical":
            moved.append(name)
    faults = contract_faults(record)
    for fault in faults:
        print(f"NEW_TREE breaks the CLI contract: {fault}")
    print(f"{len(names) - len(moved)} of {len(names)} outputs identical"
          + (f"; moved: {', '.join(moved)}" if moved else ""))
    return 1 if moved or faults else 0


if __name__ == "__main__":
    sys.exit(main())
