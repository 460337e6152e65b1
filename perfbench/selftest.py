#!/usr/bin/env python3
"""Self-tests for the benchmark itself (not part of the program's test suite).

    python3 perfbench/selftest.py

They check that inputs are a pure function of the seed, that the oracle
agrees with the program on tiny cases, and that the output check fails a
deliberately perturbed output and a job that exits non-zero, so a run cannot
pass by default.
"""
from __future__ import annotations

import filecmp
import json
import math
import os
import shutil
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the thread caps before NumPy is imported)
import calib  # noqa: E402
import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

import numpy as np  # noqa: E402
import yaml  # noqa: E402

WORK = os.path.join(run.WORK, "selftest")


class InWorkDir(unittest.TestCase):
    """Each test runs inside a fresh directory under the benchmark's work dir."""

    def setUp(self):
        self._cwd = os.getcwd()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        os.chdir(WORK)

    def tearDown(self):
        os.chdir(self._cwd)
        shutil.rmtree(WORK, ignore_errors=True)

    def generate_in(self, name, workload, seed):
        path = os.path.join(WORK, name)
        os.makedirs(path)
        os.chdir(path)
        try:
            workloads.generate(workload, seed, path)
        finally:
            os.chdir(WORK)
        return path


def _tree_equal(a, b) -> bool:
    cmp = filecmp.dircmp(a, b)
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    if mismatch or errors:
        return False
    return all(_tree_equal(os.path.join(a, d), os.path.join(b, d)) for d in cmp.common_dirs)


class SeededInputs(InWorkDir):
    def test_same_seed_same_bytes_other_seed_other_bytes(self):
        for workload in ("linear-sweep", "reshape", "planar-patch"):
            a = self.generate_in(f"{workload}-a", workload, 7)
            b = self.generate_in(f"{workload}-b", workload, 7)
            c = self.generate_in(f"{workload}-c", workload, 8)
            self.assertTrue(_tree_equal(a, b), workload)
            self.assertFalse(_tree_equal(a, c), workload)

    def test_round_order_depends_on_seed_only(self):
        first = workloads.round_order(3, "reproduce", 0, 8)
        self.assertEqual(first, workloads.round_order(3, "reproduce", 0, 8))
        self.assertEqual(sorted(first), list(range(8)))
        self.assertNotEqual([workloads.round_order(s, "reproduce", 0, 8) for s in range(4)],
                            [first] * 4)

    def test_yaml_floats_round_trip_exactly(self):
        rng = np.random.default_rng(0)
        values = list(rng.uniform(-1e3, 1e3, 200)) + [1e-5, -2.5e-7, 3.0, 0.0, 1e20]
        for x in values:
            self.assertEqual(yaml.safe_load(workloads.yfloat(x)), float(x))


class OracleAgreesWithProgram(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run._import_cli()
        import risem
        cls.risem = risem

    def test_linear_field(self):
        r = self.risem
        gamma = -0.8 + 0.1j
        ctx = r.WaveContext(1.0, gamma)
        phases = oracle.compensation_phases(9, 0.6, 25.0, -40.0)
        ris = r.LinearRis.uniform(9, 0.6, 0.012, width=0.11, phases=phases, ctx=ctx)
        waves = [(25.0, 1.0), (-60.0, 0.4)]
        thetas = [-70.0, -40.0, 0.0, 33.3]
        lib = [r.linear_field_multi(ris, [r.PlaneWave(r.Direction(math.radians(t)), a)
                                          for t, a in waves],
                                    r.ObservationPoint(80.0, r.Direction(math.radians(ts))))
               for ts in thetas]
        ref = oracle.linear_field(0.012 * np.exp(1j * phases), 0.11, 0.6, waves, thetas, 80.0,
                                  gamma=gamma)
        self.assertLess(check._dev(np.array(lib), ref), 1e-12)

    def test_expected_and_monte_carlo_power(self):
        r = self.risem
        ris = r.LinearRis.uniform(12, 0.5, 0.09, width=0.3)
        thetas = np.array([-50.0, 10.0, 70.0])
        lib = [r.random_phase_expected_power(ris, math.radians(20.0), math.radians(t), 60.0, 0.7)
               for t in thetas]
        ref = oracle.linear_expected_power(0.09, 0.3, 12, [(20.0, 0.7)], thetas, 60.0)
        self.assertLess(check._dev(np.array(lib), ref), 1e-12)
        waves = [r.PlaneWave(r.Direction(math.radians(20.0)), 0.7)]
        lib = r.monte_carlo_power_grid(ris, waves, 60.0, np.radians(thetas), 25, 99)
        ref = oracle.linear_monte_carlo_power(0.09, 0.3, 12, 0.5, [(20.0, 0.7)], thetas,
                                              60.0, 25, 99)
        self.assertLess(check._dev(lib, ref), 1e-12)

    def test_patch_and_planar(self):
        r = self.risem
        ctx = r.WaveContext()
        waves = [(math.radians(20.0), math.radians(30.0), 1.0),
                 (math.radians(50.0), math.radians(-120.0), 0.5)]
        lib_waves = [r.PlaneWave(r.Direction(t, p), a) for t, p, a in waves]
        dirs = [oracle.cut_direction(t, 40.0) for t in (-80.0, -10.0, 0.0, 45.0)]
        patch = r.Patch(3.0, 2.0, 5.5)
        lib = [r.patch_scattered_field_multi(patch, lib_waves,
                                             r.ObservationPoint(90.0, r.Direction(*d)), ctx).magnitude
               for d in dirs]
        ref = oracle.patch_field(3.0, 2.0, 5.5, waves, dirs, 90.0)
        self.assertLess(check._dev(np.array(lib), ref), 1e-12)
        pos = np.array([[0.0, 0.0, 0.0], [0.5, 0.1, 0.02], [1.1, -0.4, 0.0]])
        a, b = np.array([0.3, 0.4, 0.35]), np.array([0.25, 0.3, 0.45])
        areas, phases = a * b, np.array([0.0, 1.0, 4.0])
        cells = [r.UnitCell(pos[i], a[i], b[i], None, phases[i]) for i in range(3)]
        geom = r.RisGeometry(cells, ctx)
        lib = [r.ris_scattered_field_multi(geom, lib_waves,
                                           r.ObservationPoint(90.0, r.Direction(*d))).magnitude
               for d in dirs]
        ref = oracle.planar_field(pos, a, b, areas, phases, waves, dirs, 90.0)
        self.assertLess(check._dev(np.array(lib), ref), 1e-12)

    def test_reshape_recovers_generating_weights(self):
        r = self.risem
        n = 16
        rng = np.random.default_rng(1)
        w_true = rng.uniform(0.01, 0.02, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        waves_rad = [(math.radians(15.0), 1.0)]
        grid = oracle.dft_grid(n)
        desired = oracle.point_source_field_rad(w_true, 0.5, waves_rad, grid, 100.0)
        base = r.LinearRis.uniform(n, 0.5, 1.0)
        obs = [r.ObservationPoint(100.0, r.Direction(t)) for t in grid]
        sys_ = r.assemble_mimo(base, [waves_rad[0][0]], obs)
        sol = r.beam_reshape(sys_, [1.0], desired)
        self.assertLess(np.max(np.abs(sol.weights - w_true)), 1e-12)


class CheckFailsBadOutput(InWorkDir):
    """The check has to reject outputs that are off by far less than a print digit."""

    @classmethod
    def setUpClass(cls):
        cls.cli = run._import_cli()

    def _job(self, maker, slot):
        os.makedirs("in", exist_ok=True)
        os.makedirs("out", exist_ok=True)
        return maker(np.random.default_rng(5), "t", slot)

    def _run(self, job):
        rc, stdout, err = run._run_quiet(self.cli, job.argv)
        self.assertEqual(rc, 0, err)
        return stdout

    def test_csv_perturbed_peak_fails(self):
        job = self._job(workloads._linear_job,
                        ("t", "sweep", 24, 2, 181, True, "compensate", None))
        self._run(job)
        self.assertTrue(check.check_job(job, np.random.default_rng(0)).ok)
        with open(job.out, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        data = np.loadtxt(job.out, delimiter=",", skiprows=1)
        peak = int(np.argmax(data[:, 1])) + 1
        cols = lines[peak].split(",")
        cols[1] = format(float(cols[1]) * (1 + 1e-10), ".12g")
        lines[peak] = ",".join(cols)
        with open(job.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        verdict = check.check_job(job, np.random.default_rng(0))
        self.assertFalse(verdict.ok)
        self.assertIn("field_magnitude", verdict.note)

    def test_json_perturbed_weight_fails(self):
        job = self._job(workloads._reshape_job, ("t", "sweep", 32, 2))
        self._run(job)
        self.assertTrue(check.check_job(job, np.random.default_rng(0)).ok)
        with open(job.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        doc["reshape"]["weights"][3][0] *= 1 + 1e-6
        with open(job.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.assertFalse(check.check_job(job, np.random.default_rng(0)).ok)

    def test_json_perturbed_field_fails(self):
        job = self._job(workloads._reshape_job, ("t", "sweep", 32, 1))
        self._run(job)
        with open(job.out, encoding="utf-8") as fh:
            doc = json.load(fh)
        mag = doc["sweep"]["field_magnitude"]
        peak = int(np.argmax(mag))
        mag[peak] *= 1 + 1e-11
        with open(job.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.assertFalse(check.check_job(job, np.random.default_rng(0)).ok)

    def test_failing_job_counts_as_failed(self):
        job = self._job(workloads._linear_job,
                        ("t", "sweep", 8, 1, 11, True, "none", None))
        job.argv[1] = "in/missing.yaml"
        _, verdict = run.run_job(self.cli, job, np.random.default_rng(0))
        self.assertFalse(verdict.ok)
        self.assertIn("exit 2", verdict.note)


class Tracing(InWorkDir):
    def setUp(self):
        super().setUp()
        os.makedirs("in")
        os.makedirs("out")

    def test_spans_recorded_absent_names_skipped_and_undone(self):
        import tracer as tracer_mod
        cli = run._import_cli()
        import risem.linear
        import risem.scenario
        original = risem.scenario.linear_field_multi
        gone = ("linear.eval", "risem.linear", "no_such_function", None, None)
        tracer_mod.SPANS.append(gone)
        try:
            tr = tracer_mod.Tracer()
            tr.install()
        finally:
            tracer_mod.SPANS.remove(gone)
        try:
            job = workloads._linear_job(np.random.default_rng(2), "t",
                                        ("t", "sweep", 8, 2, 5, True, "none", None))
            tr.job = 0
            rc, _, err = run._run_quiet(cli, job.argv)
        finally:
            tr.uninstall()
        self.assertEqual(rc, 0, err)
        self.assertEqual(tr.absent, ["risem.linear.no_such_function"])
        self.assertIs(risem.scenario.linear_field_multi, original)
        layers, names = tr.summary({0: 1.0})
        self.assertEqual(layers["cli.main"]["calls"], 1)
        self.assertEqual(names["risem.linear.linear_field_multi"]["calls"], 5)
        self.assertEqual(layers["linear.eval"]["count"], 8 * 2 * 5)  # cells x waves x angles
        self.assertLessEqual(layers["linear.eval"]["total_s"], layers["cli.main"]["total_s"])


class Statistics(unittest.TestCase):
    def test_tail_leaves_ten_samples_above(self):
        times = [float(i) for i in range(40)]
        value, pct = run.tail(times)
        self.assertEqual(sum(t > value for t in times), 10)
        self.assertAlmostEqual(pct, 75.0)

    def test_time_divided_by_speed_around_it(self):
        clock = run.SpeedClock()
        self.assertTrue(all(0.0 < f < 100.0 for f in clock.readings))
        self.assertEqual(len(clock.probe.last), len(calib.REFERENCE_S))

        class Fixed:                     # a machine that got 4x slower
            last = ()

            def sample(self):
                return 4.0

        clock.readings = [1.0]
        clock.probe = Fixed()
        factor, seconds = clock.at_reference(3.0)
        self.assertAlmostEqual(factor, 2.0)
        self.assertAlmostEqual(seconds, 1.5)
        self.assertAlmostEqual(clock.at_reference(3.0)[1], 0.75)


if __name__ == "__main__":
    unittest.main()
