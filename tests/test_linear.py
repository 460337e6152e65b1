"""Linear arrays: steering function, scalar field, factored linear system."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, MimoSystem, ObservationPoint,
                   PlaneWave, WaveContext, apply_mimo, assemble_mimo,
                   dft_scatter_grid, linear_field, linear_field_multi,
                   linear_rcs, phase_compensation, sampling_sa_linear,
                   steering_function)
from risem.core import CHUNK_TERMS
from risem.linear import _steering

CTX = WaveContext()
half_angle = st.floats(-math.radians(85.0), math.radians(85.0))


def _direct_double_sum(sys: MimoSystem, amplitudes):
    """Independent elementwise evaluation of the factored model."""
    lam, d = sys.wavelength, sys.spacing
    out = np.zeros(sys.n_outputs, dtype=complex)
    for t in range(sys.n_outputs):
        acc = 0.0j
        for n in range(sys.n_cells):
            inner = 0.0j
            for m in range(sys.n_inputs):
                inner += (math.cos(sys.incident_thetas[m]) * amplitudes[m]
                          * np.exp(2j * np.pi * n * d
                                   * math.sin(sys.incident_thetas[m]) / lam))
            acc += (sys.weights[n] * inner
                    * np.exp(2j * np.pi * n * d
                             * math.sin(sys.scatter_thetas[t]) / lam))
        out[t] = (sys.coupling / lam
                  * np.exp(-2j * np.pi * sys.radii[t] / lam) / sys.radii[t] * acc)
    return out


def _direct_steering(ris: LinearRis, theta_i: float, theta_s: float) -> complex:
    """The steering sum for one angle pair, written out term by term."""
    lam = ris.ctx.wavelength
    n = np.arange(ris.n)
    sa = sampling_sa_linear(ris.widths, theta_s, theta_i, lam)
    geom = np.exp(1j * 2.0 * np.pi * n * ris.spacing
                  * (np.sin(theta_i) + np.sin(theta_s)) / lam)
    return complex(ris.ctx.coupling
                   * np.sum((ris.areas / lam) * np.exp(1j * ris.phases) * sa * geom))


def _kernel_deviation(ris, theta_i, theta_s):
    """max|kernel - direct sum| / max|direct sum| over broadcast angle arrays."""
    ti, ts = np.broadcast_arrays(theta_i, theta_s)
    got = _steering(ris, np.sin(theta_i) + np.sin(theta_s))
    want = np.array([_direct_steering(ris, a, b)
                     for a, b in zip(ti.ravel(), ts.ravel())]).reshape(ti.shape)
    assert got.shape == ti.shape
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestSteeringKernel:
    @given(st.sampled_from([1, 2, 5, 100, 2 ** 14 - 1, 2 ** 14 + 3]),
           st.sampled_from([((), ()), ((), (5,)), ((7,), ()), ((6,), (6,)),
                            ((3, 1), (1, 4)), ((2, 3), ())]),
           st.sampled_from(["zero", "random"]), st.floats(0.05, 2.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kernel_equals_direct_sum(self, n, shapes, widths, spacing, seed):
        shape_i, shape_s = shapes
        rng = np.random.default_rng(seed)
        ris = LinearRis(spacing, rng.uniform(0.0, 0.05, n),
                        0.0 if widths == "zero" else rng.uniform(0.0, 1.5, n),
                        rng.uniform(0.0, 2.0 * np.pi, n), CTX)
        theta_i = rng.uniform(-np.pi / 2, np.pi / 2, shape_i)
        theta_s = rng.uniform(-np.pi / 2, np.pi / 2, shape_s)
        assert _kernel_deviation(ris, theta_i, theta_s) <= 1e-12

    @pytest.mark.parametrize("n,count", [
        (1, CHUNK_TERMS + 1),          # one cell: many angles per chunk, one spill-over
        (100, 3 * (CHUNK_TERMS // 100) + 7),
        (2 ** 14 - 1, 3),              # one angle per chunk
        (2 ** 14 + 3, 2),              # a chunk larger than CHUNK_TERMS
    ])
    def test_chunk_edges(self, n, count):
        rng = np.random.default_rng(n)
        ris = LinearRis(0.45, rng.uniform(0.0, 0.05, n), rng.uniform(0.0, 0.3, n),
                        rng.uniform(0.0, 2.0 * np.pi, n), CTX)
        theta_s = np.linspace(-1.5, 1.5, count)
        assert _kernel_deviation(ris, 0.4, theta_s) <= 1e-12


class TestLinearRis:
    def test_uniform_constructor(self):
        ris = LinearRis.uniform(4, 0.5, 0.01, width=0.1)
        assert ris.n == 4
        assert np.all(ris.areas == 0.01)
        assert np.all(ris.widths == 0.1)
        assert np.all(ris.phases == 0.0)

    def test_with_weights_round_trip(self):
        ris = LinearRis.uniform(3, 0.5, 0.01)
        w = np.array([0.1 * np.exp(0.3j), 0.2 * np.exp(-1.0j), 0.05])
        out = ris.with_weights(w)
        assert np.allclose(out.areas, np.abs(w))
        assert np.allclose(out.phases, np.angle(w))

    def test_validation(self):
        with pytest.raises(ValueError):
            LinearRis.uniform(0, 0.5, 0.01)
        with pytest.raises(ValueError):
            LinearRis.uniform(4, -0.5, 0.01)
        with pytest.raises(ValueError):
            LinearRis(0.5, np.array([-0.1]), np.zeros(1), np.zeros(1), CTX)
        with pytest.raises(ValueError):
            LinearRis.uniform(3, 0.5, 0.01).with_weights(np.ones(4))
        with pytest.raises(ValueError):
            LinearRis.uniform(4, np.nan, 0.01)
        with pytest.raises(ValueError):
            LinearRis.uniform(4, 0.5, np.inf)
        with pytest.raises(ValueError):
            LinearRis(0.5, np.array([0.1]), np.array([np.nan]), np.zeros(1), CTX)


class TestSteeringFunction:
    @given(half_angle, half_angle,
           st.lists(st.floats(0.0, 2.0 * np.pi), min_size=2, max_size=16))
    @settings(max_examples=60)
    def test_triangle_inequality_bound(self, ti, ts, phases):
        ris = LinearRis.uniform(len(phases), 0.5, 0.01, phases=phases)
        bound = abs(CTX.coupling) * np.sum(ris.areas) / CTX.wavelength
        assert abs(steering_function(ris, ti, ts)) <= bound * (1.0 + 1e-12)

    def test_compensation_attains_bound(self):
        ris = LinearRis.uniform(32, 0.5, 0.01)
        ti, ts = math.radians(30.0), math.radians(-50.0)
        ris = ris.with_phases(phase_compensation(ti, ts, ris))
        bound = abs(CTX.coupling) * np.sum(ris.areas) / CTX.wavelength
        assert abs(steering_function(ris, ti, ts)) == pytest.approx(bound, rel=1e-12)

    def test_sine_congruent_angles_have_equal_magnitude(self):
        # spacing = wavelength: angles whose sines differ by an integer
        # produce identical element phases
        ris = LinearRis.uniform(16, 1.0, 0.01,
                                phases=np.linspace(0.0, 3.0, 16))
        ti = 0.37
        ts = math.asin(0.25)
        ts_alias = math.asin(0.25 - 1.0)
        t0 = steering_function(ris, ti, ts)
        t1 = steering_function(ris, ti, ts_alias)
        assert abs(t0) == pytest.approx(abs(t1), rel=1e-12)

    @given(half_angle, half_angle)
    @settings(max_examples=40)
    def test_rcs_consistent_with_field(self, ti, ts):
        ris = LinearRis.uniform(8, 0.4, 0.01, width=0.1,
                                phases=np.linspace(0.0, 2.0, 8))
        wave = PlaneWave(Direction(ti), 1.0)
        obs = ObservationPoint(100.0, Direction(ts))
        mag = abs(linear_field(ris, wave, obs))
        rcs = linear_rcs(ris, ti, ts)
        assert abs(4.0 * math.pi * obs.r ** 2 * mag ** 2 - rcs) <= 1e-9 * max(rcs, 1e-30)

    def test_multi_wave_superposition(self):
        ris = LinearRis.uniform(8, 0.5, 0.01)
        obs = ObservationPoint(100.0, Direction(0.3))
        waves = [PlaneWave(Direction(0.5), 1.0), PlaneWave(Direction(-0.7), 0.5)]
        total = linear_field_multi(ris, waves, obs)
        assert total == pytest.approx(sum(linear_field(ris, w, obs) for w in waves))
        with pytest.raises(ValueError):
            linear_field_multi(ris, [], obs)


class TestDftGrid:
    def test_grid_sines_are_regular(self):
        n = 10
        grid = dft_scatter_grid(n)
        assert np.allclose(np.sin(grid), -1.0 + 2.0 * np.arange(n) / n, atol=1e-15)
        assert np.all(grid >= -np.pi / 2) and np.all(grid < np.pi / 2)

    def test_half_wavelength_spacing_gives_scaled_unitary_matrix(self):
        n = 16
        sys = MimoSystem(1.0, 0.5, -1j, np.full(n, 100.0), dft_scatter_grid(n),
                         np.array([0.0]), np.ones(n))
        v = sys.v_scatter
        gram = v @ v.conj().T
        assert np.max(np.abs(gram - n * np.eye(n))) <= 1e-12


class TestMimoSystem:
    def _random_system(self, rng):
        n = int(rng.integers(2, 33))
        n_out = int(rng.integers(1, 9))
        n_in = int(rng.integers(1, 5))
        weights = rng.uniform(0.1, 1.0, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        return MimoSystem(
            wavelength=1.0,
            spacing=float(rng.uniform(0.1, 1.0)),
            coupling=-1j,
            radii=rng.uniform(50.0, 150.0, n_out),
            scatter_thetas=rng.uniform(-1.4, 1.4, n_out),
            incident_thetas=rng.uniform(-1.4, 1.4, n_in),
            weights=weights,
        )

    def test_factored_chain_matches_double_sum(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            sys = self._random_system(rng)
            amps = rng.uniform(0.1, 1.0, sys.n_inputs)
            got = apply_mimo(sys, amps)
            want = _direct_double_sum(sys, amps)
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale

    def test_assemble_from_linear_array_matches_scalar_field(self):
        # the factored system and the scalar model agree exactly for
        # zero-width (point-source) cells
        ris = LinearRis.uniform(12, 0.5, 0.01,
                                phases=np.linspace(0.0, 4.0, 12))
        angles = [0.3, -0.6]
        obs = [ObservationPoint(100.0, Direction(t)) for t in (-0.5, 0.1, 0.9)]
        sys = assemble_mimo(ris, angles, obs)
        amps = [1.0, 0.5]
        waves = [PlaneWave(Direction(t), a) for t, a in zip(angles, amps)]
        got = apply_mimo(sys, amps)
        want = np.array([linear_field_multi(ris, waves, o) for o in obs])
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_json_round_trip(self):
        rng = np.random.default_rng(6)
        sys = self._random_system(rng)
        doc = json.loads(json.dumps(sys.to_json_dict()))
        back = MimoSystem.from_json_dict(doc)
        amps = rng.uniform(0.1, 1.0, sys.n_inputs)
        assert np.max(np.abs(apply_mimo(sys, amps) - apply_mimo(back, amps))) < 1e-15

    def test_json_dimension_mismatch_rejected(self):
        sys = self._random_system(np.random.default_rng(7))
        doc = sys.to_json_dict()
        doc["dimensions"]["cells"] += 1
        with pytest.raises(ValueError):
            MimoSystem.from_json_dict(doc)

    def test_condition_numbers_reported(self):
        sys = self._random_system(np.random.default_rng(8))
        report = sys.condition_numbers()
        assert set(report) == {"range_diag", "v_scatter", "weights",
                               "v_incident", "cos_incident"}
        assert all(v >= 1.0 for v in report.values())

    def test_validation(self):
        ris = LinearRis.uniform(4, 0.5, 0.01)
        obs = [ObservationPoint(100.0, Direction(0.1))]
        with pytest.raises(ValueError):
            assemble_mimo(ris, [], obs)
        with pytest.raises(ValueError):
            assemble_mimo(ris, [0.1], [])
        sys = assemble_mimo(ris, [0.1], obs)
        with pytest.raises(ValueError):
            sys.incident_projection([1.0, 2.0])
