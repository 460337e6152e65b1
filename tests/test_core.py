"""Primitives: sinc branches, wave constants, directions, directivity factors."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, ObservationPoint, WaveContext, direction_vector,
                   sampling_sa, sampling_sa_linear, sinc_normalized)
from risem.core import SINC_TAYLOR_CUTOFF

finite_angles = st.floats(-np.pi, np.pi, allow_nan=False, allow_infinity=False)
polar_angles = st.floats(0.0, np.pi / 2, allow_nan=False, allow_infinity=False)


class TestSincNormalized:
    def test_removable_singularity(self):
        assert sinc_normalized(0.0) == 1.0

    def test_zero_at_pi(self):
        assert abs(sinc_normalized(np.pi)) < 1e-15

    def test_matches_library_sinc_away_from_zero(self):
        xs = np.concatenate([np.logspace(-5, 2, 40), -np.logspace(-5, 2, 40)])
        ref = np.sinc(xs / np.pi)
        got = sinc_normalized(xs)
        assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12

    def test_taylor_branch_accuracy(self):
        for x in (1e-7, -1e-7, 0.5 * SINC_TAYLOR_CUTOFF):
            assert abs(sinc_normalized(x) - np.sinc(x / np.pi)) < 1e-13

    @given(st.floats(-1e6, 1e6, allow_nan=False))
    def test_bounded_by_one(self, x):
        assert abs(sinc_normalized(x)) <= 1.0 + 1e-15

    def test_scalar_returns_float(self):
        assert isinstance(sinc_normalized(0.3), float)

    def test_array_shape_preserved(self):
        x = np.zeros((3, 4))
        assert sinc_normalized(x).shape == (3, 4)


class TestWaveContext:
    def test_conductor_coupling_is_unit_magnitude(self):
        ctx = WaveContext()
        assert ctx.coupling == -1j
        assert abs(ctx.coupling) == 1.0

    def test_matched_surface_has_zero_coupling(self):
        assert WaveContext(reflection_coefficient=1.0).coupling == 0.0

    def test_general_reflection_coefficient(self):
        gamma = 0.3 - 0.4j
        assert WaveContext(reflection_coefficient=gamma).coupling == pytest.approx(
            -0.5j * (1.0 - gamma))

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.inf, np.nan])
    def test_wavelength_must_be_positive(self, lam):
        with pytest.raises(ValueError):
            WaveContext(wavelength=lam)

    @pytest.mark.parametrize("gamma", [np.nan, complex(0.0, np.inf), complex(np.nan, 0.0)])
    def test_reflection_coefficient_must_be_finite(self, gamma):
        with pytest.raises(ValueError):
            WaveContext(reflection_coefficient=gamma)


class TestDirections:
    @given(finite_angles, finite_angles)
    def test_direction_vector_is_unit(self, theta, phi):
        v = direction_vector(Direction(theta, phi))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14

    @pytest.mark.parametrize("r", [0.0, np.nan, np.inf])
    def test_observation_radius_must_be_positive_and_finite(self, r):
        with pytest.raises(ValueError):
            ObservationPoint(r, Direction(0.0))


class TestSamplingSa:
    @given(polar_angles, finite_angles, polar_angles, finite_angles,
           st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    def test_symmetric_under_direction_swap(self, ts, ps, ti, pi_, a, b):
        ctx = WaveContext()
        d1, d2 = Direction(ts, ps), Direction(ti, pi_)
        assert sampling_sa(a, b, d1, d2, ctx) == sampling_sa(a, b, d2, d1, ctx)

    @given(polar_angles, finite_angles, polar_angles, finite_angles,
           st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    def test_bounded_by_one(self, ts, ps, ti, pi_, a, b):
        ctx = WaveContext()
        sa = sampling_sa(a, b, Direction(ts, ps), Direction(ti, pi_), ctx)
        assert abs(sa) <= 1.0 + 1e-15

    @given(polar_angles, finite_angles)
    def test_unity_in_specular_direction(self, theta, phi):
        # mirror direction: same polar angle, azimuth rotated by pi
        ctx = WaveContext()
        sa = sampling_sa(3.0, 2.0, Direction(theta, phi + np.pi),
                         Direction(theta, phi), ctx)
        assert sa == pytest.approx(1.0, abs=1e-10)


class TestSamplingSaLinear:
    def test_zero_width_is_exactly_one(self):
        assert sampling_sa_linear(0.0, 0.7, -0.3, 1.0) == 1.0
        out = sampling_sa_linear(np.zeros(5), 0.7, -0.3, 1.0)
        assert np.all(out == 1.0)

    @given(st.floats(-np.pi / 2, np.pi / 2), st.floats(-np.pi / 2, np.pi / 2),
           st.floats(0.0, 2.0), st.floats(0.01, 5.0))
    @settings(max_examples=50)
    def test_matches_two_factor_form_on_plane_cut(self, ts, ti, b, a):
        # with both azimuths at 90 deg the x-factor argument vanishes for any a
        ctx = WaveContext()
        full = sampling_sa(a, b, Direction(abs(ts), np.sign(ts) * np.pi / 2 or np.pi / 2),
                           Direction(abs(ti), np.sign(ti) * np.pi / 2 or np.pi / 2), ctx)
        lin = sampling_sa_linear(b, ts, ti, ctx.wavelength)
        assert full == pytest.approx(lin, rel=1e-12, abs=1e-12)

    def test_accepts_array_arguments(self):
        thetas = np.linspace(-1.0, 1.0, 7)
        out = sampling_sa_linear(0.1, thetas, 0.3, 1.0)
        assert out.shape == thetas.shape
