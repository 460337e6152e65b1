"""Single-patch scattering: closed forms, RCS, and the quadrature cross-check."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, ObservationPoint, Patch, PlaneWave, WaveContext,
                   patch_bistatic_rcs, patch_field_strength,
                   patch_scattered_field, patch_scattered_field_multi,
                   po_far_field, po_radiation_integrals)

CTX = WaveContext()
safe_theta = st.floats(0.0, math.radians(85.0))
azimuth = st.floats(-np.pi, np.pi)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


class TestBroadside:
    """5x5 wavelength plate, normal incidence and observation at 100 wavelengths."""

    patch = Patch(5.0, 5.0)
    wave = PlaneWave(Direction(0.0, 0.0), 1.0)
    obs = ObservationPoint(100.0, Direction(0.0, 0.0))

    def test_field_magnitude(self):
        # |C| * (A/lam) * (1/r) = 1 * 25 * 0.01
        field = patch_scattered_field(self.patch, self.wave, self.obs, CTX)
        assert _rel(field.magnitude, 0.25) < 1e-12
        assert field.e_r == 0.0
        assert abs(field.e_theta) < 1e-15  # polarization factor vanishes at phi=0

    def test_rcs_value(self):
        # 4*pi*(A/lam)^2 = 4*pi*625
        rcs = patch_bistatic_rcs(self.patch, Direction(0.0), Direction(0.0), CTX)
        assert _rel(rcs, 2500.0 * math.pi) < 1e-12

    def test_first_null_location(self):
        # the a = 5 lam aperture nulls at sin(theta) = 1/5 in the phi = 0 cut
        null = math.asin(0.2)
        peak = patch_bistatic_rcs(self.patch, Direction(0.0), Direction(0.0), CTX)
        at_null = patch_bistatic_rcs(self.patch, Direction(0.0),
                                     Direction(null, 0.0), CTX)
        assert at_null / peak < 1e-20


class TestFieldRcsConsistency:
    @given(safe_theta, azimuth, safe_theta, azimuth)
    @settings(max_examples=60)
    def test_rcs_equals_scaled_power_ratio(self, ti, pi_, ts, ps):
        patch = Patch(2.5, 1.5)
        wave = PlaneWave(Direction(ti, pi_), 1.0)
        obs = ObservationPoint(100.0, Direction(ts, ps))
        mag = patch_field_strength(patch, wave, obs, CTX)
        rcs = patch_bistatic_rcs(patch, wave.direction, obs.direction, CTX)
        assert abs(4.0 * math.pi * obs.r ** 2 * mag ** 2 - rcs) <= 1e-9 * max(rcs, 1e-30)

    @given(st.floats(0.0, 4.0))
    def test_linear_in_amplitude(self, amp):
        patch = Patch(1.0, 2.0)
        inc = Direction(0.4, 0.3)
        obs = ObservationPoint(50.0, Direction(0.2, -1.0))
        unit = patch_scattered_field(patch, PlaneWave(inc, 1.0), obs, CTX)
        scaled = patch_scattered_field(patch, PlaneWave(inc, amp), obs, CTX)
        assert abs(scaled.e_theta - amp * unit.e_theta) < 1e-14
        assert abs(scaled.e_phi - amp * unit.e_phi) < 1e-14

    @given(st.floats(1.0, 1e6))
    @settings(max_examples=30)
    def test_inverse_distance_decay(self, r):
        patch = Patch(1.0, 2.0)
        wave = PlaneWave(Direction(0.4, 0.3), 1.0)
        direction = Direction(0.2, -1.0)
        ref = patch_field_strength(patch, wave, ObservationPoint(1.0, direction), CTX)
        mag = patch_field_strength(patch, wave, ObservationPoint(r, direction), CTX)
        assert _rel(mag * r, ref) < 1e-12


class TestSuperposition:
    def test_multi_wave_equals_sum_of_singles(self):
        patch = Patch(3.0, 2.0)
        obs = ObservationPoint(80.0, Direction(0.5, 0.7))
        waves = [PlaneWave(Direction(0.3, -0.5), 1.0),
                 PlaneWave(Direction(0.9, 2.0), 0.5)]
        total = patch_scattered_field_multi(patch, waves, obs, CTX)
        parts = [patch_scattered_field(patch, w, obs, CTX) for w in waves]
        assert total.e_theta == pytest.approx(sum(p.e_theta for p in parts))
        assert total.e_phi == pytest.approx(sum(p.e_phi for p in parts))

    def test_empty_wave_list_rejected(self):
        with pytest.raises(ValueError):
            patch_scattered_field_multi(Patch(1.0, 1.0), [],
                                        ObservationPoint(10.0, Direction(0.0)), CTX)


class TestEdgeCases:
    def test_matched_surface_scatters_nothing(self):
        ctx = WaveContext(reflection_coefficient=1.0)
        mag = patch_field_strength(Patch(2.0, 2.0), PlaneWave(Direction(0.3), 1.0),
                                   ObservationPoint(10.0, Direction(0.1)), ctx)
        assert mag == 0.0

    def test_grazing_incidence_gives_zero_not_error(self):
        mag = patch_field_strength(Patch(2.0, 2.0),
                                   PlaneWave(Direction(math.pi / 2), 1.0),
                                   ObservationPoint(10.0, Direction(0.1)), CTX)
        assert mag < 1e-15

    def test_area_independent_of_footprint(self):
        # collecting area scales the field; the footprint only shapes directivity
        base = Patch(1.0, 1.0)
        big_area = Patch(1.0, 1.0, area=3.0)
        wave = PlaneWave(Direction(0.2, 0.1), 1.0)
        obs = ObservationPoint(40.0, Direction(0.5, 0.4))
        assert _rel(patch_field_strength(big_area, wave, obs, CTX),
                    3.0 * patch_field_strength(base, wave, obs, CTX)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            Patch(0.0, 1.0)
        with pytest.raises(ValueError):
            Patch(1.0, 1.0, area=-2.0)
        for bad in ((np.inf, 1.0, None), (1.0, np.nan, None), (1.0, 1.0, np.nan)):
            with pytest.raises(ValueError):
                Patch(*bad)
        with pytest.raises(ValueError):
            PlaneWave(Direction(0.0), -1.0)


class TestQuadratureOracle:
    """Numerical surface-current integration against the closed forms."""

    def test_matches_closed_form_on_random_cases(self):
        rng = np.random.default_rng(99)
        for _ in range(30):
            patch = Patch(rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            wave = PlaneWave(Direction(rng.uniform(0.0, math.radians(85.0)),
                                       rng.uniform(-np.pi, np.pi)), rng.uniform(0.1, 2.0))
            obs = ObservationPoint(100.0,
                                   Direction(rng.uniform(0.0, math.radians(85.0)),
                                             rng.uniform(-np.pi, np.pi)))
            closed = patch_scattered_field(patch, wave, obs, CTX)
            quad = po_far_field(patch, wave, obs, CTX, quadrature_order=64)
            num = math.hypot(abs(quad.e_theta - closed.e_theta),
                             abs(quad.e_phi - closed.e_phi))
            den = math.hypot(abs(closed.e_theta), abs(closed.e_phi))
            assert num <= 1e-10 * max(den, 1e-30)

    def test_respects_general_reflection_coefficient(self):
        ctx = WaveContext(reflection_coefficient=0.2 + 0.5j)
        patch = Patch(2.0, 3.0)
        wave = PlaneWave(Direction(0.5, 1.0), 1.0)
        obs = ObservationPoint(60.0, Direction(0.3, -0.4))
        closed = patch_scattered_field(patch, wave, obs, ctx)
        quad = po_far_field(patch, wave, obs, ctx)
        assert abs(quad.e_theta - closed.e_theta) < 1e-12
        assert abs(quad.e_phi - closed.e_phi) < 1e-12

    def test_order_validation(self):
        with pytest.raises(ValueError):
            po_radiation_integrals(Patch(1.0, 1.0), PlaneWave(Direction(0.0)),
                                   Direction(0.0), CTX, quadrature_order=1)

    def test_convergence_with_order(self):
        patch = Patch(4.0, 4.0)
        wave = PlaneWave(Direction(0.9, 0.4), 1.0)
        obs = ObservationPoint(100.0, Direction(1.1, 2.2))
        closed = patch_scattered_field(patch, wave, obs, CTX)

        def err(order):
            quad = po_far_field(patch, wave, obs, CTX, quadrature_order=order)
            return math.hypot(abs(quad.e_theta - closed.e_theta),
                              abs(quad.e_phi - closed.e_phi))

        assert err(48) <= err(8)
