"""Array superposition: cell sums, translation covariance, model consistency."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, ObservationPoint, PlaneWave,
                   RisGeometry, UnitCell, WaveContext, linear_field,
                   patch_scattered_field, path_length_phase, ris_bistatic_rcs,
                   ris_field_strength, ris_scattered_field,
                   ris_scattered_field_multi)

CTX = WaveContext()
safe_theta = st.floats(0.0, math.radians(85.0))
azimuth = st.floats(-np.pi, np.pi)
coord = st.floats(-10.0, 10.0)


def _geometry(cells):
    return RisGeometry(tuple(cells), CTX)


class TestUnitCell:
    def test_phase_normalized(self):
        cell = UnitCell(np.zeros(3), 1.0, 1.0, phase_shift=-1.0)
        assert 0.0 <= cell.phase_shift < 2.0 * np.pi
        assert cell.phase_shift == pytest.approx(2.0 * np.pi - 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UnitCell(np.zeros(2), 1.0, 1.0)
        with pytest.raises(ValueError):
            UnitCell(np.zeros(3), -1.0, 1.0)
        for bad in ((np.zeros(3), np.nan, 1.0), ([np.nan, 0.0, 0.0], 1.0, 1.0),
                    (np.zeros(3), 1.0, 1.0, np.inf)):
            with pytest.raises(ValueError):
                UnitCell(*bad)
        with pytest.raises(ValueError):
            RisGeometry((), CTX)


class TestSingleCell:
    @given(safe_theta, azimuth, safe_theta, azimuth)
    @settings(max_examples=40)
    def test_one_origin_cell_equals_single_patch(self, ti, pi_, ts, ps):
        geom = _geometry([UnitCell(np.zeros(3), 2.0, 1.5)])
        wave = PlaneWave(Direction(ti, pi_), 1.0)
        obs = ObservationPoint(100.0, Direction(ts, ps))
        from risem import Patch
        array_field = ris_scattered_field(geom, wave, obs)
        patch_field = patch_scattered_field(Patch(2.0, 1.5), wave, obs, CTX)
        assert abs(array_field.e_theta - patch_field.e_theta) < 1e-14
        assert abs(array_field.e_phi - patch_field.e_phi) < 1e-14


class TestSuperpositionStructure:
    def test_coincident_cells_add(self):
        one = _geometry([UnitCell(np.zeros(3), 1.0, 1.0)])
        two = _geometry([UnitCell(np.zeros(3), 1.0, 1.0),
                         UnitCell(np.zeros(3), 1.0, 1.0)])
        wave = PlaneWave(Direction(0.3, 0.4), 1.0)
        obs = ObservationPoint(50.0, Direction(0.6, -0.2))
        assert (ris_field_strength(two, wave, obs)
                == pytest.approx(2.0 * ris_field_strength(one, wave, obs)))

    def test_opposite_phases_cancel(self):
        geom = _geometry([UnitCell(np.zeros(3), 1.0, 1.0, phase_shift=0.0),
                          UnitCell(np.zeros(3), 1.0, 1.0, phase_shift=np.pi)])
        wave = PlaneWave(Direction(0.3, 0.4), 1.0)
        obs = ObservationPoint(50.0, Direction(0.6, -0.2))
        assert ris_field_strength(geom, wave, obs) < 1e-15

    def test_multi_wave_superposition(self):
        geom = _geometry([UnitCell(np.array([0.0, 0.5, 0.0]), 0.4, 0.4),
                          UnitCell(np.array([0.0, 1.0, 0.1]), 0.4, 0.4, phase_shift=1.0)])
        waves = [PlaneWave(Direction(0.2, 0.0), 1.0),
                 PlaneWave(Direction(0.7, 1.5), 0.4)]
        obs = ObservationPoint(70.0, Direction(0.5, 0.3))
        total = ris_scattered_field_multi(geom, waves, obs)
        parts = [ris_scattered_field(geom, w, obs) for w in waves]
        assert total.e_phi == pytest.approx(sum(p.e_phi for p in parts))
        with pytest.raises(ValueError):
            ris_scattered_field_multi(geom, [], obs)


class TestInvariances:
    @given(coord, coord, coord)
    @settings(max_examples=40)
    def test_translation_leaves_magnitude_invariant(self, tx, ty, tz):
        shift = np.array([tx, ty, tz])
        cells = [UnitCell(np.array([0.0, 0.6 * k, 0.0]), 0.3, 0.3,
                          phase_shift=0.7 * k) for k in range(4)]
        moved = [UnitCell(c.position + shift, c.a, c.b, c.area, c.phase_shift)
                 for c in cells]
        wave = PlaneWave(Direction(0.4, 0.9), 1.0)
        obs = ObservationPoint(90.0, Direction(0.8, -1.2))
        m0 = ris_field_strength(_geometry(cells), wave, obs)
        m1 = ris_field_strength(_geometry(moved), wave, obs)
        assert m1 == pytest.approx(m0, rel=1e-11)

    @given(st.floats(0.0, 2.0 * np.pi))
    @settings(max_examples=40)
    def test_common_phase_offset_leaves_magnitude_invariant(self, delta):
        cells = [UnitCell(np.array([0.0, 0.6 * k, 0.0]), 0.3, 0.3,
                          phase_shift=0.7 * k) for k in range(4)]
        offset = [UnitCell(c.position, c.a, c.b, c.area, c.phase_shift + delta)
                  for c in cells]
        wave = PlaneWave(Direction(0.4, 0.9), 1.0)
        obs = ObservationPoint(90.0, Direction(0.8, -1.2))
        m0 = ris_field_strength(_geometry(cells), wave, obs)
        m1 = ris_field_strength(_geometry(offset), wave, obs)
        assert m1 == pytest.approx(m0, rel=1e-11)

    @given(safe_theta, azimuth, safe_theta, azimuth)
    @settings(max_examples=40)
    def test_rcs_matches_field_power_ratio(self, ti, pi_, ts, ps):
        cells = [UnitCell(np.array([0.4 * k, 0.6 * k, 0.0]), 0.3, 0.3,
                          phase_shift=0.5 * k) for k in range(5)]
        geom = _geometry(cells)
        wave = PlaneWave(Direction(ti, pi_), 1.0)
        obs = ObservationPoint(100.0, Direction(ts, ps))
        mag = ris_field_strength(geom, wave, obs)
        rcs = ris_bistatic_rcs(geom, wave.direction, obs.direction)
        assert abs(4.0 * math.pi * obs.r ** 2 * mag ** 2 - rcs) <= 1e-9 * max(rcs, 1e-30)


class TestPathLengthPhase:
    @given(coord, coord, coord, safe_theta, azimuth)
    @settings(max_examples=40)
    def test_unit_modulus(self, x, y, z, theta, phi):
        factor = path_length_phase(np.array([x, y, z]), Direction(theta, phi), CTX)
        assert abs(abs(factor) - 1.0) < 1e-14


class TestAgainstLinearModel:
    def test_in_plane_cut_matches_linear_array(self):
        # cells along the y-axis observed in the yoz plane reduce to the
        # scalar linear-array model; signed angles map to (|t|, +-90 deg)
        n, d, width = 8, 0.5, 0.1
        cells = [UnitCell(np.array([0.0, k * d, 0.0]), width, width,
                          phase_shift=0.3 * k) for k in range(n)]
        geom = _geometry(cells)
        ris = LinearRis.uniform(n, d, width * width, width=width,
                                phases=[0.3 * k for k in range(n)], ctx=CTX)

        def full_direction(t):
            return Direction(abs(t), math.copysign(math.pi / 2, t) if t != 0
                             else math.pi / 2)

        for ti in (-0.9, -0.2, 0.0, 0.4, 1.1):
            for ts in (-1.2, -0.3, 0.0, 0.5, 1.0):
                wave_full = PlaneWave(full_direction(ti), 1.0)
                wave_lin = PlaneWave(Direction(ti), 1.0)
                obs_full = ObservationPoint(100.0, full_direction(ts))
                obs_lin = ObservationPoint(100.0, Direction(ts))
                m_full = ris_field_strength(geom, wave_full, obs_full)
                m_lin = abs(linear_field(ris, wave_lin, obs_lin))
                assert m_full == pytest.approx(m_lin, rel=1e-10, abs=1e-15)
