"""Array superposition: cell sums, translation covariance, model consistency."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, ObservationPoint, PlaneWave,
                   RisGeometry, UnitCell, WaveContext, linear_field,
                   patch_scattered_field, path_length_phase, ris_bistatic_rcs,
                   ris_scattered_field, ris_scattered_field_multi,
                   sinc_normalized)
from risem.core import CHUNK_TERMS, direction_vector
from risem.surface import _sum_cells

CTX = WaveContext()
safe_theta = st.floats(0.0, math.radians(85.0))
azimuth = st.floats(-np.pi, np.pi)
coord = st.floats(-10.0, 10.0)


def _geometry(cells):
    return RisGeometry(tuple(cells), CTX)


def _direct_cell_sum(ris: RisGeometry, incident: Direction, scatter: Direction) -> complex:
    """Sum over cells of (A_n/lam) e^{j Omega_n} Sa_n e^{j 2 pi p.(u_i+u_s)/lam}.

    One direction pair at a time, with the cell data restacked from the cells.
    """
    lam = ris.ctx.wavelength
    u = direction_vector(incident) + direction_vector(scatter)
    proj = np.stack([c.position for c in ris.cells]) @ u
    a = np.array([c.a for c in ris.cells])
    b = np.array([c.b for c in ris.cells])
    areas = np.array([c.area for c in ris.cells])
    phases = np.array([c.phase_shift for c in ris.cells])
    sx = np.sin(scatter.theta) * np.cos(scatter.phi) + np.sin(incident.theta) * np.cos(incident.phi)
    sy = np.sin(scatter.theta) * np.sin(scatter.phi) + np.sin(incident.theta) * np.sin(incident.phi)
    sa = sinc_normalized(np.pi * a / lam * sx) * sinc_normalized(np.pi * b / lam * sy)
    terms = (areas / lam) * np.exp(1j * phases) * sa * np.exp(1j * 2.0 * np.pi * proj / lam)
    return complex(np.sum(terms))


def _random_geometry(n: int, rng) -> RisGeometry:
    pos = rng.uniform(-3.0, 3.0, (n, 3))
    a, b = rng.uniform(0.05, 1.5, n), rng.uniform(0.05, 1.5, n)
    areas, phases = rng.uniform(0.01, 2.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
    return RisGeometry([UnitCell(pos[k], a[k], b[k], areas[k], phases[k]) for k in range(n)],
                       WaveContext(rng.uniform(0.5, 2.0)))


def _kernel_deviation(geom, incident, scatter):
    """max|kernel - direct sum| / max|direct sum| over broadcast direction arrays.

    incident and scatter are (theta, phi) pairs of arrays.
    """
    ti, pi_, ts, ps = np.broadcast_arrays(*incident, *scatter)
    u = (np.stack([np.sin(ti) * np.cos(pi_), np.sin(ti) * np.sin(pi_), np.cos(ti)], axis=-1)
         + np.stack([np.sin(ts) * np.cos(ps), np.sin(ts) * np.sin(ps), np.cos(ts)], axis=-1))
    got = _sum_cells(geom, u)
    want = np.array([_direct_cell_sum(geom, Direction(a, b), Direction(c, d))
                     for a, b, c, d in zip(ti.ravel(), pi_.ravel(), ts.ravel(), ps.ravel())])
    assert got.shape == ti.shape
    return np.max(np.abs(got - want.reshape(ti.shape))) / np.max(np.abs(want))


class TestCellSumKernel:
    @given(st.sampled_from([1, 2, 5, 100, 2 ** 14 - 1, 2 ** 14 + 3]),
           st.sampled_from([((), ()), ((), (5,)), ((7,), ()), ((6,), (6,)),
                            ((3, 1), (1, 4)), ((2, 3), ())]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_kernel_equals_direct_sum(self, n, shapes, seed):
        rng = np.random.default_rng(seed)
        geom = _random_geometry(n, rng)
        incident = (rng.uniform(0.0, np.pi / 2, shapes[0]), rng.uniform(-np.pi, np.pi, shapes[0]))
        scatter = (rng.uniform(0.0, np.pi / 2, shapes[1]), rng.uniform(-np.pi, np.pi, shapes[1]))
        assert _kernel_deviation(geom, incident, scatter) <= 1e-12

    @pytest.mark.parametrize("n,count", [
        (1, CHUNK_TERMS + 5),          # one cell: many directions per chunk, one spill-over
        (100, 3 * (CHUNK_TERMS // 100) + 7),
        (2 ** 14 - 1, 3),              # one direction per chunk
        (2 ** 14 + 3, 2),              # a chunk larger than CHUNK_TERMS
    ])
    def test_chunk_edges(self, n, count):
        rng = np.random.default_rng(n)
        geom = _random_geometry(n, rng)
        scatter = (np.linspace(0.0, 1.5, count), np.linspace(-3.0, 3.0, count))
        assert _kernel_deviation(geom, (0.4, 0.9), scatter) <= 1e-12


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
        assert (ris_scattered_field(two, wave, obs).magnitude
                == pytest.approx(2.0 * ris_scattered_field(one, wave, obs).magnitude))

    def test_opposite_phases_cancel(self):
        geom = _geometry([UnitCell(np.zeros(3), 1.0, 1.0, phase_shift=0.0),
                          UnitCell(np.zeros(3), 1.0, 1.0, phase_shift=np.pi)])
        wave = PlaneWave(Direction(0.3, 0.4), 1.0)
        obs = ObservationPoint(50.0, Direction(0.6, -0.2))
        assert ris_scattered_field(geom, wave, obs).magnitude < 1e-15

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
        m0 = ris_scattered_field(_geometry(cells), wave, obs).magnitude
        m1 = ris_scattered_field(_geometry(moved), wave, obs).magnitude
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
        m0 = ris_scattered_field(_geometry(cells), wave, obs).magnitude
        m1 = ris_scattered_field(_geometry(offset), wave, obs).magnitude
        assert m1 == pytest.approx(m0, rel=1e-11)

    @given(safe_theta, azimuth, safe_theta, azimuth)
    @settings(max_examples=40)
    def test_rcs_matches_field_power_ratio(self, ti, pi_, ts, ps):
        cells = [UnitCell(np.array([0.4 * k, 0.6 * k, 0.0]), 0.3, 0.3,
                          phase_shift=0.5 * k) for k in range(5)]
        geom = _geometry(cells)
        wave = PlaneWave(Direction(ti, pi_), 1.0)
        obs = ObservationPoint(100.0, Direction(ts, ps))
        mag = ris_scattered_field(geom, wave, obs).magnitude
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
                m_full = ris_scattered_field(geom, wave_full, obs_full).magnitude
                m_lin = abs(linear_field(ris, wave_lin, obs_lin))
                assert m_full == pytest.approx(m_lin, rel=1e-10, abs=1e-15)
