"""Array superposition: cell sums, translation covariance, model consistency."""
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, ObservationPoint, Patch, PlaneWave,
                   RisGeometry, UnitCell, WaveContext, linear_field,
                   patch_scattered_field, path_length_phase, ris_bistatic_rcs,
                   ris_scattered_field, ris_scattered_field_multi,
                   sinc_normalized)
from risem import surface as surface_module
from risem.core import CHUNK_TERMS, direction_vector
from risem.surface import _FACTORED_RANGE, _factored_sums, _sum_cells

CTX = WaveContext()
safe_theta = st.floats(0.0, math.radians(85.0))
azimuth = st.floats(-np.pi, np.pi)
coord = st.floats(-10.0, 10.0)


def _geometry(cells):
    return RisGeometry(tuple(cells), CTX)


def _cell_data(ris: RisGeometry) -> tuple:
    """(positions, a, b, areas, phases) restacked from the cells, not read off the arrays."""
    cells = ris.cells
    return (np.stack([c.position for c in cells]),
            *(np.array([getattr(c, name) for c in cells])
              for name in ("a", "b", "area", "phase_shift")))


def _direct_sum_at(cells: tuple, lam: float, u) -> complex:
    """Sum over cells of (A_n/lam) e^{j Omega_n} Sa_n e^{j 2 pi p.u/lam} at one u = u_i + u_s.

    Over the cell data of _cell_data.
    """
    positions, a, b, areas, phases = cells
    sa = sinc_normalized(np.pi * a / lam * u[0]) * sinc_normalized(np.pi * b / lam * u[1])
    terms = (areas / lam) * np.exp(1j * phases) * sa * np.exp(1j * 2.0 * np.pi * (positions @ u)
                                                              / lam)
    return complex(np.sum(terms))


def _direct_cell_sum(cells: tuple, lam: float, incident: Direction, scatter: Direction) -> complex:
    """_direct_sum_at for one direction pair, at u = u_i + u_s."""
    return _direct_sum_at(cells, lam, direction_vector(incident) + direction_vector(scatter))


def _random_geometry(n: int, rng) -> RisGeometry:
    pos = rng.uniform(-3.0, 3.0, (n, 3))
    a, b = rng.uniform(0.05, 1.5, n), rng.uniform(0.05, 1.5, n)
    areas, phases = rng.uniform(0.01, 2.0, n), rng.uniform(0.0, 2.0 * np.pi, n)
    return RisGeometry.from_arrays(pos, a, b, areas, phases, WaveContext(rng.uniform(0.5, 2.0)))


def _kernel_deviation(geom, incident, scatter):
    """max|kernel - direct sum| / max|direct sum| over broadcast direction arrays.

    incident and scatter are (theta, phi) pairs of arrays.
    """
    ti, pi_, ts, ps = np.broadcast_arrays(*incident, *scatter)
    u = (np.stack([np.sin(ti) * np.cos(pi_), np.sin(ti) * np.sin(pi_), np.cos(ti)], axis=-1)
         + np.stack([np.sin(ts) * np.cos(ps), np.sin(ts) * np.sin(ps), np.cos(ts)], axis=-1))
    got = _sum_cells(geom, u)
    cells, lam = _cell_data(geom), geom.ctx.wavelength
    want = np.array([_direct_cell_sum(cells, lam, Direction(a, b), Direction(c, d))
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


    @pytest.mark.parametrize("shape_t,shape_p", [((), ()), ((13,), ()), ((9, 1), (1, 7))])
    def test_fields_over_waves_take_one_cell_sum(self, monkeypatch, shape_t, shape_p):
        calls = []

        def spy(geom, u_i, u_s):
            calls.append((np.shape(u_i), np.shape(u_s)))
            return _factored_sums(geom, u_i, u_s)

        monkeypatch.setattr(surface_module, "_factored_sums", spy)
        rng = np.random.default_rng(8)
        geom = _random_geometry(40, rng)
        waves = [PlaneWave(Direction(t, p), a)
                 for t, p, a in ((0.2, 0.0, 1.0), (0.7, 1.5, 0.4), (1.2, -2.0, 2.5))]
        theta_s = rng.uniform(0.0, 1.5, shape_t)
        phi_s = rng.uniform(-np.pi, np.pi, shape_p)
        e_theta, e_phi = surface_module._fields(geom, waves, 60.0, theta_s, phi_s)
        shape = np.broadcast_shapes(shape_t, shape_p)
        assert calls == [((3, 3), (*shape, 3))]
        assert e_theta.shape == e_phi.shape == shape
        # against the sum of its one-wave fields
        parts = [surface_module._fields(geom, [w], 60.0, theta_s, phi_s) for w in waves]
        for k, got in enumerate((e_theta, e_phi)):
            want = sum(p[k] for p in parts)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _unit(theta, phi) -> np.ndarray:
    return direction_vector(Direction(theta, phi))


def _spy_on_the_per_term_sum(monkeypatch) -> list:
    """The u arrays that _factored_sums hands to _sum_cells, one per call."""
    calls = []

    def spy(geom, u):
        calls.append(np.array(u))
        return _sum_cells(geom, u)

    monkeypatch.setattr(surface_module, "_sum_cells", spy)
    return calls


def _factored_deviation(geom, u_i, u_s) -> float:
    """The largest distance of _factored_sums from the per-term sum and from the direct sum,
    over the largest direct value; 0 when there is nothing to sum."""
    got = _factored_sums(geom, u_i, u_s)
    u = u_i.reshape((len(u_i),) + (1,) * (u_s.ndim - 1) + (3,)) + u_s
    per_term = _sum_cells(geom, u)
    cells, lam = _cell_data(geom), geom.ctx.wavelength
    direct = np.array([_direct_sum_at(cells, lam, v) for v in u.reshape(-1, 3)])
    assert got.shape == per_term.shape == (len(u_i), *u_s.shape[:-1])
    if not direct.size:
        return 0.0
    direct = direct.reshape(got.shape)
    worst = max(np.max(np.abs(got - per_term)), np.max(np.abs(got - direct)))
    return worst / np.max(np.abs(direct))


class TestFactoredSum:
    """_factored_sums against the per-term sum it keeps as a fallback, and the direct sum."""

    @given(st.sampled_from([1, 2, 5, 100, 2 ** 14 - 1, 2 ** 14 + 3]), st.integers(0, 3),
           st.sampled_from([(), (5,), (7,), (6,), (3, 4), (2, 3)]),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_waves_and_scatter_shapes(self, n, waves, shape, seed):
        rng = np.random.default_rng(seed)
        geom = _random_geometry(n, rng)
        u_i = _unit(rng.uniform(0.0, np.pi / 2, waves), rng.uniform(-np.pi, np.pi, waves))
        u_s = _unit(rng.uniform(0.0, np.pi / 2, shape), rng.uniform(-np.pi, np.pi, shape))
        assert _factored_deviation(geom, u_i.reshape(waves, 3), u_s) <= 1e-12

    @pytest.mark.parametrize("n,count", [(1, CHUNK_TERMS + 5), (100, 3 * (CHUNK_TERMS // 100) + 7),
                                         (2 ** 14 + 3, 2)])
    def test_chunk_edges(self, n, count):
        rng = np.random.default_rng(n)
        geom = _random_geometry(n, rng)
        u_i = np.array([_unit(0.4, 0.9), _unit(1.2, -2.0)])
        u_s = _unit(np.linspace(0.0, 1.5, count), np.linspace(-3.0, 3.0, count))
        assert _factored_deviation(geom, u_i, u_s) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 100, 2 ** 14 - 1, 2 ** 14 + 3])
    def test_rows_with_a_zero_or_tiny_component_take_the_per_term_sum(self, monkeypatch, n):
        geom = _random_geometry(n, np.random.default_rng(n))
        # normal incidence, then an oblique wave for which every row is ordinary
        u_i = np.array([[0.0, 0.0, 1.0], _unit(0.4, 0.9)])
        u_s = np.array([[0.0, 0.3, 0.8],      # u_x = 0
                        [0.5, 0.0, 0.8],      # u_y = 0
                        [0.0, 0.0, 1.0],      # both
                        [1e-300, 0.3, 0.8],   # |u_x| of 1e-300
                        [-1e-300, 0.0, 0.9],
                        [0.5, 2.2e-311, 0.8],  # a subnormal u_y: 1/(u_x u_y) overflows
                        [0.5, 0.3, 0.8]])
        calls = _spy_on_the_per_term_sum(monkeypatch)
        got = _factored_sums(geom, u_i, u_s)
        assert len(calls) == 1 and np.array_equal(calls[0], u_i[0] + u_s[:6])
        # those rows are the per-term sum's, bit for bit
        assert np.array_equal(got[0, :6], _sum_cells(geom, u_i[0] + u_s[:6]))
        assert _factored_deviation(geom, u_i, u_s) <= 1e-12

    @pytest.mark.parametrize("edge", [1e-160, 1e6])
    @pytest.mark.parametrize("given_area", [True, False], ids=["area", "no-area"])
    def test_edges_far_from_the_wavelength(self, monkeypatch, edge, given_area):
        rng = np.random.default_rng(3)
        n, lam = 5, 0.8
        a, b = edge * lam * rng.uniform(0.5, 1.0, (2, n))
        areas = a * b * rng.uniform(0.5, 1.0, n) if given_area else [None] * n
        geom = RisGeometry.from_arrays(rng.uniform(-3.0, 3.0, (n, 3)), a, b, areas,
                                       rng.uniform(0.0, 6.0, n), WaveContext(lam))
        u_i = np.array([_unit(0.3, 0.5), _unit(1.1, -2.0)])
        u_s = _unit(rng.uniform(0.1, 1.4, 7), rng.uniform(-3.0, 3.0, 7))
        calls = _spy_on_the_per_term_sum(monkeypatch)
        assert _factored_deviation(geom, u_i, u_s) <= 1e-12
        # edges of 1e-160 wavelengths put pi a/lam under the bound: every (wave, point)
        # row takes the per-term sum
        assert [np.shape(u) for u in calls] == ([(14, 3)] if edge < 1 else [])

    @pytest.mark.parametrize("column", ["a", "b", "area"])
    @pytest.mark.parametrize("side", [-1, 1], ids=["under", "over"])
    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_both_sides_of_the_geometry_bound(self, monkeypatch, column, side, inside):
        # pi a/lam, pi b/lam or A/lam at twice or half the bound, the others ordinary
        value = (_FACTORED_RANGE / 2.0 if inside else 2.0 * _FACTORED_RANGE) ** side
        rng = np.random.default_rng(4)
        n = 4
        columns = {"a": rng.uniform(0.2, 0.45, n), "b": rng.uniform(0.2, 0.45, n),
                   "area": rng.uniform(0.05, 0.2, n)}
        columns[column][1] = value / np.pi if column != "area" else value
        geom = RisGeometry.from_arrays(rng.uniform(-2.0, 2.0, (n, 3)), columns["a"],
                                       columns["b"], columns["area"], rng.uniform(0.0, 6.0, n),
                                       CTX)
        u_i = np.array([_unit(0.3, 0.5)])
        u_s = _unit(rng.uniform(0.1, 1.4, 6), rng.uniform(-3.0, 3.0, 6))
        calls = _spy_on_the_per_term_sum(monkeypatch)
        assert _factored_deviation(geom, u_i, u_s) <= 1e-12
        assert [np.shape(u) for u in calls] == ([] if inside else [(6, 3)])

    @pytest.mark.parametrize("inside", [True, False], ids=["inside", "outside"])
    def test_both_sides_of_the_row_bound(self, monkeypatch, inside):
        geom = _random_geometry(6, np.random.default_rng(5))
        u_x = 2.0 ** (-150 if inside else -151)
        u_i = np.array([[0.0, 0.0, 1.0]])
        u_s = np.array([[u_x, 2.0 * u_x, 0.9], [0.4, 0.3, 0.8]])
        # |u_x u_y| at twice or half the bound
        assert u_x * 2.0 * u_x == (2.0 if inside else 0.5) / _FACTORED_RANGE
        calls = _spy_on_the_per_term_sum(monkeypatch)
        assert _factored_deviation(geom, u_i, u_s) <= 1e-12
        assert [np.shape(u) for u in calls] == ([] if inside else [(1, 3)])


class TestFromArrays:
    POSITIONS = [[0.0, 0.0, 0.0], [0.5, -0.25, 0.1]]

    def test_columns_give_what_unit_cells_give(self):
        got = RisGeometry.from_arrays(self.POSITIONS, [1, 0.5], [2, 0.4], [None, 0.1],
                                      [-1.0, 7.0], CTX)
        want = RisGeometry([UnitCell(np.array(p), a, b, area, phase) for p, a, b, area, phase
                            in zip(self.POSITIONS, [1.0, 0.5], [2.0, 0.4], [None, 0.1],
                                   [-1.0, 7.0])], CTX)
        for name in ("positions", "a", "b", "areas", "phases"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert got.areas.tolist() == [2.0, 0.1]
        assert [c.phase_shift for c in got.cells] == [c.phase_shift for c in want.cells]

    def test_cells_of_an_area_past_the_float_range_read_back(self):
        # a*b = inf is accepted when no area is given, and its cells must give it back
        geom = RisGeometry.from_arrays([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]], [1e200, 0.5],
                                       [1e200, 0.4], [None, 0.3], [0.0, 1.0], CTX)
        cells = geom.cells
        assert [c.area for c in cells] == [math.inf, 0.3]
        back = RisGeometry(cells, CTX)
        for name in ("positions", "a", "b", "areas", "phases"):
            assert np.array_equal(getattr(back, name), getattr(geom, name)), name

    @pytest.mark.parametrize("change,message", [
        ({"positions": [[0.0, 0.0], [0.0, 0.0]]}, "finite 3-vector"),
        ({"positions": [[0.0, 0.0, np.nan], [0.0, 0.0, 0.0]]}, "finite 3-vector"),
        ({"a": [1.0, 0.0]}, "edges"),
        ({"b": [1.0, np.inf]}, "edges"),
        ({"areas": [None, -1.0]}, "area"),
        ({"areas": [np.nan, None]}, "area"),
        ({"phases": [0.0]}, "2 values each"),
        ({"positions": np.empty((0, 3)), "a": [], "b": [], "areas": [], "phases": []},
         "at least one cell"),
    ])
    def test_refusals(self, change, message):
        columns = {"positions": self.POSITIONS, "a": [1.0, 1.0], "b": [1.0, 1.0],
                   "areas": [None, None], "phases": [0.0, 0.0], **change}
        with pytest.raises(ValueError, match=message):
            RisGeometry.from_arrays(**columns, ctx=CTX)

    @pytest.mark.parametrize("bad,message,row", [
        ({"a": {3: 0.0}, "phases": {1: np.inf}}, "cell edges must be positive and finite", 1),
        ({"positions": {4: np.nan}, "areas": {2: -1.0}}, "cell position must be a finite 3-vector",
         2),
        ({"b": {5: np.nan}, "areas": {5: 0.0}}, "cell edges must be positive and finite", 5),
        ({"phases": {0: np.nan}}, "cell phase must be finite", 0),
    ])
    def test_a_refusal_names_the_first_check_and_the_first_row(self, bad, message, row):
        n = 6
        columns = {"positions": np.zeros((n, 3)), "a": [1.0] * n, "b": [1.0] * n,
                   "areas": [None] * n, "phases": [0.0] * n}
        for name, values in bad.items():
            for k, value in values.items():
                columns[name][k] = value
        with pytest.raises(ValueError) as refused:
            RisGeometry.from_arrays(**columns, ctx=CTX)
        assert str(refused.value) == message and refused.value.row == row


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


_EDGES = "cell edges must be positive and finite"
_AREA = "cell area must be positive and finite"
_POSITION = "cell position must be a finite 3-vector"
_PHASE = "cell phase must be finite"
# (position, a, b, area, phase) of one refused cell, and the message of every constructor
BAD_CELLS = {
    "zero-a": ((0.0, 0.0, 0.0), 0.0, 1.0, None, 0.0, _EDGES),
    "negative-b": ((0.0, 0.0, 0.0), 1.0, -1.0, None, 0.0, _EDGES),
    "nan-a": ((0.0, 0.0, 0.0), np.nan, 1.0, None, 0.0, _EDGES),
    "infinite-b": ((0.0, 0.0, 0.0), 1.0, np.inf, 2.0, 0.0, _EDGES),
    "zero-area": ((0.0, 0.0, 0.0), 1.0, 1.0, 0.0, 0.0, _AREA),
    "negative-area": ((0.0, 0.0, 0.0), 1.0, 1.0, -2.0, 0.0, _AREA),
    "nan-area": ((0.0, 0.0, 0.0), 1.0, 1.0, np.nan, 0.0, _AREA),
    "infinite-area": ((0.0, 0.0, 0.0), 1.0, 1.0, np.inf, 0.0, _AREA),
    "position-of-2": ((0.0, 0.0), 1.0, 1.0, None, 0.0, _POSITION),
    "position-of-4": ((0.0, 0.0, 0.0, 0.0), 1.0, 1.0, None, 0.0, _POSITION),
    "nan-position": ((0.0, np.nan, 0.0), 1.0, 1.0, None, 0.0, _POSITION),
    "infinite-position": ((-np.inf, 0.0, 0.0), 1.0, 1.0, None, 1.0, _POSITION),
    "infinite-phase": ((0.0, 0.0, 0.0), 1.0, 1.0, None, np.inf, _PHASE),
    "negative-infinite-phase": ((0.0, 0.0, 0.0), 1.0, 1.0, 0.5, -np.inf, _PHASE),
    "nan-phase": ((0.0, 0.0, 0.0), 1.0, 1.0, None, np.nan, _PHASE),
    # the first failed check names the refusal
    "bad-edge-and-phase": ((0.0, 0.0, 0.0), 0.0, 1.0, None, np.inf, _EDGES),
    "bad-position-and-area": ((0.0, 0.0), 1.0, 1.0, -1.0, 0.0, _POSITION),
}


@pytest.mark.parametrize("case", BAD_CELLS)
def test_every_constructor_refuses_a_cell_in_the_same_words(case):
    position, a, b, area, phase, message = BAD_CELLS[case]
    position = np.array(position)
    makers = [lambda: UnitCell(position, a, b, area, phase),
              # RisGeometry(cells) checks its cells again, so a cell that skipped its own checks
              # is refused too
              lambda: RisGeometry([SimpleNamespace(position=position, a=a, b=b, area=area,
                                                   phase_shift=phase)], CTX),
              lambda: RisGeometry.from_arrays([position], [a], [b], [area], [phase], CTX)]
    if len(position) == 3 and not position.any() and phase == 0.0:
        makers.append(lambda: Patch(a, b, area))
    for make in makers:
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == message


def test_a_non_finite_phase_is_refused_not_a_nan_field():
    cell = UnitCell(np.zeros(3), 0.3, 0.3)
    for phase in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="^cell phase must be finite$"):
            UnitCell(np.zeros(3), 0.3, 0.3, None, phase)
        with pytest.raises(ValueError, match="^cell phase must be finite$"):
            RisGeometry([cell, SimpleNamespace(position=np.ones(3), a=0.3, b=0.3, area=0.09,
                                               phase_shift=phase)], CTX)
        with pytest.raises(ValueError, match="^cell phase must be finite$"):
            RisGeometry.from_arrays(np.zeros((2, 3)), [0.3] * 2, [0.3] * 2, [None] * 2,
                                    [0.0, phase], CTX)


def test_a_cell_reads_its_values_back_as_floats():
    cell = UnitCell([0, 1, 2], 2, 3, phase_shift=1)
    assert cell.position.dtype == np.float64 and cell.position.tolist() == [0.0, 1.0, 2.0]
    assert [(type(v), v) for v in (cell.a, cell.b, cell.area, cell.phase_shift)] == [
        (float, 2.0), (float, 3.0), (float, 6.0), (float, 1.0)]
    # as before, a*b may leave the float range where no area is given, and the cell's
    # geometry takes it as it is
    for edge, area in ((1e200, np.inf), (1e-200, 0.0)):
        cell = UnitCell(np.zeros(3), edge, edge)
        assert cell.area == area
        assert RisGeometry([cell], CTX).areas.tolist() == [area]


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
