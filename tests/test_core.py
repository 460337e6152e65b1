"""Primitives: sinc branches, wave constants, directions, directivity factors."""
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, ObservationPoint, WaveContext, direction_vector,
                   sampling_sa, sampling_sa_linear, sinc_normalized)
from risem import LinearRis, RisGeometry, core, linear, surface
from risem.core import SINC_TAYLOR_CUTOFF, _phasor, _phasor_libm, _sinc_pair

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

    @pytest.mark.parametrize("shape", [(), (1,), (7,), (300, 64)])
    def test_keeps_the_bits_of_the_two_branch_body(self, shape):
        # zeros, signed zeros, values on both sides of the cutoff, and the ordinary range
        rng = np.random.default_rng(len(shape))
        pool = np.array([0.0, -0.0, SINC_TAYLOR_CUTOFF, -SINC_TAYLOR_CUTOFF,
                         np.nextafter(SINC_TAYLOR_CUTOFF, 0.0), 1e-300, -5e-324, np.nan])
        x = np.where(rng.random(shape) < 0.3, rng.choice(pool, shape),
                     rng.uniform(-10.0, 10.0, shape) * 10.0 ** rng.integers(-8, 3, shape))
        small = np.abs(x) < SINC_TAYLOR_CUTOFF
        safe = np.where(small, 1.0, x)
        want = np.where(small, 1.0 - x * x / 6.0, np.sin(safe) / safe)
        got = sinc_normalized(x)
        assert isinstance(got, float) if not shape else got.shape == shape
        assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))
        # every entry on one branch
        assert np.array_equal(np.asarray(sinc_normalized(np.zeros(shape))), np.ones(shape))
        assert np.array_equal(np.asarray(sinc_normalized(np.full(shape, 2.5))),
                              np.full(shape, np.sin(2.5) / 2.5))


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


class TestSphericalField:
    def test_magnitude_of_components_whose_squares_overflow(self):
        assert core.SphericalField(3e200j, 4e200, 0.0).magnitude == pytest.approx(5e200)
        # no square is formed: a magnitude under the float range is finite
        assert core.SphericalField(1e308, 1e308, 1e308).magnitude == pytest.approx(
            np.sqrt(3.0) * 1e308)


class TestDirections:
    @given(finite_angles, finite_angles)
    def test_direction_vector_is_unit(self, theta, phi):
        v = direction_vector(Direction(theta, phi))
        assert abs(np.linalg.norm(v) - 1.0) <= 1e-14

    @pytest.mark.parametrize("theta,phi", [(np.nan, 0.0), (np.inf, 0.0), (0.0, np.nan),
                                           (0.0, -np.inf)])
    def test_direction_angles_must_be_finite(self, theta, phi):
        with pytest.raises(ValueError, match="finite"):
            Direction(theta, phi)

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


def _bits(x) -> np.ndarray:
    """The float64 values of x as uint64, so that equal means equal bits (-0.0 and NaN too)."""
    return np.ascontiguousarray(x, dtype=float).view(np.uint64)


def _widths(rng, size):
    """Edge widths in [0, 3], a quarter of them exactly 0 (the point-cell case)."""
    return np.where(rng.uniform(size=size) < 0.25, 0.0, rng.uniform(0.0, 3.0, size))


class TestEdgeSincKeepsTheBits:
    """_sinc_pair and sampling_sa_linear against their bodies before core._edge_sinc."""

    @pytest.mark.parametrize("seed", range(4))
    def test_sinc_pair(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.2, 5.0)
        a, b = _widths(rng, 64), _widths(rng, 64)
        ux, uy = rng.uniform(-2.0, 2.0, (2, 300, 1))
        want = (sinc_normalized(np.pi * a / lam * ux) * sinc_normalized(np.pi * b / lam * uy))
        assert np.array_equal(_bits(_sinc_pair(a, b, ux, uy, lam)), _bits(want))
        for k in range(64):
            # scalars, as sampling_sa passes them
            a_k, b_k, x, y = float(a[k]), float(b[k]), float(ux[k, 0]), float(uy[k, 0])
            want = sinc_normalized(np.pi * a_k / lam * x) * sinc_normalized(np.pi * b_k / lam * y)
            assert _bits(_sinc_pair(a_k, b_k, x, y, lam)) == _bits(want)

    @pytest.mark.parametrize("seed", range(4))
    def test_sampling_sa_linear(self, seed):
        rng = np.random.default_rng(seed)
        lam = rng.uniform(0.2, 5.0)
        b = _widths(rng, 64)
        theta_s, theta_i = rng.uniform(-1.5, 1.5, (2, 300, 1))
        for width in (b, *b[:16].tolist()):
            want = sinc_normalized((np.pi * np.asarray(width) / lam)
                                   * (np.sin(theta_s) + np.sin(theta_i)))
            assert np.array_equal(_bits(sampling_sa_linear(width, theta_s, theta_i, lam)),
                                  _bits(want))


def test_phasor_is_exp_of_j_arg_bit_for_bit():
    arg = np.random.default_rng(0).uniform(-200.0, 200.0, 3_000_000)
    want = np.exp(1j * arg)
    # _phasor_libm, the fallback and reference, keeps libm's bits; the table path
    # comes within 1e-15
    assert np.array_equal(_bits(_phasor_libm(arg).view(float)), _bits(want.view(float)))
    assert _worst(_phasor(arg), want) <= PHASOR_BOUND


def test_phasor_keeps_the_sign_of_a_negative_zero_argument():
    # a cell at the origin; np.exp(1j * -0.0) has imaginary part +0.0
    got, exp = _phasor(np.array([-0.0, 0.0])), np.exp(1j * np.array([-0.0, 0.0]))
    assert got.real.tolist() == exp.real.tolist() == [1.0, 1.0]
    assert np.signbit(got.imag).tolist() == [True, False]
    assert np.signbit(exp.imag).tolist() == [False, False]


# the largest distance of the table path's cos or sin from libm's
PHASOR_BOUND = 1e-15


def _worst(got, want) -> float:
    """The largest absolute difference of the real or imaginary parts."""
    return float(np.max(np.abs((got - want).view(float)), initial=0.0))


def _ties(rng, count):
    """Arguments whose arg N / 2 pi is exactly an odd multiple of 1/2, where rint picks
    the even neighbour."""
    scale = core._TABLE_SIZE / core.TWO_PI
    halves = rng.integers(-core._TABLE_RANGE * scale, core._TABLE_RANGE * scale,
                          count) + 0.5
    near = halves / scale
    candidates = np.concatenate([near, np.nextafter(near, np.inf), np.nextafter(near, -np.inf)])
    return candidates[candidates * scale % 1.0 == 0.5]


def _result_bits(z) -> np.ndarray:
    """The bits of a complex array's parts, in order."""
    return _bits(np.ascontiguousarray(z).view(float))


def _strided_phasor(arg):
    """_phasor's table path in its strided form, as plain expressions: the table, the
    Cody-Waite reduction, both polynomials in the parts of one complex rotation, in their
    written order, and the complex product in place. The reference of its bits. It runs
    chunk by chunk, as _phasor does, since numpy 2.4 rounds an in-place complex product
    of one entry differently from a longer one's in about one call of four."""
    arg = np.asarray(arg, dtype=float)
    flat = arg.reshape(-1)
    phase = np.empty(flat.shape, dtype=complex)
    for lo in range(0, flat.size, core.CHUNK_TERMS):
        x, out = flat[lo:lo + core.CHUNK_TERMS], phase[lo:lo + core.CHUNK_TERMS]
        shifted = x * (core._TABLE_SIZE / core.TWO_PI) + core._ROUND
        k = shifted - core._ROUND
        r = (x - k * core._STEP_HI) - k * core._STEP_LO
        r2 = r * r
        rotation = np.empty(x.shape, dtype=complex)
        rotation.real = (r2 * (1.0 / 24.0) - 0.5) * r2 + 1.0
        rotation.imag = ((r2 * (1.0 / 120.0) - 1.0 / 6.0) * r2 + 1.0) * r
        out[:] = core._TABLE[shifted.view(np.int64) & (core._TABLE_SIZE - 1)]
        out *= rotation
    return phase.reshape(arg.shape)


def _phasor_call(i):
    """_phasor of (i + 1) x (5000 + 977 i) arguments: one chunk, or several from i = 2."""
    arg = np.random.default_rng(6 + i).uniform(-1e5, 1e5, (i + 1, 5000 + 977 * i))
    return lambda: _phasor(arg)


def _factored_call(i):
    """surface._factored_sums on 32 x 32 cells for 2 waves and 41 + 16 i scatter points:
    chunks of 16 points, the last one short."""
    rng = np.random.default_rng(10 + i)
    grid = np.arange(32) * 0.5
    positions = np.stack(np.broadcast_arrays(grid[:, None], grid, 0.0), axis=-1).reshape(-1, 3)
    geom = RisGeometry.from_arrays(positions, np.full(1024, 0.4), np.full(1024, 0.4),
                                   [None] * 1024, rng.uniform(0.0, 6.0, 1024), WaveContext())
    u_i = core._unit_vectors(np.array([0.3, 0.5]), np.array([0.2, -1.0]))
    points = 41 + 16 * i
    u_s = core._unit_vectors(rng.uniform(0.1, 1.4, points), rng.uniform(-3.0, 3.0, points))
    return lambda: surface._factored_sums(geom, u_i, u_s)


def _blocked_call(reduce):
    """A factory of linear._blocked_sum calls on 1000 + 24 i cells, 97 + 31 i sines, two
    incident sines and three weight columns, with reduce."""
    def make(i):
        rng = np.random.default_rng(20 + i)
        n = 1000 + 24 * i
        ris = LinearRis.uniform(n, 0.5, 0.01)
        weights = rng.uniform(0.1, 1.0, (n, 3)) * np.exp(1j * rng.uniform(0.0, 6.0, (n, 3)))
        sines, sin_i = np.sin(np.linspace(-1.5, 1.5, 97 + 31 * i)), np.sin([0.3, -0.2])
        return lambda: linear._blocked_sum(ris, sines, sin_i, weights, *linear._blocks(ris, 2.0),
                                           reduce)
    return make


def _per_cell_call(n):
    """A factory of linear._weighted_sum calls on n cells that take the per-cell branch,
    for 31 + 16 i sines in [-2, 2] and one weight column: 8192 cells past the blocked
    sum's bound, in chunks of two sines, or 17 cells, which blocks never take."""
    def make(i):
        rng = np.random.default_rng(30 + i)
        ris = LinearRis.uniform(n, 0.75, 0.01)
        weights = rng.uniform(0.1, 1.0, n) * np.exp(1j * rng.uniform(0.0, 6.0, n))
        sines = np.linspace(-2.0, 2.0, 31 + 16 * i)
        assert linear._blocks(ris, 2.0) is None
        return lambda: linear._weighted_sum(ris, sines, np.zeros(1), weights)
    return make


# the kernels that take their temporaries from core._chunk_array: a factory of calls i,
# the copies of its result that a call holds (_chunked keeps each chunk's result until it
# joins them), and the bytes it may take besides them. The kernels' own per-call arrays of
# cells or phases stay under one complex work array; with its four chunk arrays made per
# call, the factored sum took 0.9 MB besides its result
POOLED = {
    "phasor": (_phasor_call, 1, 4096),
    "factored": (_factored_call, 1, core.CHUNK_TERMS * 16),
    "blocked": (_blocked_call(None), 2, core.CHUNK_TERMS * 16),
    "blocked-reduce": (_blocked_call(lambda c, sums: sums.sum(axis=-1)), 2, core.CHUNK_TERMS * 16),
    "per-cell-8192": (_per_cell_call(8192), 2, core.CHUNK_TERMS * 16),
    "per-cell-17": (_per_cell_call(17), 2, core.CHUNK_TERMS * 16),
}


class TestPhasorKeepsTheBits:
    """_phasor's table path against _strided_phasor, bit for bit. The 1e-15 bound against
    libm would pass a change that moves every value by one unit in the last place."""

    @staticmethod
    def _agree(arg):
        assert np.abs(arg).max() <= core._TABLE_RANGE
        want = _result_bits(_strided_phasor(arg))
        assert np.array_equal(_result_bits(_phasor(arg)), want)
        assert np.array_equal(_result_bits(_phasor(arg, out=np.empty(arg.shape, complex))), want)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_arguments_up_to_the_range_limit(self, seed):
        rng = np.random.default_rng(100 + seed)
        limit = core._TABLE_RANGE
        self._agree(np.concatenate([
            rng.uniform(-limit, limit, 200_000),
            rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(-20, 6.02, 200_000),
            [-limit, limit, 5e-324, -5e-324]]))

    def test_half_step_ties_of_rint(self):
        arg = _ties(np.random.default_rng(101), 20_000)
        assert arg.size > 10_000
        self._agree(arg)

    def test_table_nodes_and_their_neighbours(self):
        last = int(core._TABLE_RANGE / core._STEP)
        nodes = np.concatenate([np.random.default_rng(102).integers(-last, last + 1, 100_000),
                                np.arange(-core._TABLE_SIZE, core._TABLE_SIZE + 1)]) * core._STEP
        self._agree(np.concatenate([nodes, np.nextafter(nodes, np.inf),
                                    np.nextafter(nodes, -np.inf)]))

    def test_signed_zeros(self):
        arg = np.array([-0.0, 0.0, -0.0, 1.0])
        self._agree(arg)
        assert np.signbit(_phasor(arg).imag).tolist() == [True, False, True, False]

    @pytest.mark.parametrize("size", [1, core.CHUNK_TERMS - 1, core.CHUNK_TERMS,
                                      core.CHUNK_TERMS + 1, 3 * core.CHUNK_TERMS + 5])
    def test_lengths_on_both_sides_of_a_chunk(self, size):
        self._agree(np.random.default_rng(size).uniform(-1e4, 1e4, size))
        # and as three rows of that length
        self._agree(np.random.default_rng(size).uniform(-1e4, 1e4, (3, size)))


class TestTablePhasor:
    """_phasor's table path against _phasor_libm, and the inputs that take the fallback."""

    @pytest.mark.parametrize("seed", range(3))
    def test_random_arguments_up_to_the_range_limit(self, seed):
        rng = np.random.default_rng(seed)
        limit = core._TABLE_RANGE
        arg = np.concatenate([rng.uniform(-limit, limit, 400_000),
                              rng.choice([-1.0, 1.0], 400_000) * 10.0 ** rng.uniform(-20, 6.02,
                                                                                     400_000),
                              [-limit, limit, 0.0, -0.0, 5e-324, -5e-324]])
        assert np.abs(arg).max() == limit
        assert _worst(_phasor(arg), _phasor_libm(arg)) <= PHASOR_BOUND

    def test_half_step_ties_of_rint(self):
        arg = _ties(np.random.default_rng(3), 20_000)
        assert arg.size > 10_000
        assert _worst(_phasor(arg), _phasor_libm(arg)) <= PHASOR_BOUND

    def test_multiples_of_a_quarter_turn_and_table_nodes(self):
        rng = np.random.default_rng(4)
        quarter = np.arange(-2 ** 18, 2 ** 18 + 1) * (np.pi / 2)
        last = int(core._TABLE_RANGE / core._STEP)
        nodes = rng.integers(-last, last + 1, 100_000) * core._STEP
        for arg in (quarter, nodes, np.arange(core._TABLE_SIZE) * core._STEP):
            arg = np.concatenate([arg, np.nextafter(arg, np.inf), np.nextafter(arg, -np.inf)])
            assert _worst(_phasor(arg), _phasor_libm(arg)) <= PHASOR_BOUND

    def test_the_table_holds_the_exact_symmetries(self):
        table, n = core._TABLE, core._TABLE_SIZE
        assert table[0] == 1 and table[n // 4] == 1j and table[n // 2] == -1
        assert table[3 * n // 4] == -1j
        assert np.array_equal(table[1:], np.conj(table[1:][::-1]))
        assert _worst(table, _phasor_libm(np.arange(n) * core._STEP)) <= PHASOR_BOUND

    @pytest.mark.parametrize("arg", [
        np.float64(0.3), np.array(-0.0), np.zeros((0, 5)), np.array([1.0, np.nan, 2.0]),
        np.array([[0.5, np.inf], [1.0, 2.0]]), np.array([1.0, -np.inf]),
        np.array([0.25, np.nextafter(core._TABLE_RANGE, np.inf)]),
        np.array([-2.0 * core._TABLE_RANGE, 3.0]),
    ], ids=["0-d", "0-d-negative-zero", "empty", "nan", "inf", "negative-inf",
            "past-the-range", "far-past-the-range"])
    def test_the_fallback_takes_the_whole_array(self, arg):
        with np.errstate(invalid="ignore"):
            got, want = _phasor(arg), _phasor_libm(arg)
        assert got.shape == want.shape == np.shape(arg)
        assert np.array_equal(_bits(got.reshape(-1).view(float)),
                              _bits(want.reshape(-1).view(float)))

    @pytest.mark.parametrize("kernel", POOLED)
    def test_a_second_call_allocates_only_its_result(self, kernel):
        make, copies, limit = POOLED[kernel]
        call = make(2)
        call()  # this thread's work arrays
        # numpy's iterator buffers, 1024 entries each, stay out of the count
        old = np.setbufsize(1024)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = call()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
            np.setbufsize(old)
        assert peak <= copies * got.nbytes + limit

    @pytest.mark.parametrize("limit", [1e3, 4.0 * core._TABLE_RANGE], ids=["table", "libm"])
    def test_out_receives_the_bits_and_nothing_is_allocated(self, limit):
        arg = np.random.default_rng(8).uniform(-limit, limit, (16, 1000))
        want = _phasor(arg)
        out = np.empty((20, 1000), dtype=complex)[:16]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = _phasor(arg, out=out)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert got is out and peak <= 4096
        assert np.array_equal(_bits(out.view(float)), _bits(want.view(float)))

    @pytest.mark.parametrize("kernel", POOLED)
    def test_threads_at_once_get_the_serial_bits(self, kernel):
        import sys
        import threading
        # more threads than cores, each with arrays of its own shape
        calls = [POOLED[kernel][0](i) for i in range(6)]
        serial = [_result_bits(call()) for call in calls]
        mismatches = []

        def run(i):
            for _ in range(20):
                if not np.array_equal(_result_bits(calls[i]()), serial[i]):
                    mismatches.append(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.parametrize("kernel", POOLED)
    def test_a_forked_child_and_its_parent_at_once_get_the_serial_bits(self, kernel):
        calls = [POOLED[kernel][0](i) for i in range(2)]
        serial = [_result_bits(call()) for call in calls]  # the work arrays exist

        def agrees(i):
            return all(np.array_equal(_result_bits(calls[i]()), serial[i]) for _ in range(200))

        pid = os.fork()
        if pid == 0:
            try:
                os._exit(0 if agrees(1) else 1)
            finally:
                os._exit(2)
        parent_agrees = agrees(0)
        _, status = os.waitpid(pid, 0)
        assert parent_agrees and os.waitstatus_to_exitcode(status) == 0


def test_star_import_binds_no_module():
    import types

    import risem
    assert "Patch" in risem.__all__ and "beam_reshape" in risem.__all__
    assert [n for n in risem.__all__ if isinstance(getattr(risem, n), types.ModuleType)] == []
