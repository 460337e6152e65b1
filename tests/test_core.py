"""Primitives: sinc branches, wave constants, directions, directivity factors."""
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risem import (Direction, ObservationPoint, WaveContext, direction_vector,
                   sampling_sa, sampling_sa_linear, sinc_normalized)
from risem import core
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

    def test_a_chunk_allocates_only_its_result(self):
        import tracemalloc
        arg = np.random.default_rng(5).uniform(-3000.0, 3000.0, (16, 1000))
        _phasor(arg)  # this thread's work arrays
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = _phasor(arg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= got.nbytes + 4096

    def test_threads_at_once_get_the_serial_bits(self):
        import sys
        import threading
        rng = np.random.default_rng(6)
        # more threads than cores, each with arrays of its own shape
        args = [rng.uniform(-1e5, 1e5, (i + 1, 5000 + 977 * i)) for i in range(6)]
        serial = [_bits(_phasor(a).view(float)) for a in args]
        mismatches = []

        def run(i):
            for _ in range(20):
                if not np.array_equal(_bits(_phasor(args[i]).view(float)), serial[i]):
                    mismatches.append(i)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(i,)) for i in range(len(args))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_and_its_parent_at_once_get_the_serial_bits(self):
        rng = np.random.default_rng(7)
        args = [rng.uniform(-1e5, 1e5, (16, 1000)), rng.uniform(-1e3, 1e3, (16, 1000))]
        serial = [_bits(_phasor(a).view(float)) for a in args]  # the work arrays exist

        def agrees(i):
            return all(np.array_equal(_bits(_phasor(args[i]).view(float)), serial[i])
                       for _ in range(200))

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
