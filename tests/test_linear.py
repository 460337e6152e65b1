"""Linear arrays: steering function, scalar field, factored linear system."""
import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, MimoSystem, ObservationPoint,
                   PlaneWave, WaveContext, apply_mimo, assemble_mimo,
                   dft_scatter_grid, linear_field, linear_field_multi,
                   linear_rcs, phase_compensation, sampling_sa_linear,
                   sinc_normalized, steering_function)
from risem import linear as linear_module
from risem import presets as presets_module
from risem.cli import main
from risem.core import CHUNK_TERMS, TWO_PI, _chunk_step
from risem.linear import _steering, mimo_on_angles
from test_core import PHASOR_BOUND, _bits, _worst

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


def _blocked(ris: LinearRis, s_max: float) -> bool:
    """Whether _steering sums ris in blocks when its largest |s| is s_max."""
    return linear_module._blocks(ris, s_max) is not None


def _steps(ris: LinearRis, sines, sin_i=0.0) -> int:
    """The sines per chunk of _steering(ris, sines, sin_i), from the width it passes _chunked."""
    widths, chunked = [], linear_module._chunked

    def spy(reduce_chunk, points, width):
        widths.append(width)
        return chunked(reduce_chunk, points, width)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linear_module, "_chunked", spy)
        _steering(ris, sines, sin_i)
    (width,) = widths
    return _chunk_step(width)


def _exact_phases(n: int, spacing: float, lam: float, s) -> np.ndarray:
    """e^{j 2 pi t_m} for cells m = 0..n-1, with t_m = m d s / lam mod 1 in Fraction arithmetic.

    s is a float or a Fraction; only the last rounding of t_m and the exponential's
    own round-off, about 1e-15 rad, remain.
    """
    x = Fraction(spacing) * Fraction(s) / Fraction(lam)
    turns = np.arange(n, dtype=object) * x.numerator % x.denominator / x.denominator
    return np.exp(2j * np.pi * turns.astype(float))


def _direct_steering(ris: LinearRis, theta_i: float, theta_s: float, exact: bool) -> complex:
    """The steering sum for one angle pair, written out term by term.

    With exact, its cell phases are those of Fraction turns (the reference of the
    blocked sum); without, of the float64 cell angle ((2 pi m) d) s / lam, as the
    per-cell product and perfbench/oracle.py form it.
    """
    lam = ris.ctx.wavelength
    n = np.arange(ris.n)
    s = np.sin(theta_i) + np.sin(theta_s)
    sa = sampling_sa_linear(ris.widths, theta_s, theta_i, lam)
    geom = (_exact_phases(ris.n, ris.spacing, lam, s) if exact
            else np.exp(1j * 2.0 * np.pi * n * ris.spacing * s / lam))
    return complex(ris.ctx.coupling
                   * np.sum((ris.areas / lam) * np.exp(1j * ris.phases) * sa * geom))


def _kernel_deviation(ris, theta_i, theta_s):
    """max|kernel - direct sum| / max|direct sum| over broadcast angle arrays.

    The direct sum is exact where the kernel's call sums in blocks, and takes the
    float64 cell angle where it does not.
    """
    ti, ts = np.broadcast_arrays(theta_i, theta_s)
    sums = np.sin(theta_i) + np.sin(theta_s)
    got = _steering(ris, sums)
    exact = _blocked(ris, np.abs(sums).max(initial=0.0))
    want = np.array([_direct_steering(ris, a, b, exact)
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
                        0.0 if widths == "zero" else rng.uniform(0.0, 1.5),
                        rng.uniform(0.0, 2.0 * np.pi, n), CTX)
        theta_i = rng.uniform(-np.pi / 2, np.pi / 2, shape_i)
        theta_s = rng.uniform(-np.pi / 2, np.pi / 2, shape_s)
        assert _kernel_deviation(ris, theta_i, theta_s) <= 1e-12

    @pytest.mark.parametrize("n,chunks,extra", [
        (1, 1, 1),                     # one cell: many angles per chunk, one spill-over
        (2, 1, 1),                     # per cell: many angles per chunk, one spill-over
        (16, 1, 1),                    # blocked: many angles per chunk, one spill-over
        (100, 3, 7),                   # blocked: three chunks and seven angles
        (1000, 2, 1),                  # blocked: 256 angles per chunk
        (2 ** 14 - 1, 3, 0),           # per cell: one angle per chunk
        (2 ** 14 + 3, 2, 0),           # per cell: a chunk larger than CHUNK_TERMS
    ])
    def test_chunk_edges(self, n, chunks, extra):
        rng = np.random.default_rng(n)
        ris = LinearRis(0.45, rng.uniform(0.0, 0.05, n), rng.uniform(0.0, 0.3),
                        rng.uniform(0.0, 2.0 * np.pi, n), CTX)
        # s reaches sin 0.4 + sin 1.5 at the last angle, which sets the regime
        step = _steps(ris, np.array([np.sin(0.4) + np.sin(1.5)]))
        theta_s = np.linspace(-1.5, 1.5, chunks * step + extra)
        assert _kernel_deviation(ris, 0.4, theta_s) <= 1e-12

    @pytest.mark.parametrize("shape", [(), (0,), (4, 3)])
    def test_equal_widths_keep_the_shape_of_s(self, shape):
        ris = LinearRis.uniform(17, 0.5, 0.01, width=0.2, phases=np.linspace(0.0, 5.0, 17))
        theta_s = np.random.default_rng(3).uniform(-1.5, 1.5, shape)
        got = _steering(ris, np.sin(0.2) + np.sin(theta_s))
        assert got.shape == shape
        if got.size:
            assert _kernel_deviation(ris, 0.2, theta_s) <= 1e-12

    @pytest.mark.parametrize("lam", [0.3, 1.0, 7.0])
    @pytest.mark.parametrize("s", [2.0, -2.0, 0.6180339887498949])
    @pytest.mark.parametrize("spacing", [0.7, 0.45, 1e-3])
    def test_turns_are_the_remainder_of_the_exact_product(self, lam, s, spacing):
        counts = np.concatenate([np.arange(1000), np.arange(1000, 2 ** 20, 997),
                                 [2 ** 20, 2 ** 27 - 1]])
        got = linear_module._turns(counts, spacing, lam, np.array([s]))[0]
        x = Fraction(spacing) * Fraction(s) / Fraction(lam)
        # the remainder in [-1/2, 1/2), and the distance to it on the circle
        want = np.array([float((m * x + Fraction(1, 2)) % 1 - Fraction(1, 2))
                         for m in counts.tolist()])
        assert np.all(np.abs(got) <= 0.5)
        gap = got - want
        gap -= np.rint(gap)
        # one rounding of a turn, and the roundings of the part of m x past x's 26 bits
        assert np.all(np.abs(gap) <= 2.0 ** -53 + 2.0 ** -78 * float(abs(x)) * counts)

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31 ** 2 - 1, 31 ** 2, 31 ** 2 + 1, 997])
    @pytest.mark.parametrize("len_i", [1, 3])
    def test_blocked_sum_equals_the_exact_sum(self, n, len_i):
        # n = B^2 and B^2 +- 1 fill the last block, leave it one short, or start a new one;
        # 1, 2, 15 and 17 cells take the per-cell product in _steering, 2 (B + K) > n,
        # but the sum holds for them too
        rng = np.random.default_rng(n)
        ris = LinearRis.uniform(n, 0.55, 0.01, phases=rng.uniform(0.0, 2.0 * np.pi, n),
                                ctx=WaveContext(0.8))
        weights = ris.areas / 0.8 * np.exp(1j * ris.phases)
        sin_i = np.zeros(1) if len_i == 1 else rng.uniform(-1.0, 1.0, len_i)
        sines = np.concatenate([rng.uniform(-1.0, 1.0, 7), [0.0, -1.0, 1.0]])
        b = math.ceil(math.sqrt(n))
        k = math.ceil(n / b)
        assert linear_module._blocks(ris, 2.0) == (None if n in (1, 2, 15, 17) else (b, k))
        got = linear_module._blocked_sum(ris, sines, sin_i, weights, b, k)
        assert got.shape == (sines.size, len_i)
        # the sums of sin_i and sines in exact arithmetic: each factor's turns are exact
        want = np.array([[np.sum(weights * _exact_phases(n, 0.55, 0.8, Fraction(p) + Fraction(q)))
                          for p in sin_i] for q in sines])
        assert np.max(np.abs(got - want)) <= 1e-14 * np.sum(np.abs(weights))

    @pytest.mark.parametrize("n,over,per_angle", [
        (1000, False, 32 + 32), (1000, True, None),
        (16, False, 4 + 4),            # the fewest cells with 2 (B + K) <= n
        (15, False, None),             # 2 (4 + 4) > 15: per cell under the bound too
    ])
    def test_a_call_forms_b_plus_k_phases_per_angle_under_the_bound_and_n_over_it(
            self, monkeypatch, n, over, per_angle):
        spacing, count = 2.0, 300
        ris = LinearRis.uniform(n, spacing, 0.01, width=0.1)

        def angle(s):
            return TWO_PI * (n - 1) * spacing * s
        # the largest s whose largest cell angle is at most the bound (about 1.3 at 1000 cells),
        # and the next
        s_max = linear_module._BLOCKED_MAX_ANGLE / angle(1.0)
        while angle(s_max) > linear_module._BLOCKED_MAX_ANGLE:
            s_max = np.nextafter(s_max, 0.0)
        while angle(np.nextafter(s_max, np.inf)) <= linear_module._BLOCKED_MAX_ANGLE:
            s_max = np.nextafter(s_max, np.inf)
        if over:
            s_max = np.nextafter(s_max, np.inf)
        sines = np.linspace(-s_max, s_max, count)
        sizes, phasor = [], linear_module._phasor

        def spy(arg, out=None):
            sizes.append(np.size(arg))
            return phasor(arg, out)

        monkeypatch.setattr(linear_module, "_phasor", spy)
        _steering(ris, sines)
        # per cell, n phases per sum; in blocks, B + K per sine and B + K for the
        # default sin_i = 0
        assert sum(sizes) == (count * n if per_angle is None else (count + 1) * per_angle)

    def test_cell_phases_keep_the_bits_of_the_float64_exponential(self):
        # perfbench/oracle.py forms the same unreduced float64 argument, whose round-off
        # alone can pass the output check's limit at 8192 cells; so the argument's bits
        # must match, and its phase may move only by the evaluation's round-off
        spacing, lam = 0.7, 0.9
        s = np.random.default_rng(5).uniform(-2.0, 2.0, 7)
        arg = TWO_PI * np.arange(8192) * spacing * s[:, None] / lam
        assert np.array_equal(_bits(linear_module._cell_angle(8192, spacing, lam, s)),
                              _bits(arg))
        assert _worst(linear_module._geometry_phase(8192, spacing, lam, s),
                      np.exp(1j * arg)) <= PHASOR_BOUND

    @pytest.mark.parametrize("n", [1, 2, 8192, 9000])
    def test_cell_phases_are_the_cosine_and_sine_of_the_one_cell_angle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            spacing, lam = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0)
            s = np.sin(rng.uniform(-1.5, 1.5, 6)) + np.sin(rng.uniform(-1.5, 1.5, 6))
            # the argument as _geometry_phase formed it before _cell_angle held it
            arg = TWO_PI * np.arange(n) * spacing * np.asarray(s, dtype=float)[..., None]
            arg /= lam
            assert np.array_equal(_bits(linear_module._cell_angle(n, spacing, lam, s)),
                                  _bits(arg))
            got = linear_module._geometry_phase(n, spacing, lam, s)
            assert _worst(got, np.cos(arg) + 1j * np.sin(arg)) <= PHASOR_BOUND

    def test_large_array_over_a_full_sweep(self):
        # two angles per chunk, as in the largest benchmark arrays
        n = 8192
        rng = np.random.default_rng(11)
        ris = LinearRis.uniform(n, 0.75, 0.01, width=0.2,
                                phases=rng.uniform(0.0, 2.0 * np.pi, n))
        theta_i = 0.3
        theta_s = np.linspace(-np.pi / 2, np.pi / 2, 3601)
        got = _steering(ris, np.sin(theta_i) + np.sin(theta_s))
        sample = np.concatenate([[0, 3600], rng.choice(3601, 10, replace=False)])
        assert not _blocked(ris, np.sin(theta_i) + 1.0)
        want = np.array([_direct_steering(ris, theta_i, theta_s[k], False) for k in sample])
        assert np.max(np.abs(got[sample] - want)) <= 1e-12 * np.max(np.abs(want))


def _edge_count(ris, count, sin_i, s_max):
    """A sines length; 'edge' +-1 straddles the chunk length of _steering over sin_i
    at a largest |sines| of s_max."""
    if isinstance(count, int):
        return count
    return _steps(ris, np.array([s_max]), sin_i) + {"edge-1": -1, "edge": 0, "edge+1": 1}[count]


class TestFactoredSteering:
    """_steering over sin_i (+) sines against the same kernel on the outer sum."""

    @given(st.sampled_from([1, 2, 100, 1000]), st.sampled_from(["zero", "equal"]),
           st.sampled_from([0, 1, 5]), st.sampled_from([0, 1, 37, "edge-1", "edge", "edge+1"]),
           st.sampled_from([1.0, 0.37, 2.5]), st.floats(0.05, 2.0),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    # two 1000-cell draws past the bound, on which a float64 product of two phase
    # factors differed from the sums by 2.3e-12 and 1.1e-12 of max|T|
    @example(n=1000, widths="equal", len_i=1, count="edge-1", lam=0.37, spacing=1.0, seed=137)
    @example(n=1000, widths="equal", len_i=5, count="edge-1", lam=0.37, spacing=1.5, seed=900)
    def test_outer_product_equals_the_per_point_sum(self, n, widths, len_i, count, lam,
                                                    spacing, seed):
        rng = np.random.default_rng(seed)
        width = {"zero": 0.0, "equal": 0.3}[widths]
        sin_i = rng.uniform(-1.0, 1.0, len_i)
        # the cells, and with them the chunk width, are known before the sines: sin_s
        # holds 1 first, so max|sin_s| is 1 whatever its length
        ris = LinearRis(spacing, rng.uniform(0.001, 0.05, n), width, 0.0,
                        WaveContext(lam, 0.3 + 0.4j))
        sin_s = rng.uniform(-1.0, 1.0, _edge_count(ris, count, sin_i, 1.0))
        sin_s[:1] = 1.0
        # phases steered to the first pair give a coherent peak, as on the preset surfaces;
        # among a few random-phase values, the float64 phase round-off of either kernel
        # alone comes near 1e-12 of max|T| at 1000 cells
        steer = sin_i[:1].sum() + sin_s[:1].sum()
        phases = rng.uniform(0.0, 1.0, n) - TWO_PI * np.arange(n) * spacing * steer / lam
        # a complex reflection coefficient gives a coupling off the imaginary axis
        ris = ris.with_phases(phases)
        sums = sin_i[:, None] + sin_s[None, :]
        got = _steering(ris, sin_s, sin_i)
        want = _steering(ris, sums)
        assert got.shape == (sin_i.size, sin_s.size)
        if not _blocked(ris, np.abs(sums).max(initial=0.0)):
            # both calls sum each pair's s whole, on the same path
            assert np.array_equal(got, want)
        elif want.size:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("widths", ["zero", "equal"])
    @pytest.mark.parametrize("shape_i,shape_s", [((), (4,)), ((2, 3), (4,)), ((3,), ()),
                                                 ((2,), (3, 2))])
    def test_result_shape_is_that_of_sin_i_then_sines(self, widths, shape_i, shape_s):
        width = 0.2 if widths == "equal" else 0.0
        ris = LinearRis(0.5, np.full(6, 0.01), width, np.linspace(0.0, 3.0, 6), CTX)
        rng = np.random.default_rng(2)
        sin_i, sin_s = rng.uniform(-1.0, 1.0, shape_i), rng.uniform(-1.0, 1.0, shape_s)
        got = _steering(ris, sin_s, sin_i)
        assert got.shape == shape_i + shape_s
        want = _steering(ris, np.add.outer(sin_i, sin_s))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("n,spacing,blocked", [
        (1, 0.7, False), (16, 80.0, False), (1000, 2.0, False),
        (16, 0.7, True), (1000, 0.7, True),
    ], ids=["per-cell-1", "per-cell-16", "per-cell-1000", "blocked-16", "blocked-1000"])
    def test_default_sin_i_keeps_the_bits_of_the_one_argument_product(self, n, spacing,
                                                                         blocked):
        # the default's sums are the sines themselves: per cell V(s) @ w, and in blocks,
        # where V(0) = 1 exactly, the blocked sum of the weights themselves
        rng = np.random.default_rng(n)
        ris = LinearRis.uniform(n, spacing, 0.02, width=0.3, phases=rng.uniform(0.0, 6.0, n),
                                ctx=WaveContext(0.9))
        s = rng.uniform(-2.0, 2.0, CHUNK_TERMS // n)
        assert _blocked(ris, np.abs(s).max()) == blocked
        weights = ris.areas / 0.9 * np.exp(1j * ris.phases)
        if blocked:
            sums = linear_module._blocked_sum(ris, s, np.zeros(1), weights,
                                              *linear_module._blocks(ris, np.abs(s).max()))[:, 0]
        else:
            sums = linear_module._geometry_phase(n, spacing, 0.9, s) @ weights
        want = ris.ctx.coupling * (sums * sinc_normalized(np.pi * 0.3 / 0.9 * s))
        assert np.array_equal(_steering(ris, s), want)

    def test_steering_surfaces_take_one_kernel_call(self, tmp_path, monkeypatch):
        calls, steering = [], linear_module._steering

        def spy(ris, sines, sin_i=0.0):
            calls.append(np.shape(sin_i))
            return steering(ris, sines, sin_i)

        monkeypatch.setattr(linear_module, "_steering", spy)
        # where the presets import it by name
        monkeypatch.setattr(presets_module, "_steering", spy)
        for figure in ("fig8", "fig9"):
            assert main(["reproduce", figure, "--out", str(tmp_path)]) == 0
        assert calls == [(181,), (181,)]

    def test_a_field_over_waves_takes_one_kernel_call(self, monkeypatch):
        calls, steering = [], linear_module._steering

        def spy(*args):
            calls.append(args)
            return steering(*args)

        monkeypatch.setattr(linear_module, "_steering", spy)
        ris = LinearRis.uniform(24, 0.6, 0.01, width=0.1)
        waves = [PlaneWave(Direction(t), a) for t, a in ((0.3, 1.0), (-0.7, 0.5), (1.1, 2.0))]
        thetas = np.linspace(-1.5, 1.5, 31)
        field = linear_module._field(ris, waves, 40.0, thetas)
        assert len(calls) == 1
        # against the sum of its one-wave fields
        want = sum(linear_module._field(ris, [w], 40.0, thetas) for w in waves)
        assert np.max(np.abs(field - want)) <= 1e-12 * np.max(np.abs(want))


class TestLinearRis:
    def test_uniform_constructor(self):
        ris = LinearRis.uniform(4, 0.5, 0.01, width=0.1)
        assert ris.n == 4
        assert np.all(ris.areas == 0.01)
        assert np.all(ris.widths == 0.1)
        assert np.all(ris.phases == 0.0)

    @pytest.mark.parametrize("widths", [[0.1, 0.2], [0.0, 0.0, 1e-300]])
    def test_unequal_widths_are_refused(self, widths):
        with pytest.raises(ValueError, match="share one width"):
            LinearRis(0.5, np.full(len(widths), 0.01), widths, 0.0, CTX)

    def test_new_phases_and_weights_keep_the_one_width(self):
        ris = LinearRis(0.5, np.full(3, 0.01), np.full(3, 0.25), 0.0, CTX)
        for out in (ris.with_phases([0.1, 0.2, 0.3]), ris.with_weights([0.1, 0.2j, -0.3])):
            assert out.widths.shape == (3,) and np.all(out.widths == 0.25)

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
        with pytest.raises(ValueError, match="at least one cell"):
            LinearRis(0.5, [], [], [])


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

    @pytest.mark.parametrize("n", [1024, 2048])
    def test_half_wavelength_scatter_matrix_is_scaled_dft(self, n):
        # V_s[k, m] = exp(j pi m (2k - n) / n); the exponent is reduced
        # modulo 2n in integers so the reference carries no phase round-off
        sys = MimoSystem(1.0, 0.5, -1j, np.full(n, 100.0), dft_scatter_grid(n),
                         np.array([0.0]), np.ones(n))
        k, m = np.arange(n)[:, None], np.arange(n)[None, :]
        want = np.exp(1j * np.pi * ((m * (2 * k - n)) % (2 * n)) / n)
        assert np.max(np.abs(sys.v_scatter - want)) <= 2e-12

    def test_scatter_operator_matches_dense_product_only_on_the_exact_grid(self):
        n = 64
        grid = dft_scatter_grid(n)
        sys = MimoSystem(1.0, 0.5, -1j, np.full(n, 100.0), grid, np.array([0.0]), np.ones(n))
        rng = np.random.default_rng(5)
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert sys.on_dft_grid
        assert np.max(np.abs(sys.scatter(x) - sys.v_scatter @ x)) <= 1e-12 * np.sum(np.abs(x))
        nudged = grid.copy()
        nudged[3] = np.nextafter(grid[3], 1.0)
        near_radii = np.full(n, 100.0)
        near_radii[-1] = np.nextafter(100.0, 200.0)
        for off in (replace(sys, spacing=np.nextafter(0.5, 1.0)), replace(sys, wavelength=0.9),
                    replace(sys, scatter_thetas=nudged), replace(sys, radii=near_radii),
                    replace(sys, radii=np.full(n - 1, 100.0), scatter_thetas=grid[:-1])):
            assert not off.on_dft_grid
            assert np.array_equal(off.scatter(x[:off.n_cells]), off.v_scatter @ x[:off.n_cells])


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

    def test_assemble_mimo_is_a_view_over_mimo_on_angles(self):
        ris = LinearRis.uniform(16, 0.5, 0.01, phases=np.linspace(0.0, 3.0, 16))
        thetas = dft_scatter_grid(16)
        radii = np.full(16, 80.0)
        from_points = assemble_mimo(ris, [0.2, -0.4], [ObservationPoint(r, Direction(t))
                                                        for r, t in zip(radii, thetas)])
        from_arrays = mimo_on_angles(ris, [0.2, -0.4], radii, thetas)
        thetas[0] = radii[0] = 1.0  # mimo_on_angles holds copies
        assert json.dumps(from_points.to_json_dict()) == json.dumps(from_arrays.to_json_dict())
        assert from_arrays.on_dft_grid
        with pytest.raises(ValueError, match="observation list"):
            mimo_on_angles(ris, [0.2], [], [])

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

    @pytest.mark.parametrize("radii,scatter_thetas,fragment", [
        ([100.0, 100.0], [0.1], "pair up"),
        ([100.0], [0.1, 0.2], "pair up"),
        ([0.0], [0.1], "positive"),
        ([100.0, -1.0], [0.1, 0.2], "positive"),
        ([100.0, math.nan], [0.1, 0.2], "positive and finite"),
        ([math.inf], [0.1], "positive and finite"),
    ])
    def test_radii_must_pair_with_scatter_angles_and_be_positive(self, radii, scatter_thetas,
                                                                 fragment):
        with pytest.raises(ValueError, match=fragment):
            MimoSystem(wavelength=1.0, spacing=0.5, coupling=-1j, radii=radii,
                       scatter_thetas=scatter_thetas, incident_thetas=[0.1], weights=[1.0])

    @pytest.mark.parametrize("wavelength,spacing", [
        (0.0, 0.5), (math.nan, 0.5), (math.inf, 0.5), (-1.0, 0.5),
        (1.0, math.nan), (1.0, 0.0), (1.0, -0.5), (1.0, math.inf),
    ])
    def test_wavelength_and_spacing_must_be_positive_and_finite(self, wavelength, spacing):
        with pytest.raises(ValueError, match="must be positive and finite"):
            MimoSystem(wavelength=wavelength, spacing=spacing, coupling=-1j, radii=[100.0],
                       scatter_thetas=[0.1], incident_thetas=[0.1], weights=[1.0])

    @pytest.mark.parametrize("radius", [math.nan, math.inf])
    def test_mimo_on_angles_refuses_a_radius_that_is_not_finite(self, radius):
        ris = LinearRis.uniform(4, 0.5, 0.01)
        with pytest.raises(ValueError, match="must be positive and finite"):
            mimo_on_angles(ris, [0.1], [100.0, radius], [0.2, 0.3])

    @pytest.mark.parametrize("key,message", [("incident", "incident angle list"),
                                             ("scatter", "observation list")])
    def test_every_builder_refuses_an_empty_angle_list(self, key, message):
        doc = json.loads(json.dumps(self._random_system(np.random.default_rng(9)).to_json_dict()))
        del doc["dimensions"]
        # the radii still pair with the scatter angles: the empty list is named first
        angles = {"incident": [0.1], "scatter": [0.2]}
        doc[f"{key}_theta"] = angles[key] = []
        for build in (lambda: MimoSystem.from_json_dict(doc),
                      lambda: MimoSystem(1.0, 0.5, -1j, [100.0], angles["scatter"],
                                         angles["incident"], [1.0])):
            with pytest.raises(ValueError, match=message):
                build()

    def test_json_reader_refuses_bad_lengths(self):
        good = json.loads(json.dumps(self._random_system(np.random.default_rng(8)).to_json_dict()))
        for key, value in (("radii", [math.nan] * len(good["radii"])), ("wavelength", 0.0)):
            with pytest.raises(ValueError, match="must be positive and finite"):
                MimoSystem.from_json_dict(dict(good, **{key: value}))
