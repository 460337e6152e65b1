"""Configuration schemes: random phase statistics, compensation, reshaping."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, ObservationPoint, PlaneWave,
                   ReshapeConditioningError, WaveContext, anomalous_pairs,
                   apply_mimo, assemble_mimo, beam_reshape, compensated_rcs,
                   compensated_steering, compensation_delta, dft_scatter_grid,
                   grating_lobes, linear_field, monte_carlo_power,
                   monte_carlo_power_grid, phase_compensation,
                   random_phase_draw, random_phase_expected_power,
                   random_phase_expected_rcs, random_phase_miso_expected_power,
                   sampling_sa_linear, steering_function)
from risem import config as config_module
from risem import linear as linear_module
from risem.config import _svd_solve, _trial_signs, trial_rng
from risem.core import CHUNK_TERMS, TWO_PI, _edge_sinc, _phasor
from risem.linear import _geometry_phase, _turns
from test_core import _bits

CTX = WaveContext()


def _reference_array(n=100):
    return LinearRis.uniform(n, 0.5, 0.01, ctx=CTX)


def _geometric_series_steering(ris, delta, theta_i, theta_s):
    """Closed form of the compensated steering sum for equal areas.

    sum_m e^{j m phi} = e^{j (n-1) phi/2} sin(n phi/2) / sin(phi/2), with
    phi = 2 pi d (sin theta_i + sin theta_s - Delta) / wavelength; the
    limit n e^{j (n-1) phi/2} where sin(phi/2) vanishes.
    """
    lam = ris.ctx.wavelength
    phi = 2.0 * np.pi * ris.spacing * (np.sin(theta_i) + np.sin(theta_s) - delta) / lam
    n, half = ris.n, 0.5 * phi
    if abs(np.sin(half)) < 1e-15:
        series = n * np.exp(1j * (n - 1) * half)
    else:
        series = np.exp(1j * (n - 1) * half) * np.sin(n * half) / np.sin(half)
    return complex(ris.ctx.coupling * (ris.areas[0] / lam) * series)


def _one_wave_expected_power(ris, theta_i, theta_s, r_s, amplitude=1.0):
    """One-wave closed form |C|^2/r^2 cos^2(theta_i) sum_n (A_n/lam)^2 Sa_n^2 A A.

    The amplitude A comes last, one factor at a time: A^2 alone would round in the
    subnormal range before the other factors scale it back.
    """
    lam = ris.ctx.wavelength
    sa = sampling_sa_linear(ris.widths, np.asarray(theta_s, dtype=float)[..., None],
                            theta_i, lam)
    return (abs(ris.ctx.coupling) ** 2 / r_s ** 2 * np.cos(theta_i) ** 2
            * np.sum((ris.areas / lam) ** 2 * sa ** 2, axis=-1) * amplitude * amplitude)


def _point_cell_expected_power(ris, waves, r_s):
    """Zero-width closed form |C|^2/r^2 sum_n (A_n/lam)^2 |E_hat_n|^2, whatever theta_s.

    E_hat_n = sum_w A_w cos(theta_w) e^{j 2 pi n d sin(theta_w)/lam} is the
    per-cell excitation aggregated over the waves. It is formed from the amplitudes
    relative to the largest, A_max, and the power is A_max A_max times its form:
    |E_hat_n|^2 alone would round in the subnormal range.
    """
    lam = ris.ctx.wavelength
    thetas = np.array([w.direction.theta for w in waves])
    amplitudes = np.array([w.amplitude for w in waves])
    peak = amplitudes.max() or 1.0
    e_hat = ((np.cos(thetas) * (amplitudes / peak).astype(complex))
             @ _geometry_phase(ris.n, ris.spacing, lam, np.sin(thetas)))
    return float(abs(ris.ctx.coupling) ** 2 / r_s ** 2
                 * np.sum((ris.areas / lam) ** 2 * np.abs(e_hat) ** 2) * peak * peak)


def _cell_sum_expected_power(ris, waves, r_s, thetas):
    """|C|^2/r^2 sum_n (A_n/lam)^2 |h_n|^2 per scatter angle, cell by cell.

    h_n = sum_w A_w cos(theta_w) Sa(theta_w, theta_s) e^{j 2 pi n d sin(theta_w)/lam}
    is accumulated one wave at a time, from the amplitudes relative to the largest,
    A_max, and the power is A_max A_max times its form, as in
    _point_cell_expected_power.
    """
    lam = ris.ctx.wavelength
    peak = max((w.amplitude for w in waves), default=0.0) or 1.0
    h = np.zeros((thetas.size, ris.n), dtype=complex)
    for w in waves:
        theta_i = w.direction.theta
        h += (w.amplitude / peak * np.cos(theta_i)
              * _geometry_phase(ris.n, ris.spacing, lam, np.sin(theta_i))
              * sampling_sa_linear(ris.widths, thetas[:, None], theta_i, lam))
    return (abs(ris.ctx.coupling) ** 2 / r_s ** 2
            * np.sum((ris.areas / lam) ** 2 * np.abs(h) ** 2, axis=-1) * peak * peak)


def _full_matrix_monte_carlo(ris, waves, r_s, thetas, trials, seed):
    """Monte Carlo (mean, stderr) from the whole angles x cells gain matrix, trial by trial."""
    lam = ris.ctx.wavelength
    sin_s = np.sin(np.asarray(thetas, dtype=float).ravel())
    gains = np.zeros((sin_s.size, ris.n), dtype=complex)
    for w in waves:
        theta_i = w.direction.theta
        s = np.sin(theta_i) + sin_s
        # the cell terms (A_n/lam) Sa_n e^{j 2 pi n d s/lam} of each sum s
        gains += (w.amplitude * np.cos(theta_i) * (ris.areas / lam)
                  * _edge_sinc(ris.widths, lam, s[:, None])
                  * _geometry_phase(ris.n, ris.spacing, lam, s))
    gains *= ris.ctx.coupling * np.exp(-2j * np.pi * r_s / lam) / r_s
    acc = np.zeros(sin_s.size)
    acc_sq = np.zeros(sin_s.size)
    for t in range(trials):
        signs = 1.0 - 2.0 * trial_rng(seed, t).integers(0, 2, size=ris.n)
        sample = np.abs(gains @ signs) ** 2
        acc += sample
        acc_sq += sample ** 2
    mean = acc / trials
    var = np.maximum(acc_sq / trials - mean ** 2, 0.0)
    return mean, np.sqrt(var / max(trials - 1, 1))


_angles = st.floats(-math.radians(89.0), math.radians(89.0))
_waves = st.lists(st.tuples(_angles, st.floats(0.0, 2.0)), min_size=1, max_size=4)


def _random_array(data, width):
    n = data.draw(st.sampled_from([1, 2, 7, 100, CHUNK_TERMS + 3]), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    ctx = WaveContext(data.draw(st.floats(0.5, 2.0), label="wavelength"),
                      complex(*rng.normal(size=2)))
    return LinearRis(data.draw(st.floats(0.2, 1.5), label="spacing"),
                     rng.uniform(0.0, 0.5, n), width * rng.uniform(0.0, 1.0), 0.0, ctx)


class TestRandomPhaseDraw:
    def test_support_and_determinism(self):
        draw = random_phase_draw(256, 3)
        assert set(np.unique(draw)) <= {0.0, np.pi}
        assert len(np.unique(draw)) == 2  # both values occur at this size
        assert np.array_equal(draw, random_phase_draw(256, 3))
        assert not np.array_equal(draw, random_phase_draw(256, 4))

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            random_phase_draw(0, 0)

    def test_trial_generators_are_independent_of_order(self):
        a = trial_rng(9, 5).integers(0, 2, size=8)
        _ = trial_rng(9, 6).integers(0, 2, size=8)
        b = trial_rng(9, 5).integers(0, 2, size=8)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 16, 17, 100])
    @pytest.mark.parametrize("seed", [0, 2 ** 31 - 1, 2 ** 32 - 1, 2 ** 32 + 5, 2 ** 64 + 5,
                                      2 ** 96 + 11])
    def test_trial_signs_are_the_bits_of_the_trial_generators(self, n, seed):
        # odd and even n; seeds of one to four 32-bit entropy words, so with the trial
        # index up to five, which the pool of four mixes in once more
        got = _trial_signs(n, seed, range(601))
        want = [1.0 - 2.0 * trial_rng(seed, t).integers(0, 2, n) for t in range(601)]
        assert got.shape == (601, n)
        assert np.array_equal(got, want)
        assert np.array_equal(_trial_signs(n, seed, range(590, 601)), got[590:])
        # trial indices from one entropy word to two
        wide = range(2 ** 32 - 3, 2 ** 32 + 3)
        want = [1.0 - 2.0 * trial_rng(seed, t).integers(0, 2, n) for t in wide]
        assert np.array_equal(_trial_signs(n, seed, wide), want)

    def test_a_negative_seed_keeps_the_generator_error(self):
        with pytest.raises(ValueError) as signs:
            _trial_signs(4, -3, range(2))
        with pytest.raises(ValueError) as generator:
            trial_rng(-3, 0)
        assert str(signs.value) == str(generator.value)


class TestClosedFormMoments:
    def test_expected_power_reference_value(self):
        # 1 * (1/100)^2 * 1 * sum over 100 cells of (0.01)^2 = 1e-6
        ris = _reference_array()
        power = random_phase_expected_power(ris, 0.0, 0.3, 100.0)
        assert power == pytest.approx(1e-6, rel=1e-12)

    def test_expected_rcs_reference_value(self):
        ris = _reference_array()
        rcs = random_phase_expected_rcs(ris, 0.0, 0.3)
        assert rcs == pytest.approx(4.0 * math.pi * 0.01, rel=1e-12)

    def test_expected_rcs_independent_of_scatter_angle(self):
        ris = _reference_array()
        values = [random_phase_expected_rcs(ris, math.radians(30.0), t)
                  for t in np.linspace(-1.5, 1.5, 19)]
        assert all(v == values[0] for v in values)  # bit-exact for zero width

    def test_miso_reduces_to_single_wave_form(self):
        ris = _reference_array(16)
        theta_i = math.radians(25.0)
        single = random_phase_expected_power(ris, theta_i, 0.1, 100.0, 0.7)
        miso = random_phase_miso_expected_power(
            ris, [PlaneWave(Direction(theta_i), 0.7)], 100.0, 0.1)
        assert isinstance(miso, float)
        assert miso == pytest.approx(single, rel=1e-12)

    @given(st.data(), st.floats(0.0, 0.6), _angles, st.floats(0.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_one_wave_expectation_equals_sinc_form(self, data, width, theta_i, amp):
        ris = _random_array(data, width)
        thetas = np.linspace(-1.55, 1.55, data.draw(st.integers(1, 40), label="angles"))
        got = random_phase_miso_expected_power(ris, [PlaneWave(Direction(theta_i), amp)],
                                               3.0, thetas)
        want = _one_wave_expected_power(ris, theta_i, thetas, 3.0, amp)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @given(st.data(), _waves)
    @settings(max_examples=40, deadline=None)
    def test_point_cell_expectation_equals_excitation_form(self, data, waves):
        ris = _random_array(data, 0.0)
        waves = [PlaneWave(Direction(t), a) for t, a in waves]
        thetas = np.linspace(-1.55, 1.55, data.draw(st.integers(1, 40), label="angles"))
        got = random_phase_miso_expected_power(ris, waves, 3.0, thetas)
        want = _point_cell_expected_power(ris, waves, 3.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * want
        assert np.all(got == got[0])  # bit-exact for zero width

    def test_wide_cell_expectation_keeps_the_sinc_of_every_wave(self):
        # the point-cell form leaves out the sinc factors, which cell widths of
        # 0.4 wavelengths make far from 1
        ris = LinearRis.uniform(32, 0.7, 0.04, width=0.4, ctx=CTX)
        waves = [PlaneWave(Direction(math.radians(30.0)), 1.0),
                 PlaneWave(Direction(math.radians(-20.0)), 0.6)]
        power = random_phase_miso_expected_power(ris, waves, 100.0, math.radians(60.0))
        assert power < 0.5 * _point_cell_expected_power(ris, waves, 100.0)

    @pytest.mark.parametrize("n,angles", [(7, 40), (100, 3 * (CHUNK_TERMS // 300) + 5),
                                          (CHUNK_TERMS + 3, 2)])
    def test_wide_cell_expectation_equals_the_wave_by_wave_sum(self, n, angles):
        # h_n accumulated one wave at a time, over angle counts off the chunk step
        rng = np.random.default_rng(n)
        ris = LinearRis(0.6, rng.uniform(0.0, 0.05, n), rng.uniform(0.0, 0.6), 0.0,
                        WaveContext(1.3, -0.3 + 0.2j))
        waves = [PlaneWave(Direction(t), a) for t, a in ((0.4, 1.0), (-1.1, 0.5), (0.9, 1.7))]
        thetas = np.linspace(-1.5, 1.5, angles)
        want = _cell_sum_expected_power(ris, waves, 7.0, thetas)
        got = random_phase_miso_expected_power(ris, waves, 7.0, thetas)
        assert got.shape == thetas.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @pytest.mark.parametrize("n", [1, 16, 100, CHUNK_TERMS + 3])
    @pytest.mark.parametrize("amplitudes", [(), (1.0,), (0.7, 0.0), (1.2, 0.3, 2.0),
                                            (0.5, 1.5, 0.9, 1.1), (0.0, 0.0),
                                            (5e-324, 1e-310, 2e-320)])
    def test_gram_expectation_equals_the_cell_sum(self, n, amplitudes):
        # the Gram matrix against the sum over cells, through the same amplitude
        # scaling: 0 to 4 waves, zero and subnormal amplitudes
        rng = np.random.default_rng(n)
        thetas = np.linspace(-1.5, 1.5, 41)
        waves = [PlaneWave(Direction(rng.uniform(-1.3, 1.3)), a) for a in amplitudes]
        for width in (0.0, 0.35):
            ris = LinearRis(0.7, rng.uniform(0.0, 0.05, n), width, 0.0,
                            WaveContext(1.1, 0.4 - 0.7j))
            got = random_phase_miso_expected_power(ris, waves, 9.0, thetas)
            want = _cell_sum_expected_power(ris, waves, 9.0, thetas)
            assert got.shape == thetas.shape and np.all(got >= 0.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
            if width == 0.0:
                assert np.all(got == got[0])

    @pytest.mark.parametrize("waves", [((0.4, 1.0),), ((0.4, 1.0), (-1.1, 0.5), (0.9, 1.7))])
    def test_gram_matrix_is_one_weighted_kernel_sum(self, monkeypatch, waves):
        # the waves' Gram matrix is the kernel's sum of the weights (A_n/lam)^2, scaled by
        # a power of 2, at sin(theta_v) - sin(theta_w); the statistic forms no cell phase
        # of its own
        calls, weighted_sum = [], config_module._weighted_sum

        def spy(ris, sines, sin_i, weights):
            calls.append((sines, sin_i, weights))
            return weighted_sum(ris, sines, sin_i, weights)

        def no_phases(*args):
            raise AssertionError("a cell phase matrix outside the kernel's sum")

        monkeypatch.setattr(config_module, "_weighted_sum", spy)
        for module in (config_module, linear_module):
            monkeypatch.setattr(module, "_geometry_phase", no_phases)
        # 100 cells at these sines take the blocked sum, which forms no per-cell phase
        ris = LinearRis(0.6, np.random.default_rng(3).uniform(0.0, 0.05, 100), 0.2, 0.0,
                        WaveContext(1.3, -0.3 + 0.2j))
        random_phase_miso_expected_power(ris, [PlaneWave(Direction(t), a) for t, a in waves],
                                         7.0, np.linspace(-1.5, 1.5, 9))
        assert len(calls) == 1
        (sines, sin_i, weights), sin_w = calls[0], np.sin([t for t, _ in waves])
        assert np.array_equal(sines, -sin_i)
        assert np.array_equal(sines, sin_w) or np.array_equal(sin_i, sin_w)
        # A_n/lam scaled by 2^-e, e the exponent of the largest area over lam's: exact
        scale = 2.0 ** (math.frexp(1.3)[1] - math.frexp(ris.areas.max())[1])
        assert np.array_equal(weights, (ris.areas / 1.3 * scale) ** 2)

    @pytest.mark.parametrize("r_s", [0.0, -5.0, math.nan, math.inf])
    @pytest.mark.parametrize("statistic", [
        lambda ris, r_s: random_phase_miso_expected_power(ris, [PlaneWave(Direction(0.3))],
                                                          r_s, [0.1, 0.2]),
        lambda ris, r_s: random_phase_expected_power(ris, 0.3, 0.1, r_s),
        lambda ris, r_s: monte_carlo_power_grid(ris, [PlaneWave(Direction(0.3))], r_s,
                                                [0.1, 0.2], 5, 1),
        lambda ris, r_s: monte_carlo_power_grid(ris, [PlaneWave(Direction(0.3))], r_s,
                                                [0.1, 0.2], 5, 1, return_stderr=True)],
        ids=["expectation", "one-wave-expectation", "monte-carlo-mean", "monte-carlo-stderr"])
    def test_statistics_refuse_a_radius_that_is_not_positive_and_finite(self, statistic, r_s):
        # as ObservationPoint does; before, 0 divided by zero, -5 gave a power and inf 0.0
        # or NaN
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            statistic(_reference_array(8), r_s)

    def test_monte_carlo_matches_closed_form(self):
        ris = _reference_array(16)
        theta_i = math.radians(30.0)
        waves = [PlaneWave(Direction(theta_i), 1.0)]
        thetas = np.linspace(-1.2, 1.2, 5)
        mean, stderr = monte_carlo_power_grid(ris, waves, 100.0, thetas,
                                              4000, 11, return_stderr=True)
        expected = random_phase_expected_power(ris, theta_i, 0.0, 100.0)
        assert np.all(np.abs(mean - expected) <= 3.0 * stderr)

    @pytest.mark.parametrize("r_s", [1e-150, 1e150])
    def test_statistics_keep_their_scale_at_extreme_radii(self, r_s):
        # each form is scaled by |C|^2 / r_s^2 last, so the standard error's squares of
        # per-trial powers stay in range at radii whose r_s^2 is far from 1
        ris = _reference_array(16)
        waves = [PlaneWave(Direction(t), a) for t, a in ((0.4, 1.0), (-0.9, 0.5))]
        thetas = np.linspace(-1.5, 1.5, 7)

        def statistics(r):
            return (random_phase_miso_expected_power(ris, waves, r, thetas),
                    *monte_carlo_power_grid(ris, waves, r, thetas, 70, 5, return_stderr=True))

        for got, at_one in zip(statistics(r_s), statistics(1.0)):
            want = at_one / (r_s * r_s)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_statistics_of_weights_whose_squares_overflow_scale_exactly(self):
        # the weights A_n/lam are scaled by a power of 2 near their largest, and the scale
        # comes back in the power step: areas of 2^520, whose squares leave the float
        # range, at radius 2^400 give the bits of areas of 2^120 at radius 1
        waves = [PlaneWave(Direction(t), a) for t, a in ((0.4, 1.0), (-0.9, 0.5))]
        thetas = np.linspace(-1.5, 1.5, 7)

        def statistics(area, r):
            ris = LinearRis.uniform(8, 0.5, area, width=0.2, ctx=CTX)
            return (random_phase_miso_expected_power(ris, waves, r, thetas),
                    *monte_carlo_power_grid(ris, waves, r, thetas, 70, 5, return_stderr=True),
                    monte_carlo_power_grid(ris, waves, r, thetas, 70, 5))

        for got, want in zip(statistics(2.0 ** 520, 2.0 ** 400), statistics(2.0 ** 120, 1.0)):
            assert np.all(np.isfinite(want)) and np.array_equal(got, want)

    @pytest.mark.parametrize("n, angles, trials, widths", [
        (8, 7, 30, (0.1,)), (100, 3 * (CHUNK_TERMS // 100) + 5, 40, (0.1, 0.0)),
        (1024, 2 * (CHUNK_TERMS // 1024) + 1, 9, (0.3, 0.2, 0.45)),
        (16, 181, 2000, (0.4, 0.1)), (CHUNK_TERMS + 3, 3, 2, (0.2,))])
    def test_chunked_monte_carlo_matches_full_matrix(self, n, angles, trials, widths):
        # angle counts that are not a multiple of the chunk step
        rng = np.random.default_rng(n)
        waves = [PlaneWave(Direction(rng.uniform(-1.3, 1.3)), a) for a in (1.0, 0.4, 1.5)]
        thetas = np.linspace(-1.5, 1.5, angles)
        for wave_count, width in enumerate(widths, start=1):
            ris = LinearRis.uniform(n, 0.6, 0.02, width=width,
                                    ctx=WaveContext(1.3, -0.3 + 0.2j))
            mean, stderr = monte_carlo_power_grid(ris, waves[:wave_count], 77.0, thetas,
                                                  trials, 5, return_stderr=True)
            ref_mean, ref_stderr = _full_matrix_monte_carlo(ris, waves[:wave_count], 77.0,
                                                            thetas, trials, 5)
            assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(ref_mean)
            assert np.max(np.abs(stderr - ref_stderr)) <= 1e-12 * np.max(ref_mean)

    @pytest.mark.parametrize("n, trials", [(8, 3), (8, 50), (16, 40), (17, 5), (100, 7),
                                           (100, 150), (1024, 9), (1024, 1100), (4096, 3)])
    def test_lag_mean_matches_the_trial_sum(self, monkeypatch, n, trials):
        # the mean alone takes the lag correlations; the per-trial sum of the same draws
        # is the reference, over trial counts under and over n
        calls, lag_mean = [], config_module._lag_mean

        def spy(*args):
            calls.append(args)
            return lag_mean(*args)

        monkeypatch.setattr(config_module, "_lag_mean", spy)
        rng = np.random.default_rng(n)
        waves = [PlaneWave(Direction(rng.uniform(-1.3, 1.3)), a) for a in (1.0, 0.4, 1.5)]
        thetas = np.linspace(-1.5, 1.5, 2 * (CHUNK_TERMS // n) + 7)
        for wave_count, width in enumerate((0.1, 0.0, 0.45), start=1):
            ris = LinearRis(0.6, rng.uniform(0.005, 0.03, n), width, 0.0,
                            WaveContext(1.3, -0.3 + 0.2j))
            mean = monte_carlo_power_grid(ris, waves[:wave_count], 77.0, thetas, trials, 5)
            ref_mean, _ = _full_matrix_monte_carlo(ris, waves[:wave_count], 77.0, thetas,
                                                   trials, 5)
            assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(ref_mean)
        assert len(calls) == 3

    def test_lag_mean_past_the_blocked_bound_is_as_close_to_exact_turns(self):
        # past 2^14 rad both bodies take float64 cell angles; against phases from exact
        # turns, e_w(n) e_a(n) for the exact sum of the two sines, the lag form is no
        # further off than the per-trial sum
        n, trials = CHUNK_TERMS + 3, 2
        rng = np.random.default_rng(n)
        wave = PlaneWave(Direction(rng.uniform(-1.3, 1.3)), 1.0)
        thetas = np.linspace(-1.5, 1.5, 3)
        ris = LinearRis.uniform(n, 0.6, 0.02, width=0.2, ctx=WaveContext(1.3, -0.3 + 0.2j))
        lam, sin_s, sin_i = 1.3, np.sin(thetas), math.sin(wave.direction.theta)

        def phases(s):
            return _phasor(TWO_PI * _turns(np.arange(n), 0.6, lam, np.atleast_1d(s)))

        gains = (ris.ctx.coupling * np.exp(-2j * np.pi * 77.0 / lam) / 77.0 * math.cos(
            wave.direction.theta) * _edge_sinc(0.2, lam, sin_i + sin_s)[:, None]
            * (0.02 / lam) * phases(sin_i) * phases(sin_s))
        want = sum(np.abs(gains @ (1.0 - 2.0 * trial_rng(5, t).integers(0, 2, n))) ** 2
                   for t in range(trials)) / trials
        lag = monte_carlo_power_grid(ris, [wave], 77.0, thetas, trials, 5)
        per_trial, _ = monte_carlo_power_grid(ris, [wave], 77.0, thetas, trials, 5,
                                              return_stderr=True)
        assert np.max(np.abs(lag - want)) <= np.max(np.abs(per_trial - want))

    def test_lag_mean_at_an_exact_null_is_zero_not_negative(self):
        # trial 0 of seed 3 gives the 8 cells four signs of each kind, so the broadside sum
        # vanishes; the lag form rounds to about -1.6e-21 there, whose square root is NaN
        ris = LinearRis.uniform(8, 0.5, 0.013, ctx=WaveContext(1.0, -1.0))
        assert np.sum(_trial_signs(8, 3, range(1))) == 0.0
        mean = monte_carlo_power_grid(ris, [PlaneWave(Direction(0.0))], 10.0, [0.0], 1, 3)
        assert mean[0] == 0.0

    def test_monte_carlo_needs_a_trial(self):
        with pytest.raises(ValueError):
            monte_carlo_power_grid(_reference_array(4), [PlaneWave(Direction(0.1))], 10.0,
                                   [0.0], 0, 1)

    def test_pointwise_and_grid_monte_carlo_agree(self):
        ris = _reference_array(8)
        waves = [PlaneWave(Direction(0.4), 1.0)]
        theta_s = 0.25
        grid = monte_carlo_power_grid(ris, waves, 100.0, [theta_s], 50, 21)
        point = monte_carlo_power(ris, waves,
                                  ObservationPoint(100.0, Direction(theta_s)),
                                  50, 21)
        assert point == pytest.approx(float(grid[0]), rel=1e-12)

    @pytest.mark.parametrize("n", [8, 1000])
    def test_per_trial_sums_run_on_the_weighted_kernel(self, monkeypatch, n):
        # each block of trials is one set of weight columns (A/lam) sigma_t, scaled by a
        # power of 2, summed at the waves' sines
        calls, weighted_sum = [], config_module._weighted_sum

        def spy(ris, sines, sin_i, weights, reduce=None):
            calls.append((sines.size, sin_i, weights))
            return weighted_sum(ris, sines, sin_i, weights, reduce)

        monkeypatch.setattr(config_module, "_weighted_sum", spy)
        ris = LinearRis.uniform(n, 0.6, 0.02, width=0.2, ctx=WaveContext(1.3, -0.3 + 0.2j))
        waves = [PlaneWave(Direction(t), a) for t, a in ((0.4, 1.0), (-0.9, 0.5))]
        thetas = np.linspace(-1.5, 1.5, 7)
        monte_carlo_power_grid(ris, waves, 77.0, thetas, 70, 5, return_stderr=True)
        # every block of trials (one at 8 cells, two at 1000) sums every angle once
        assert sum(size for size, _, _ in calls) == -(-70 // max(64, CHUNK_TERMS // n)) * 7
        columns = []
        for _, sin_i, weights in calls:
            assert np.array_equal(sin_i, np.sin([0.4, -0.9]))
            if not any(weights is c for c in columns):
                columns.append(weights)
        scale = 2.0 ** (math.frexp(1.3)[1] - math.frexp(0.02)[1])
        assert np.array_equal(np.hstack(columns),
                              (_trial_signs(n, 5, range(70)) * (0.02 / 1.3 * scale)).T)

    @pytest.mark.parametrize("n", [8, 100])
    @pytest.mark.parametrize("return_stderr", [False, True])
    @pytest.mark.parametrize("wave_count,thetas,shape", [
        (1, [], (0,)), (0, [0.1, 0.2], (2,)), (0, [], (0,)), (1, np.zeros((0, 3)), (0,))])
    def test_empty_angles_and_wave_lists_keep_their_shapes(self, n, return_stderr,
                                                            wave_count, thetas, shape):
        ris = LinearRis.uniform(n, 0.5, 0.01, width=0.2)
        waves = [PlaneWave(Direction(0.3))] * wave_count
        out = monte_carlo_power_grid(ris, waves, 10.0, thetas, 5, 1, return_stderr=return_stderr)
        # a (mean, stderr) pair with return_stderr
        assert np.shape(out) == ((2,) + shape if return_stderr else shape)
        if wave_count == 0:
            assert np.all(np.asarray(out) == 0.0)


class TestPhaseCompensation:
    THETA_I = math.radians(30.0)
    THETA_S = math.radians(-50.0)

    def test_delta_reference_value(self):
        delta = compensation_delta(self.THETA_I, self.THETA_S)
        assert delta == pytest.approx(-0.266044443118978, rel=1e-12)

    @pytest.mark.parametrize("theta_i,theta_s", [(math.nan, 0.1), (0.1, math.inf),
                                                 (-math.inf, 0.1)])
    def test_design_angles_must_be_finite(self, theta_i, theta_s):
        with pytest.raises(ValueError, match="finite"):
            compensation_delta(theta_i, theta_s)
        with pytest.raises(ValueError, match="finite"):
            phase_compensation(theta_i, theta_s, _reference_array())

    @pytest.mark.parametrize("n", [1, 2, 8192, 9000])
    def test_phases_keep_the_bits_of_the_negated_cell_angle(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            spacing, lam = rng.uniform(0.1, 2.0), rng.uniform(0.2, 5.0)
            theta_i, theta_s = rng.uniform(-1.5, 1.5, 2)
            ris = LinearRis.uniform(n, spacing, 0.01, ctx=WaveContext(lam))
            delta = compensation_delta(theta_i, theta_s)
            # the body of phase_compensation before linear._cell_angle held the angle
            want = (-TWO_PI * np.arange(n) * spacing * delta / lam) % TWO_PI
            got = phase_compensation(theta_i, theta_s, ris)
            assert np.array_equal(_bits(got), _bits(want))

    def test_phases_lie_in_principal_range(self):
        ris = _reference_array()
        phases = phase_compensation(self.THETA_I, self.THETA_S, ris)
        assert np.all((phases >= 0.0) & (phases < 2.0 * np.pi))

    def test_attains_global_bound_and_random_probes_do_not_exceed_it(self):
        ris = _reference_array(32)
        bound = abs(CTX.coupling) * np.sum(ris.areas) / CTX.wavelength
        tuned = ris.with_phases(phase_compensation(self.THETA_I, self.THETA_S, ris))
        peak = abs(steering_function(tuned, self.THETA_I, self.THETA_S))
        assert peak == pytest.approx(bound, rel=1e-12)
        rng = np.random.default_rng(17)
        for _ in range(20):
            probe = ris.with_phases(rng.uniform(0.0, 2.0 * np.pi, ris.n))
            assert abs(steering_function(probe, self.THETA_I, self.THETA_S)) \
                <= bound * (1.0 + 1e-12)

    def test_peak_power_is_cell_count_times_random_expectation(self):
        ris = _reference_array()
        tuned = ris.with_phases(phase_compensation(self.THETA_I, self.THETA_S, ris))
        obs = ObservationPoint(100.0, Direction(self.THETA_S))
        peak_power = abs(linear_field(tuned, PlaneWave(Direction(self.THETA_I), 1.0),
                                      obs)) ** 2
        expected = random_phase_expected_power(ris, self.THETA_I, self.THETA_S, 100.0)
        assert peak_power / expected == pytest.approx(ris.n, rel=1e-9)

    def test_closed_form_steering_matches_direct_sum(self):
        ris = _reference_array(17)
        delta = compensation_delta(self.THETA_I, self.THETA_S)
        tuned = ris.with_phases(phase_compensation(self.THETA_I, self.THETA_S, ris))
        for ts in (-1.0, -0.2, 0.6, self.THETA_S):
            closed = compensated_steering(ris, delta, self.THETA_I, ts)
            direct = steering_function(tuned, self.THETA_I, ts)
            assert closed == pytest.approx(direct, rel=1e-10)
            assert compensated_rcs(ris, delta, self.THETA_I, ts) == pytest.approx(
                4.0 * math.pi * math.cos(self.THETA_I) ** 2 * abs(direct) ** 2,
                rel=1e-9)

    def test_rcs_whose_square_overflows_is_inf(self):
        # the steering sum is finite; a Python float's ** would raise OverflowError on it
        ris = LinearRis.uniform(16, 0.5, 1e200)
        delta = compensation_delta(self.THETA_I, self.THETA_S)
        assert compensated_rcs(ris, delta, self.THETA_I, self.THETA_S) == math.inf

    @pytest.mark.parametrize("n, spacing, width", [(17, 0.5, 0.0), (100, 0.7, 0.3),
                                                   (1, 0.5, 0.0), (256, 1.3, 0.1)])
    def test_steering_matches_geometric_series(self, n, spacing, width):
        ris = LinearRis.uniform(n, spacing, 0.02, width=width, ctx=WaveContext(1.0, 0.8j))
        delta = compensation_delta(self.THETA_I, self.THETA_S)
        peak = abs(ris.ctx.coupling) * n * 0.02 / ris.ctx.wavelength
        # theta_s = THETA_S is the design point phi = 0 of the closed form
        for ts in (self.THETA_S, -1.0, -0.2, 0.0, 0.6, 1.5):
            got = compensated_steering(ris, delta, self.THETA_I, ts)
            want = _geometric_series_steering(ris, delta, self.THETA_I, ts)
            assert abs(got - want) <= 1e-12 * peak
        at_design = compensated_steering(ris, delta, self.THETA_I, self.THETA_S)
        assert at_design == pytest.approx(ris.ctx.coupling * n * 0.02, rel=1e-15)


class TestGratingLobes:
    DELTA = compensation_delta(math.radians(30.0), math.radians(-50.0))

    def test_half_wavelength_spacing_has_none(self):
        assert grating_lobes(self.DELTA, 0.5, 1.0, math.radians(30.0)) == []
        assert grating_lobes(0.9, 0.45, 1.0, 0.0) == []

    @given(st.floats(-2.0, 2.0), st.floats(0.05, 0.5),
           st.floats(-math.radians(85.0), math.radians(85.0)))
    @settings(max_examples=60)
    def test_empty_whenever_spacing_at_most_half_wavelength(self, delta, d, ti):
        assert grating_lobes(delta, d, 1.0, ti) == []

    def test_reference_lobe_location(self):
        lobes = grating_lobes(self.DELTA, 0.7, 1.0, math.radians(30.0))
        assert len(lobes) == 1
        assert math.degrees(lobes[0]) == pytest.approx(41.4928810070116, abs=1e-9)

    @given(st.floats(-1.5, 1.5), st.floats(0.55, 4.0),
           st.floats(-math.radians(85.0), math.radians(85.0)))
    @settings(max_examples=60)
    def test_returned_angles_satisfy_their_congruence(self, delta, d, ti):
        base = delta - math.sin(ti)
        for lobe in grating_lobes(delta, d, 1.0, ti):
            k = (math.sin(lobe) - base) * d / 1.0
            assert abs(k - round(k)) <= 1e-12
            assert round(k) != 0


def _scan_pairs(delta, spacing, wavelength, theta_i, k_max):
    """The congruence law by a scan of k over [-k_max, k_max], sorted by angle."""
    base = delta - np.sin(theta_i)
    out = []
    for k in range(-k_max, k_max + 1):
        s = base + k * wavelength / spacing
        if abs(s) <= 1.0:
            out.append(float(np.arcsin(s)))
    return sorted(out)


class TestAnomalousPairs:
    DELTA = compensation_delta(math.radians(30.0), math.radians(-50.0))
    ANGLES = st.floats(-math.pi / 2, math.pi / 2)

    @given(st.floats(-6.0, 6.0), st.floats(0.05, 60.0), st.floats(0.5, 2.0), ANGLES)
    @example(4.0, 1.0, 1.0, -math.pi / 2)
    @settings(max_examples=300)
    def test_every_visible_index_against_a_brute_force(self, delta, d, lam, ti):
        # |k| <= 2000 covers every visible index: (1 + |base|) d / lambda <= 960
        assert anomalous_pairs(delta, d, lam, ti) == _scan_pairs(delta, d, lam, ti, 2000)

    def test_a_shift_past_two_keeps_every_lobe(self):
        # base = 5: k = -6, -5 and -4 are visible, outside the former scan's |k| <= 4d/lambda
        assert anomalous_pairs(4.0, 1.0, 1.0, -math.pi / 2) == [-math.pi / 2, 0.0, math.pi / 2]

    @given(st.floats(-2.0, 2.0), st.floats(0.05, 60.0), st.floats(0.5, 2.0), ANGLES)
    @settings(max_examples=300)
    def test_physical_inputs_keep_the_bits_of_the_former_scan(self, delta, d, lam, ti):
        # the scan that the closed-form range replaced: |k| <= ceil(4 d / lambda)
        former = _scan_pairs(delta, d, lam, ti, int(np.ceil(4.0 * d / lam)))
        assert _bits(anomalous_pairs(delta, d, lam, ti)).tolist() == _bits(former).tolist()

    @pytest.mark.parametrize("predictor", [anomalous_pairs, grating_lobes])
    @pytest.mark.parametrize("delta,spacing,wavelength,theta_i", [
        (0.5, math.inf, 1.0, 0.1), (0.5, math.nan, 1.0, 0.1), (0.5, 0.0, 1.0, 0.1),
        (0.5, -0.5, 1.0, 0.1), (0.5, 0.7, 0.0, 0.1), (0.5, 0.7, math.nan, 0.1),
        (0.5, 0.7, math.inf, 0.1), (0.5, 0.7, 1.0, math.nan), (0.5, 0.7, 1.0, math.inf),
        (0.5, 0.7, 1.0, -math.inf), (math.nan, 0.7, 1.0, 0.1), (math.inf, 0.7, 1.0, 0.1),
    ])
    def test_refuses_what_is_not_positive_and_finite(self, predictor, delta, spacing,
                                                     wavelength, theta_i):
        with pytest.raises(ValueError, match="finite"):
            predictor(delta, spacing, wavelength, theta_i)

    def test_design_pair_maps_to_itself(self):
        pairs = anomalous_pairs(self.DELTA, 0.5, 1.0, math.radians(30.0))
        assert any(math.degrees(p) == pytest.approx(-50.0, abs=1e-9)
                   for p in pairs)

    def test_off_design_incidence_reference_angle(self):
        pairs = anomalous_pairs(self.DELTA, 0.5, 1.0, math.radians(70.0))
        assert any(math.degrees(p) == pytest.approx(52.585693439175905, abs=1e-9)
                   for p in pairs)

    @given(st.floats(-1.5, 1.5), st.floats(0.1, 4.0),
           st.floats(-math.radians(85.0), math.radians(85.0)))
    @settings(max_examples=60)
    def test_returned_angles_satisfy_their_congruence(self, delta, d, ti):
        base = delta - math.sin(ti)
        for p in anomalous_pairs(delta, d, 1.0, ti):
            k = (math.sin(p) - base) * d / 1.0
            assert abs(k - round(k)) <= 1e-12


class TestBeamReshape:
    def _system(self, n, weights, rng=None, theta_i=0.35):
        ris = LinearRis.uniform(n, 0.5, 0.01, ctx=CTX).with_weights(weights)
        obs = [ObservationPoint(100.0, Direction(t)) for t in dft_scatter_grid(n)]
        return assemble_mimo(ris, [theta_i], obs)

    def test_round_trip_recovers_weights(self):
        rng = np.random.default_rng(13)
        n = 32
        w0 = rng.uniform(0.5, 1.5, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        sys = self._system(n, w0)
        desired = apply_mimo(sys, [1.0])
        solution = beam_reshape(sys, [1.0], desired)
        assert np.max(np.abs(solution.weights - w0) / np.abs(w0)) <= 1e-10
        assert solution.residual <= 1e-12 * np.linalg.norm(desired)
        assert solution.rank == n

    def test_grid_reproduction_property(self):
        # on the regular grid the achieved pattern matches the target at
        # every grid point when no cell excitation vanishes
        rng = np.random.default_rng(14)
        n = 24
        sys = self._system(n, np.ones(n))
        desired = (rng.normal(size=n) + 1j * rng.normal(size=n)) * 1e-4
        solution = beam_reshape(sys, [1.0], desired)
        achieved = apply_mimo(
            self._system(n, solution.weights), [1.0])
        assert np.max(np.abs(achieved - desired)) <= 1e-10 * np.max(np.abs(desired))

    def test_solution_exposes_area_and_phase_split(self):
        n = 8
        sys = self._system(n, np.ones(n))
        desired = apply_mimo(sys, [1.0])
        solution = beam_reshape(sys, [1.0], desired)
        assert np.allclose(solution.areas, np.abs(solution.weights))
        assert np.allclose(solution.phases, np.angle(solution.weights))

    def test_residual_non_increasing_with_retained_directions(self):
        # an irregular, clustered grid gives a graded singular spectrum
        rng = np.random.default_rng(15)
        n = 20
        ris = LinearRis.uniform(n, 0.5, 0.01, ctx=CTX)
        thetas = np.sort(rng.uniform(-0.3, 0.3, n))
        obs = [ObservationPoint(100.0, Direction(t)) for t in thetas]
        sys = assemble_mimo(ris, [0.2], obs)
        desired = rng.normal(size=n) + 1j * rng.normal(size=n)
        ranks, residuals = [], []
        for tol in (1e-1, 1e-3, 1e-6, 1e-12):
            sol = beam_reshape(sys, [1.0], desired, truncation_tol=tol,
                               max_discard_fraction=1.0)
            ranks.append(sol.rank)
            residuals.append(sol.residual)
        assert ranks == sorted(ranks)
        for lo, hi in zip(residuals[1:], residuals[:-1]):
            assert lo <= hi * (1.0 + 1e-9)

    def test_unreachable_target_raises_conditioning_error(self):
        # two identical observation directions: the antisymmetric half of the
        # target lies outside the reachable space
        ris = LinearRis.uniform(2, 0.5, 0.01, ctx=CTX)
        obs = [ObservationPoint(100.0, Direction(0.3))] * 2
        sys = assemble_mimo(ris, [0.1], obs)
        with pytest.raises(ReshapeConditioningError):
            beam_reshape(sys, [1.0], np.array([1.0, -1.0]))

    def test_dead_cell_gets_zero_weight(self):
        # two counter-phased inputs null the aggregated excitation of cell 0
        n = 8
        ris = LinearRis.uniform(n, 0.5, 0.01, ctx=CTX)
        obs = [ObservationPoint(100.0, Direction(t)) for t in dft_scatter_grid(n)]
        theta = 0.4
        sys = assemble_mimo(ris, [theta, -theta], obs)
        desired = np.full(n, 1e-4 + 0.0j)
        solution = beam_reshape(sys, [1.0, -1.0], desired)
        assert solution.weights[0] == 0.0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
    def test_a_desired_value_that_is_not_finite_is_refused(self, bad):
        sys = self._system(4, np.ones(4))
        with pytest.raises(ValueError, match="desired values must be finite"):
            beam_reshape(sys, [1.0], np.array([1.0, bad, 0.0, 0.0]))

    def test_input_validation(self):
        n = 4
        sys = self._system(n, np.ones(n))
        with pytest.raises(ValueError):
            beam_reshape(sys, [1.0], np.zeros(n + 1))
        ris = LinearRis.uniform(n, 0.5, 0.01, ctx=CTX)
        mixed_radii = [ObservationPoint(100.0 + k, Direction(t))
                       for k, t in enumerate(dft_scatter_grid(n))]
        sys2 = assemble_mimo(ris, [0.1], mixed_radii)
        with pytest.raises(ValueError):
            beam_reshape(sys2, [1.0], np.zeros(n))
        # radii within allclose's tolerance are still two radii
        near_radii = [ObservationPoint(100.0 + 1e-4 * (k == 1), Direction(t))
                      for k, t in enumerate(dft_scatter_grid(n))]
        sys3 = assemble_mimo(ris, [0.1], near_radii)
        with pytest.raises(ValueError):
            beam_reshape(sys3, [1.0], np.zeros(n))

    # one or two waves; the second is weaker, so no cell excitation nears the dead-cell guard
    @given(st.sampled_from([1, 2, 7, 128, 1024]), st.floats(0.01, 100.0),
           st.lists(st.floats(-0.78, 0.78), min_size=1, max_size=2),
           st.floats(1.0, 2.0), st.floats(0.1, 0.5), st.integers(0, 2 ** 32 - 1))
    @example(1024, 1.0, [0.35, -0.6], 1.0, 0.5, 0)
    # on some LAPACK builds gesdd does not converge on this exact DFT matrix but does on
    # its transpose; test_a_gesdd_failure_retries_on_the_transpose takes that path anywhere
    @example(1024, 86.69177488239391, [0.0], 1.0, 0.5, 0)
    @settings(max_examples=6, deadline=None)
    def test_dft_grid_solve_matches_svd_solve(self, n, wavelength, thetas, a1, a2, seed):
        ris = LinearRis.uniform(n, wavelength / 2.0, 0.01, ctx=WaveContext(wavelength))
        obs = [ObservationPoint(100.0, Direction(t)) for t in dft_scatter_grid(n)]
        sys = assemble_mimo(ris, thetas, obs)
        assert sys.on_dft_grid
        amps = [a1, a2][:len(thetas)]
        rng = np.random.default_rng(seed)
        desired = rng.normal(size=n) + 1j * rng.normal(size=n)
        got = beam_reshape(sys, amps, desired)

        # the dense path on the same system, with no excitation near the guard
        coeff, rank, discarded = _svd_solve(sys.v_scatter, desired, got.truncation_tol)
        e_hat = sys.incident_projection(amps)
        beta_n = sys.prefactor * sys.range_diag[0]
        weights = coeff / (beta_n * e_hat)
        residual = np.linalg.norm(beta_n * (sys.v_scatter @ (weights * e_hat)) - desired)

        norm = np.linalg.norm(desired)
        assert np.max(np.abs(got.weights - weights)) <= 1e-12 * np.max(np.abs(weights))
        assert got.rank == rank == n
        assert got.residual <= 1e-12 * norm and residual <= 1e-12 * norm
        assert abs(got.discarded_fraction - discarded) <= 1e-12

    def test_a_gesdd_failure_retries_on_the_transpose(self, monkeypatch):
        # an SVD that fails once, as gesdd can where the transpose converges
        ris = LinearRis.uniform(8, 0.6, 0.01)
        sys = assemble_mimo(ris, [0.2], [ObservationPoint(100.0, Direction(t))
                                         for t in np.linspace(-1.2, 1.2, 13)])
        rng = np.random.default_rng(4)
        desired = rng.normal(size=13) + 1j * rng.normal(size=13)
        want, rank, discarded = _svd_solve(sys.v_scatter, desired, 1e-8)
        svd, shapes = np.linalg.svd, []

        def fails_once(a, full_matrices=True):
            shapes.append(a.shape)
            if len(shapes) == 1:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, full_matrices=full_matrices)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        got = _svd_solve(sys.v_scatter, desired, 1e-8)
        assert shapes == [(13, 8), (8, 13)]
        assert np.max(np.abs(got[0] - want)) <= 1e-12 * np.max(np.abs(want))
        assert got[1] == rank == 8
        assert abs(got[2] - discarded) <= 1e-12 and discarded > 0.1

    @pytest.mark.parametrize("n,spacing,jitter", [(2, 0.5, 0.01), (7, 0.45, 0.0),
                                                  (32, 0.45, 0.0), (32, 0.5, 0.002)])
    def test_full_rank_square_system_discards_nothing(self, n, spacing, jitter):
        rng = np.random.default_rng(n)
        thetas = dft_scatter_grid(n) + jitter * rng.uniform(size=n)
        ris = LinearRis.uniform(n, spacing, 0.01, ctx=CTX)
        sys = assemble_mimo(ris, [0.3], [ObservationPoint(100.0, Direction(t)) for t in thetas])
        assert not sys.on_dft_grid
        desired = rng.normal(size=n) + 1j * rng.normal(size=n)
        solution = beam_reshape(sys, [1.0], desired)
        assert solution.rank == n
        assert solution.discarded_fraction <= 1e-14

    def test_dft_grid_truncation_rule_is_exact(self):
        n = 16
        sys = self._system(n, np.ones(n))
        desired = apply_mimo(sys, [1.0])
        assert beam_reshape(sys, [1.0], desired, truncation_tol=1.0).rank == n
        with pytest.raises(ReshapeConditioningError):
            beam_reshape(sys, [1.0], desired, truncation_tol=1.0000001)
        zero = beam_reshape(sys, [1.0], np.zeros(n), truncation_tol=2.0,
                            max_discard_fraction=1.0)
        assert zero.rank == 0 and zero.discarded_fraction == 0.0
        assert np.all(zero.weights == 0.0)
