"""The library's input contract: a public call that takes raw angles, a shift Delta or
input amplitudes returns finite numbers or raises ValueError, with no RuntimeWarning; a
finite input whose result leaves the float range raises FloatingPointError."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from risem import (Direction, LinearRis, MimoSystem, PlaneWave, WaveContext, apply_mimo,
                   beam_reshape, compensated_rcs, compensated_steering, linear_rcs,
                   monte_carlo_power_grid, path_length_phase, random_phase_expected_power,
                   random_phase_miso_expected_power, sampling_sa, sampling_sa_linear,
                   steering_function)
from risem.linear import dft_scatter_grid, mimo_on_angles

# ordinary values mixed with zero, the edges of float64 and the non-finite values; radii
# and lengths stay out, since a finite radius of 1e-300 overflows the power (the
# FloatingPointError probes below)
EDGES = [0.0, 1e-300, -1e-300, 1e300, -1e300, math.nan, math.inf, -math.inf]
values = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(EDGES))
value_lists = st.lists(values, min_size=1, max_size=4)
deltas = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([math.nan, math.inf, -math.inf]))

RIS = LinearRis.uniform(8, 0.5, 0.01, 0.1, phases=np.linspace(0.0, 3.0, 8))
WAVES = [PlaneWave(Direction(0.3), 1.0), PlaneWave(Direction(-0.5), 0.6)]


def _finite_or_refused(call) -> None:
    """call() returns finite numbers (a number, an array or a tuple of them) or raises
    ValueError."""
    try:
        out = call()
    except ValueError:
        return
    parts = out if isinstance(out, tuple) else (out,)
    assert all(np.all(np.isfinite(part)) for part in parts), out


def _systems(incident, scatter):
    """The factored system of RIS on the angles, built by mimo_on_angles and directly."""
    radii = np.full(len(scatter), 100.0)
    return [lambda: mimo_on_angles(RIS, incident, radii, scatter),
            lambda: MimoSystem(1.0, 0.5, -1j, radii, scatter, incident, RIS.areas)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(values, values, value_lists, deltas, value_lists, value_lists)
# beam_reshape's norms square 1e297 values, and its divisors beta/N x e_hat are subnormal
@example(0.0, 0.0, [0.0], 0.0, [0.0], [1e300])
@example(0.0, 0.0, [0.0], 0.0, [0.0], [2.225073858507203e-309])
def test_raw_values_give_finite_numbers_or_value_error(theta_i, theta_s, thetas, delta,
                                                       incident, amplitudes):
    for call in (lambda: steering_function(RIS, theta_i, theta_s),
                 lambda: linear_rcs(RIS, theta_i, theta_s),
                 lambda: compensated_steering(RIS, delta, theta_i, theta_s),
                 lambda: compensated_rcs(RIS, delta, theta_i, theta_s),
                 lambda: random_phase_expected_power(RIS, theta_i, thetas, 100.0),
                 lambda: random_phase_miso_expected_power(RIS, WAVES, 100.0, thetas),
                 lambda: monte_carlo_power_grid(RIS, WAVES, 100.0, thetas, 3, 7),
                 lambda: monte_carlo_power_grid(RIS, WAVES, 100.0, thetas, 3, 7,
                                                return_stderr=True),
                 # the edges, the width or the position are raw values too
                 lambda: sampling_sa(delta, theta_i, Direction(theta_s), Direction(0.2),
                                     WaveContext()),
                 lambda: sampling_sa_linear(delta, theta_i, theta_s, 1.0),
                 lambda: path_length_phase((thetas * 3)[:3], Direction(theta_i, theta_s),
                                           WaveContext())):
        _finite_or_refused(call)
    for build in _systems(incident, thetas):
        try:
            sys = build()
        except ValueError:
            continue
        amps = (amplitudes * sys.n_inputs)[:sys.n_inputs]
        _finite_or_refused(lambda: apply_mimo(sys, amps))
        # the pattern that the amplitudes reach, as in the README's tour
        _finite_or_refused(lambda: beam_reshape(sys, amps, apply_mimo(sys, amps)).weights)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", [
    lambda: steering_function(RIS, math.inf, 0.1),
    lambda: steering_function(RIS, 0.1, math.nan),
    lambda: linear_rcs(RIS, math.nan, 0.1),
    lambda: compensated_steering(RIS, math.nan, 0.1, 0.1),
    lambda: compensated_rcs(RIS, 0.2, math.inf, 0.1),
    lambda: compensated_rcs(RIS, math.inf, 0.2, 0.1),
    lambda: random_phase_expected_power(RIS, 0.1, [0.2, -math.inf], 100.0),
    lambda: random_phase_miso_expected_power(RIS, WAVES, 100.0, math.nan),
    lambda: monte_carlo_power_grid(RIS, WAVES, 100.0, [0.1, math.nan], 3, 7),
    lambda: mimo_on_angles(RIS, [math.inf], [100.0], [0.1]),
    lambda: MimoSystem(1.0, 0.5, -1j, [100.0], [math.nan], [0.1], [1.0]),
    lambda: MimoSystem(1.0, 0.5, -1j, [100.0], [0.2], [0.1], [1.0, complex(math.nan, 0.0)]),
    lambda: MimoSystem(1.0, 0.5, complex(math.inf, 0.0), [100.0], [0.2], [0.1], [1.0]),
    lambda: apply_mimo(mimo_on_angles(RIS, [0.1], [100.0], [0.2]), [math.nan]),
    lambda: beam_reshape(mimo_on_angles(RIS, [0.1], [100.0], [0.2]), [math.inf], [1.0]),
    lambda: sampling_sa(math.nan, 1.0, Direction(0.1), Direction(0.2), WaveContext()),
    lambda: sampling_sa_linear(math.inf, 0.1, 0.2, 1.0),
    lambda: path_length_phase([math.nan, 0.0, 0.0], Direction(0.1), WaveContext()),
], ids=["steering-theta_i", "steering-theta_s", "rcs", "compensated-delta",
        "compensated-rcs-theta_i", "compensated-rcs-delta", "expected-power",
        "miso-expected-power", "monte-carlo", "mimo-on-angles", "mimo-system", "mimo-weights",
        "mimo-coupling", "apply-mimo", "beam-reshape", "sampling-sa", "sampling-sa-linear",
        "path-length-phase"])
def test_each_probe_is_refused_by_name(call):
    with pytest.raises(ValueError, match="must be finite$"):
        call()


# a factored system's JSON document, and three ways to break it: a key missing, a string
# in a weight pair, and a dimension record that is not a mapping
MIMO_DOC = mimo_on_angles(RIS, [0.1, -0.4], [100.0, 90.0], [0.2, 0.5]).to_json_dict()


@pytest.mark.parametrize("key, value", [
    ("prefactor", None), ("weights", [["0.01", 0.0]] * RIS.n), ("dimensions", "abc"),
], ids=["missing-prefactor", "string-weight", "dimensions-string"])
def test_a_malformed_mimo_document_is_refused_by_name(key, value):
    doc = {k: v for k, v in dict(MIMO_DOC, **{key: value}).items() if v is not None}
    with pytest.raises(ValueError, match="^malformed MIMO system document"):
        MimoSystem.from_json_dict(doc)


ONE_WAVE = [PlaneWave(Direction(0.3))]
# 8 cells of area 0.01 on the DFT grid, lit with amplitude 1e-300 and asked for 1e10
# cell weights A / lam of 1e200 and of 5e198, whose squares overflow
HUGE_AREA = LinearRis.uniform(8, 0.5, 1e200)
SHORT_WAVE = LinearRis.uniform(8, 1e-200, 0.1, ctx=WaveContext(2e-200))
OUT_OF_REACH = (mimo_on_angles(LinearRis.uniform(8, 0.5, 0.01), [0.0], np.full(8, 100.0),
                               dft_scatter_grid(8)), [1e-300], np.full(8, 1e10))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call, message", [
    # r_s^2 is 0
    (lambda: random_phase_miso_expected_power(RIS, ONE_WAVE, 1e-300, 0.1),
     "radius 1e-300 is not finite"),
    # r_s^2 is subnormal, so |C|^2 / r_s^2 is inf
    (lambda: random_phase_miso_expected_power(RIS, ONE_WAVE, 1e-160, 0.1),
     "radius 1e-160 is not finite"),
    (lambda: monte_carlo_power_grid(RIS, ONE_WAVE, 1e-300, [0.1], 3, 7),
     "radius 1e-300 is not finite"),
    (lambda: monte_carlo_power_grid(RIS, ONE_WAVE, 1e-300, [0.1], 3, 7, return_stderr=True),
     "radius 1e-300 is not finite"),
    # the power of the cell weights leaves the float range, and no square of them warns
    *[(call, "radius 100.0 is not finite") for ris in (HUGE_AREA, SHORT_WAVE) for call in (
        lambda ris=ris: random_phase_miso_expected_power(ris, ONE_WAVE, 100.0, 0.1),
        lambda ris=ris: monte_carlo_power_grid(ris, ONE_WAVE, 100.0, [0.1], 3, 7),
        lambda ris=ris: monte_carlo_power_grid(ris, ONE_WAVE, 100.0, [0.1], 3, 7,
                                               return_stderr=True))],
    # the weights overflow in the division by beta/N x E_hat
    (lambda: beam_reshape(*OUT_OF_REACH), "the reshape gave non-finite weights"),
], ids=["expectation-1e-300", "expectation-1e-160", "monte-carlo-1e-300",
        "monte-carlo-stderr-1e-300", "expectation-area-1e200", "monte-carlo-area-1e200",
        "monte-carlo-stderr-area-1e200", "expectation-wavelength-2e-200",
        "monte-carlo-wavelength-2e-200", "monte-carlo-stderr-wavelength-2e-200",
        "reshape-out-of-reach"])
def test_each_result_past_the_float_range_is_refused_by_name(call, message):
    with pytest.raises(FloatingPointError, match=message):
        call()
