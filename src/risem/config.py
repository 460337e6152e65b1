"""Configuration schemes for linear arrays.

Three schemes: random binary phase shifting with closed-form statistics,
continuous phase compensation with grating-lobe and anomalous-reflection
predictors, and least-squares beam reshaping through simultaneous area and
phase weights.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .core import (CHUNK_TERMS, TWO_PI, Direction, ObservationPoint, PlaneWave, _check_finite,
                   _check_radius, _chunk_array, _edge_sinc, _wave_arrays, positive_finite)
from .linear import (LinearRis, MimoSystem, _alternating_signs, _cell_angle, _geometry_phase,
                     _steering, _complex_pairs, _weighted_sum)


class ReshapeConditioningError(RuntimeError):
    """Raised when truncation discards too much of the desired pattern."""


# ---------------------------------------------------------------------------
# Random binary phase shifting
# ---------------------------------------------------------------------------

# The phase support is {0, pi} with probability 1/2 each, the zero-mean
# binary law: E[e^{j Omega}] = 0, which every statistical closed form below
# relies on.

def random_phase_draw(n: int, seed) -> np.ndarray:
    """n i.i.d. draws from {0, pi}, deterministic given the seed."""
    if n < 1:
        raise ValueError("need at least one draw")
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=n) * np.pi


def trial_rng(seed, trial_index: int) -> np.random.Generator:
    """Per-trial generator derived from (seed, index).

    Trials are independent of execution order and thread count.
    """
    return np.random.default_rng((seed, trial_index))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): the hash constant and
# multiplier of the pool's hashmix, then those of generate_state, and mix's multipliers
_POOL_HASH, _POOL_MULT, _STATE_HASH, _STATE_MULT = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_LEFT, _MIX_RIGHT = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF


def _entropy_words(value) -> list[int]:
    """The 32-bit words of a non-negative integer as SeedSequence reads it, least
    significant first: one word 0 for 0."""
    value = operator.index(value)
    if value < 0:
        # SeedSequence's own message
        raise ValueError("expected non-negative integer")
    words = [value & _WORD]
    while value := value >> 32:
        words.append(value & _WORD)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's hash step on uint32 arrays, x ^= h; h *= mult; x *= h; x ^= x >> 16,
    with the constant h kept from call to call: it steps alike for every trial."""
    def step(x):
        nonlocal const
        x = x ^ const
        const = const * mult & _WORD
        x *= const
        x ^= x >> 16
        return x
    return step


def _mix(x, y):
    out = x * _MIX_LEFT - y * _MIX_RIGHT
    out ^= out >> 16
    return out


def _pcg64_states(seed, trials: range) -> np.ndarray:
    """SeedSequence((seed, t)).generate_state(4, np.uint64) for each trial t below 2^64,
    one row each (trials x 4).

    numpy's hash, on uint32 arrays over all the trials at once. The entropy is the
    words of seed, then those of t. hashmix takes its first 4 words into the pool
    (0 past the entropy), each pool word is mixed with the hash of every other, and
    each entropy word past the fourth is mixed into every pool word in turn;
    generate_state hashes the pool twice round into 8 words, low halves first. Trials
    whose indices take one word and two are hashed apart.
    """
    edge = 1 << 32
    if trials.start < edge < trials.stop:
        return np.concatenate([_pcg64_states(seed, trials[:edge - trials.start]),
                               _pcg64_states(seed, trials[edge - trials.start:])])
    t = np.arange(trials.start, trials.stop, dtype=np.uint64)
    entropy = [np.full(1, w, dtype=np.uint32) for w in _entropy_words(seed)]
    # t < 2^32 takes one word, and two from there on
    entropy += [(t >> np.uint64(32 * i)).astype(np.uint32)
                for i in range(1 + (trials.start >= edge))]
    hashmix = _hasher(_POOL_HASH, _POOL_MULT)
    pool = [hashmix(entropy[i] if i < len(entropy) else np.zeros(1, dtype=np.uint32))
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    state = _hasher(_STATE_HASH, _STATE_MULT)
    words = np.stack([state(word) for word in pool * 2], axis=-1)
    return words.astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _state_words() -> type:
    """A numpy ISeedSequence that hands PCG64 the four state words it is made with.

    Made on first use, so that numpy.random loads only when trials are drawn.
    """
    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def _trial_signs(n: int, seed, trials: range) -> np.ndarray:
    """The signs 1 - 2 b of the given trials, one row each (trials x n), with b the
    bits of trial_rng(seed, t).integers(0, 2, n).

    Each trial's PCG64 is seeded with the state words of SeedSequence((seed, t)),
    hashed for all the trials at once (_pcg64_states). Its bits are the top bits of
    the 32-bit halves of its 64-bit words, low half first (Lemire's bounded draw of 0
    or 1 takes no rejection), so each trial takes ceil(n / 2) raw words and no
    Generator is built.
    """
    seeded = _state_words()
    words = np.array([np.random.PCG64(seeded(state)).random_raw(-(-n // 2))
                      for state in _pcg64_states(seed, trials)])
    bits = np.stack([(words >> 31) & 1, words >> 63], axis=-1).reshape(len(trials), -1)[:, :n]
    return 1.0 - 2.0 * bits


def random_phase_expected_power(ris: LinearRis, theta_i: float, theta_s,
                                r_s: float, amplitude: float = 1.0):
    """Expected |E^s|^2 at range r_s: the one-wave view of random_phase_miso_expected_power."""
    return random_phase_miso_expected_power(ris, [PlaneWave(Direction(theta_i), amplitude)],
                                            r_s, theta_s)


def random_phase_expected_rcs(ris: LinearRis, theta_i: float, theta_s):
    """Expected bistatic RCS; independent of theta_s for point-source cells."""
    return 4.0 * np.pi * random_phase_expected_power(ris, theta_i, theta_s, 1.0)


def _quadratic_form(x: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """sum_{w, v} x_w x_v pairs[w, v] per angle, for x waves x angles and real pairs
    waves x waves (x angles), in one fixed order of elementwise steps, so that equal
    columns of x give equal bits; at least 0, since every caller's form is a power."""
    out = np.zeros(x.shape[1:])
    for w, v in np.ndindex(pairs.shape[:2]):
        out += x[w] * x[v] * pairs[w, v]
    return np.maximum(out, 0.0)


def _random_phase_law(ris: LinearRis, waves, r_s: float, theta_s):
    """Every random-phase statistic's preamble, after the radius and angle checks:
    (sin_s, sin_w, weights, drive, power). weights are the cell weights A_n / lam
    times 2^-e, a power of 2 near the largest, so that no square of them, nor of a
    field they sum to, leaves the float range. drive(s) is x_w = A_w / A_max
    cos(theta_w) Sa(sin theta_w + s), the amplitudes relative to the largest;
    power(form) is |C|^2 / r_s^2 form A_max^2 2^(2 e), in that order so that a
    subnormal power rounds once, or FloatingPointError, naming the radius, where
    that is not finite. Both scales are exact where nothing is subnormal, so they
    leave the bits of the unscaled formulas there."""
    _check_radius(r_s)
    _check_finite("scatter angles", theta_s)
    sin_s = np.sin(np.asarray(theta_s, dtype=float)).ravel()
    theta, _, amplitude = _wave_arrays(waves, 1)
    sin_w = np.sin(theta)
    peak = amplitude.max(initial=0.0) or 1.0
    weight = amplitude / peak * np.cos(theta)
    coupling = abs(ris.ctx.coupling)
    # A 2^-e_a / (lam 2^-e_l), with no quotient A / lam that could overflow
    e_a, e_l = math.frexp(float(ris.areas.max()))[1], math.frexp(ris.ctx.wavelength)[1]
    weights = np.ldexp(ris.areas, -e_a) / math.ldexp(ris.ctx.wavelength, -e_l)

    def drive(s):
        return weight * _edge_sinc(ris.widths[0], ris.ctx.wavelength, sin_w + s)

    def power(form):
        # np.divide, since a Python float division by an r_s^2 of 0 raises ZeroDivisionError
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.ldexp(np.divide(coupling * coupling, r_s * r_s) * form * peak * peak,
                           2 * (e_a - e_l))
        if not np.all(np.isfinite(out)):
            raise FloatingPointError(f"the random-phase power at radius {r_s} is not finite")
        return out

    return sin_s, sin_w, weights, drive, power


def random_phase_miso_expected_power(ris: LinearRis, waves, r_s: float, theta_s):
    """Expected |E^s|^2 over the random phase law, per scatter angle theta_s.

    Independent zero-mean phases cancel the cross terms between cells, which
    leaves |C|^2/r^2 sum_n (A_n/lam)^2 |h_n|^2 for any waves,
    h_n = sum_w A_w cos(theta_w) Sa(theta_w, theta_s) e_w(n), with
    e_w(n) = e^{j 2 pi n d sin(theta_w)/lam}. The cells share one width, so Sa
    leaves the cell sum, and the power is x^T Re(G) x with the drive x_w of
    _random_phase_law and the waves' Gram matrix
    G_{wv} = sum_n (A_n/lam)^2 conj(e_w(n)) e_v(n), one _weighted_sum at the sines
    sin(theta_v) - sin(theta_w), formed once: W^2 steps per angle instead of W n. The
    unit-modulus scatter phase is left out, so for point cells the result is the same
    at every theta_s, bit for bit. A scalar theta_s gives a float.
    """
    sin_s, sin_w, weights, drive, power = _random_phase_law(ris, waves, r_s, theta_s)
    # entry [v, w] is G_{wv}, with the weights' scale squared; its real part is symmetric
    gram = _weighted_sum(ris, sin_w[:, 0], -sin_w[:, 0], weights ** 2)
    out = power(_quadratic_form(drive(sin_s), gram.real).reshape(np.shape(theta_s)))
    return float(out) if out.ndim == 0 else out


def monte_carlo_power(ris: LinearRis, waves, obs: ObservationPoint,
                      trials: int, seed) -> float:
    """Sample mean of |E^s|^2 over independent random phase draws."""
    return float(monte_carlo_power_grid(ris, waves, obs.r, [obs.direction.theta],
                                        trials, seed)[0])


def _lag_mean(ris: LinearRis, sin_s, sin_w, weights, x, trials: int, seed) -> np.ndarray:
    """The Monte Carlo mean before the power step at the sines sin_s, for the waves'
    sines sin_w, the cell weights and the drive x, from the lag correlations of the
    trials' cell excitations.

    With y_{w,t} = e_w o weights o sigma_t, the sample correlation
    rho_{wv}(D) = (1/T) sum_t sum_n conj(y_{w,t}(n)) y_{v,t}(n + D) comes from
    zero-padded FFT cross-spectra of length L >= 2n - 1, summed over blocks of
    trials; the mean is then 2 Re sum_{w,v} x_w x_v Q_{wv} per angle, with the lag
    sums Q_{wv}(s) = sum_{D >= 0} rho'_{wv}(D) e^{j 2 pi D d s / lam} and
    rho'(0) = rho(0) / 2: the negative lags are the conjugates of the positive ones,
    rho_{vw}(-D) = conj rho_{wv}(D). So the trials leave the per-angle work.
    """
    n, lam, waves = ris.n, ris.ctx.wavelength, len(sin_w)
    cells = _geometry_phase(n, ris.spacing, lam, sin_w[:, 0]) * weights
    size = 1 << (2 * n - 2).bit_length()
    block = max(1, CHUNK_TERMS // (max(1, waves) * size))
    spectra = np.zeros((waves, waves, size), dtype=complex)
    for lo in range(0, trials, block):
        signs = _trial_signs(n, seed, range(lo, min(lo + block, trials)))
        y = np.fft.fft(cells[:, None] * signs, size)
        spectra += np.einsum("wtl,vtl->wvl", y.conj(), y)
    rho = np.fft.ifft(spectra)[..., :n] / trials
    rho[..., 0] /= 2.0
    lags = _weighted_sum(ris, sin_s, np.zeros(1), rho.reshape(-1, n).T)[:, 0]
    return 2.0 * _quadratic_form(x, lags.real.T.reshape(waves, waves, sin_s.size))


def monte_carlo_power_grid(ris: LinearRis, waves, r_s: float, thetas, trials: int, seed,
                           return_stderr: bool = False):
    """Vectorized Monte Carlo mean of |E^s|^2 on a scatter-angle grid.

    Trial t draws its signs sigma_t from trial_rng(seed, t). The mean comes from
    the lag correlations of the trials' cell excitations (_lag_mean), one weighted
    kernel sum per angle whatever the trial count, with or without the standard
    error. That needs each trial's power, whose square has no lag form: the signed
    cell weights (scaled A/lam) o sigma_t of a block of trials are the weight
    columns of one _weighted_sum at sin_i = sin(theta_w), which hands each chunk of
    angles' sums to the sum of their squared powers as it goes, so memory stays
    bounded for any trial and angle count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    sin_s, sin_w, weights, drive, power = _random_phase_law(ris, waves, r_s, thetas)
    mean = _lag_mean(ris, sin_s, sin_w, weights, drive(sin_s), trials, seed)
    if not return_stderr:
        return power(mean)

    def squares(sin_chunk, sums):
        # each trial's field (angles x trials), its terms summed over the waves in their
        # order, and its squared power, in work arrays that the next chunk takes again
        x = drive(sin_chunk)[..., None]
        field, term = (_chunk_array(f"stderr.{s}", sums.shape[::2]) for s in ("field", "term"))
        if len(x):
            np.multiply(x[0], sums[:, 0], out=field)
        else:
            field.fill(0.0)
        for w in range(1, len(x)):
            field += np.multiply(x[w], sums[:, w], out=term)
        samples = np.abs(field, out=_chunk_array("stderr.samples", field.shape, float))
        samples *= samples
        samples *= samples
        return np.sum(samples, axis=-1)

    # each block forms the phases of every angle again; 64 trials or more keep that small
    block = max(64, CHUNK_TERMS // ris.n)
    square = np.zeros(sin_s.size)
    for lo in range(0, trials, block):
        # cells x trials, complex so that no chunk converts it again
        columns = (_trial_signs(ris.n, seed, range(lo, min(lo + block, trials)))
                   * weights).T.astype(complex)
        square += _weighted_sum(ris, sin_s, sin_w[:, 0], columns, squares)
    square /= trials
    return power(mean), power(np.sqrt(np.maximum(square - mean ** 2, 0.0) / max(trials - 1, 1)))


# ---------------------------------------------------------------------------
# Phase compensation
# ---------------------------------------------------------------------------

def compensation_delta(theta_i: float, theta_s: float) -> float:
    """Delta = sin(theta_i) + sin(theta_s) of a design pair of finite angles."""
    _check_finite("design angles", theta_i, theta_s)
    return float(np.sin(theta_i) + np.sin(theta_s))


def phase_compensation(theta_i: float, theta_s: float, ris: LinearRis) -> np.ndarray:
    """Per-cell phases -2 pi (n-1) d Delta / wavelength (mod 2 pi).

    With these phases the steering-function magnitude at the design pair
    attains its global maximum |C| sum(A_n / wavelength).
    """
    delta = compensation_delta(theta_i, theta_s)
    return -_cell_angle(ris.n, ris.spacing, ris.ctx.wavelength, delta) % TWO_PI


def grating_lobes(delta: float, spacing: float, wavelength: float,
                  theta_i: float) -> list[float]:
    """Secondary coherent-sum angles for a compensated array, sorted ascending.

    Empty whenever spacing/wavelength <= 1/2: the sine shift per congruence
    index is then at least 2, which cannot stay inside the visible region
    alongside a principal lobe.
    """
    pairs = anomalous_pairs(delta, spacing, wavelength, theta_i)
    if spacing / wavelength <= 0.5:
        return []
    base = delta - np.sin(theta_i)
    principal = float(np.arcsin(base)) if abs(base) <= 1.0 else None
    return [t for t in pairs if t != principal]


def anomalous_pairs(delta: float, spacing: float, wavelength: float,
                    theta_i_tilde: float) -> list[float]:
    """Scatter angles, ascending, that a compensated array steers theta_i_tilde towards.

    A fixed Delta is a generalized reflection law on every incident angle:
    sin(theta_s) = Delta - sin(theta_i) + k wavelength / spacing for each integer
    k with |sin(theta_s)| <= 1, and k = 0 maps the design pair to itself. k runs
    from floor((-1 - base) spacing / wavelength) to ceil((1 - base) spacing /
    wavelength), base = Delta - sin(theta_i): one spare index at each end for rounding.
    """
    if not (positive_finite(spacing) and positive_finite(wavelength)
            and math.isfinite(delta) and math.isfinite(theta_i_tilde)):
        raise ValueError("spacing and wavelength must be positive and finite, delta and angle finite")
    base = delta - np.sin(theta_i_tilde)
    out = []
    for k in range(int(np.floor((-1.0 - base) * spacing / wavelength)),
                   int(np.ceil((1.0 - base) * spacing / wavelength)) + 1):
        s = base + k * wavelength / spacing
        if abs(s) <= 1.0:
            out.append(float(np.arcsin(s)))
    return out


def compensated_steering(ris: LinearRis, delta: float, theta_i: float,
                         theta_s: float) -> complex:
    """Steering function under compensation phases for a given Delta.

    The compensation phases shift s = sin(theta_i) + sin(theta_s) by -Delta,
    so this is the point-cell steering sum at the shifted s.
    """
    _check_finite("delta and angles", delta, theta_i, theta_s)
    point_cells = LinearRis(ris.spacing, ris.areas, 0.0, 0.0, ris.ctx)
    return complex(_steering(point_cells, np.sin(theta_i) + np.sin(theta_s) - delta))


def compensated_rcs(ris: LinearRis, delta: float, theta_i: float,
                    theta_s: float) -> float:
    t = abs(compensated_steering(ris, delta, theta_i, theta_s))
    return float(4.0 * np.pi * np.cos(theta_i) ** 2 * (t * t))


# ---------------------------------------------------------------------------
# Beam reshaping
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReshapeSolution:
    """Complex per-cell weights A_n e^{j Omega_n} plus solver diagnostics."""

    weights: np.ndarray
    residual: float
    rank: int
    discarded_fraction: float
    truncation_tol: float

    @property
    def areas(self) -> np.ndarray:
        return np.abs(self.weights)

    @property
    def phases(self) -> np.ndarray:
        return np.angle(self.weights)

    def to_json_dict(self) -> dict:
        """Weights as [re, im] pairs, then the diagnostics; truncation_tol is left out."""
        return {"weights": _complex_pairs(self.weights),
                "residual": self.residual,
                "rank": self.rank,
                "discarded_fraction": self.discarded_fraction}


def _norm(x) -> float:
    """||x|| of x scaled by a power of 2 near its largest magnitude, so that no square leaves
    the float range; the bits of np.linalg.norm(x) wherever its squares stay normal."""
    e = math.frexp(float(np.max(np.abs(x), initial=0.0)))[1]
    # x times 2^-e in two exact steps, since 2^-e alone may leave the float range
    half = -e // 2
    scaled = x * math.ldexp(1.0, half) * math.ldexp(1.0, -e - half)
    return math.ldexp(float(np.linalg.norm(scaled)), e)


def _fraction(part, whole) -> float:
    """||part|| / ||whole||, and 0.0 for a zero whole."""
    norm = _norm(whole)
    return _norm(part) / norm if norm > 0.0 else 0.0


def _svd_solve(v_s, desired, truncation_tol):
    """Least squares V_s c ~= desired by truncated SVD: (c, rank, discarded fraction).

    Singular directions below truncation_tol * sigma_max are dropped. The
    discarded fraction is ||desired - U_keep U_keep^H desired|| / ||desired||,
    which reads round-off, not sqrt(eps), when nothing is dropped. LAPACK's
    gesdd can fail to converge where the SVD of the transpose converges (an exact
    1024-point DFT matrix does on some builds), so that is tried once before giving up.
    """
    try:
        u, sing, vh = np.linalg.svd(v_s, full_matrices=False)
    except np.linalg.LinAlgError:
        # v_s^T = V S U^T
        vt, sing, ut = np.linalg.svd(v_s.T, full_matrices=False)
        u, vh = ut.T, vt.T
    keep = sing >= truncation_tol * sing[0]
    u_keep = u[:, keep]
    proj = u_keep.conj().T @ desired
    coeff = vh[keep].conj().T @ (proj / sing[keep])
    return coeff, int(np.count_nonzero(keep)), _fraction(desired - u_keep @ proj, desired)


def _dft_solve(desired, truncation_tol):
    """The same solve when V_s is the scaled DFT: c = (-1)^m fft(desired) / n.

    Every singular value equals sqrt(n), so truncation_tol <= 1 keeps all n
    directions and discards nothing, and a larger tolerance keeps none.
    """
    n = desired.size
    if truncation_tol > 1.0:
        return np.zeros(n, dtype=complex), 0, _fraction(desired, desired)
    return _alternating_signs(n) * np.fft.fft(desired) / n, n, 0.0


def beam_reshape(sys: MimoSystem, incident_amplitudes, desired,
                 truncation_tol: float = 1e-8,
                 max_discard_fraction: float = 0.5) -> ReshapeSolution:
    """Least-squares weights making the scattered field approximate `desired`.

    Solves min_W || (beta/N) V_s (W o E_hat) - desired || through a truncated
    SVD of the scatter steering matrix; singular directions below
    truncation_tol * sigma_max are dropped. On the half-wavelength DFT grid
    (MimoSystem.on_dft_grid) the same solve is one FFT. Cells whose
    aggregated incident excitation is numerically zero get zero weight: under
    1e-12 of the largest, or, times beta/N, under the normal float range.

    All observation points must share one reference radius exactly. Raises
    ReshapeConditioningError when the dropped directions carry more than
    max_discard_fraction of ||desired||, and FloatingPointError when a weight
    leaves the float range (a desired pattern far past what the amplitudes reach).
    """
    desired = np.asarray(desired, dtype=complex)
    if desired.shape != (sys.n_outputs,):
        raise ValueError(f"expected {sys.n_outputs} desired values, got {desired.shape}")
    _check_finite("desired values", desired)
    if np.any(sys.radii != sys.radii[0]):
        raise ValueError("beam reshaping needs a single reference radius")

    e_hat = sys.incident_projection(incident_amplitudes)
    if sys.on_dft_grid:
        coeff, rank, discarded = _dft_solve(desired, truncation_tol)
    else:
        coeff, rank, discarded = _svd_solve(sys.v_scatter, desired, truncation_tol)
    if discarded > max_discard_fraction:
        raise ReshapeConditioningError(
            f"truncation discards {discarded:.3f} of the desired pattern "
            f"(limit {max_discard_fraction})")

    # coeff minimises ||V_s c - desired||, with c = (beta/N) W o E_hat
    beta_n = sys.prefactor * sys.range_diag[0]
    guard = 1e-12 * np.max(np.abs(e_hat), initial=0.0)
    weights = np.zeros(sys.n_cells, dtype=complex)
    # numpy's complex division forms the reciprocal of the divisor, which overflows under
    # the normal range
    divisors = beta_n * e_hat
    live = (np.abs(e_hat) > guard) & (np.abs(divisors) >= np.finfo(float).tiny)
    with np.errstate(over="ignore", invalid="ignore"):
        weights[live] = coeff[live] / divisors[live]
    if not np.all(np.isfinite(weights)):
        raise FloatingPointError("the reshape gave non-finite weights")

    achieved = beta_n * sys.scatter(weights * e_hat)
    residual = _norm(achieved - desired)
    return ReshapeSolution(weights=weights, residual=residual, rank=rank,
                           discarded_fraction=discarded,
                           truncation_tol=truncation_tol)
