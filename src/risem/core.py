"""Shared geometric and electromagnetic primitives.

All angles are in radians. Lengths carry whatever unit the wavelength is
expressed in; wavelength-normalized coordinates (wavelength = 1) are the
recommended convention and the one used by the bundled presets.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * np.pi

# Below this magnitude sin(x)/x is evaluated with its Taylor expansion,
# keeping the relative error under 1e-13 on both branches.
SINC_TAYLOR_CUTOFF = 1e-6
# Entries per chunk of every chunked reduction (core._chunked). Each temporary
# array then holds about max(CHUNK_TERMS, width) elements, whatever the point
# count; width is the cell count of an array sum.
CHUNK_TERMS = 2 ** 14


def positive_finite(x) -> bool:
    """True when x, a number or an array, is finite and above zero throughout."""
    return bool(np.all(np.isfinite(x) & np.greater(x, 0)))


def _check_finite(what: str, *values) -> None:
    """Refuse values, numbers or arrays, with ValueError "<what> must be finite" unless all finite."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{what} must be finite")


def _check_result(message: str, *values) -> None:
    """Refuse results, numbers or arrays, with FloatingPointError(message) unless all finite:
    a finite input whose result leaves the float range."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise FloatingPointError(message)


def _check_radius(r) -> None:
    if not positive_finite(r):
        raise ValueError(f"observation radius must be positive and finite, got {r}")


def sinc_normalized(x):
    """sin(x)/x with the removable singularity handled explicitly.

    Accepts scalars or arrays. Returns a float for scalar input. One pass
    divides sin(x) by x in place, away from the entries under the cutoff,
    which then take the Taylor value, if there are any.
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < SINC_TAYLOR_CUTOFF
    # an array out, so that a 0-d input is written in place as well
    out = np.sin(arr, out=np.empty(arr.shape))
    np.divide(out, arr, out=out, where=~small)
    if small.any():
        tiny = arr[small]
        out[small] = 1.0 - tiny * tiny / 6.0
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class WaveContext:
    """Global wave constants: wavelength and surface reflection coefficient.

    The default reflection coefficient -1 corresponds to a perfect electric
    conductor, for which |coupling| = 1.
    """

    wavelength: float = 1.0
    reflection_coefficient: complex = -1.0 + 0.0j

    def __post_init__(self):
        if not positive_finite(self.wavelength):
            raise ValueError(f"wavelength must be positive and finite, got {self.wavelength}")
        _check_finite("reflection coefficient", self.reflection_coefficient)

    @property
    def coupling(self) -> complex:
        """Scattering coupling constant -j (1 - reflection_coefficient) / 2."""
        return -0.5j * (1.0 - self.reflection_coefficient)


@dataclass(frozen=True)
class Direction:
    """A direction in spherical coordinates.

    Full spherical convention: theta in [0, pi], phi in [-pi, pi].
    The linear-array convention uses theta in [-pi/2, pi/2] measured against
    the z-axis inside the yoz plane; phi is then ignored by the linear model.
    Both angles, numbers or arrays, must be finite.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        # the angles may be arrays of directions
        _check_finite("direction angles", self.theta, self.phi)


@dataclass(frozen=True)
class ObservationPoint:
    r: float
    direction: Direction

    def __post_init__(self):
        _check_radius(self.r)


@dataclass(frozen=True)
class PlaneWave:
    """Uniform plane wave: origin direction plus real amplitude."""

    direction: Direction
    amplitude: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ValueError(
                f"wave amplitude must be finite and non-negative, got {self.amplitude}")


@dataclass(frozen=True)
class SphericalField:
    """Complex (r, theta, phi) field components at an observation point."""

    e_r: complex
    e_theta: complex
    e_phi: complex

    @property
    def magnitude(self) -> float:
        return math.hypot(abs(self.e_r), abs(self.e_theta), abs(self.e_phi))


def _unit_vectors(theta, phi) -> np.ndarray:
    """[sin t cos p, sin t sin p, cos t] over broadcast angles, on a new last axis."""
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(st * np.cos(phi), st * np.sin(phi), np.cos(theta)),
                    axis=-1)


def direction_vector(d: Direction) -> np.ndarray:
    """Unit propagation-direction vector [sin t cos p, sin t sin p, cos t]."""
    return _unit_vectors(d.theta, d.phi)


def _polarization_factors(phi_i, theta_s, phi_s):
    """(f_theta, f_phi) of the scattered field over broadcast angles."""
    f_theta = np.cos(theta_s) * (np.cos(phi_i) * np.sin(phi_s)
                                 - np.sin(phi_i) * np.cos(phi_s))
    f_phi = np.sin(phi_i) * np.sin(phi_s) + np.cos(phi_i) * np.cos(phi_s)
    return f_theta, f_phi


def _phasor_libm(arg, out=None) -> np.ndarray:
    """exp(j arg) of a real array, cos and sin written into the parts of one complex array.

    These are the bits of np.exp(1j * arg) without its complex temporaries,
    except at arg = -0.0, whose imaginary part here is -0.0. _phasor's
    fallback, and its reference in the tests. out, if given, is a complex
    array of arg's shape that receives the result.
    """
    phase = np.empty(np.shape(arg), dtype=complex) if out is None else out
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
    return phase


# _phasor's table of e^{j 2 pi i / _TABLE_SIZE}: 16 KiB of complex entries.
_TABLE_SIZE = 2 ** 10
_STEP = TWO_PI / _TABLE_SIZE
# 2 pi / _TABLE_SIZE split as _STEP_HI + _STEP_LO (Cody and Waite). _STEP_HI keeps
# 21 significant bits, so k _STEP_HI is exact for |k| < 2^32; _STEP_LO holds the
# rest, with the part of 2 pi past the float64 TWO_PI (twice pi's float64 tail).
_STEP_HI = math.ldexp(round(math.ldexp(_STEP, 28)), -28)
_STEP_LO = (_STEP - _STEP_HI) + 2.0 * 1.2246467991473532e-16 / _TABLE_SIZE
# past this |arg| _phasor falls back to libm: up to it k < 2^28, and k _STEP_LO
# rounds by under 2e-17
_TABLE_RANGE = 2.0 ** 20
# a float under 2^51 plus 1.5 * 2^52 is rounded to an integer, half to even as
# np.rint rounds, and that integer is the low bits of the sum. Unlike np.rint it
# gives +0.0 for -0.0, so x - k _STEP_HI keeps the sign of a zero x.
_ROUND = 1.5 * 2.0 ** 52


def _unit_circle_table() -> np.ndarray:
    """e^{j 2 pi i / _TABLE_SIZE} for i = 0.._TABLE_SIZE-1.

    Only the first octant is cos and sin; the rest follows by symmetries that
    are exact in floating point, so 1, j, -1 and -j are exact and
    T[N - i] = conj T[i]. Each entry is within 9.6e-17 of e^{j 2 pi i / N}, and
    np.exp(2j pi i / N) within 6.5e-16.
    """
    n = _TABLE_SIZE
    octant = np.arange(n // 8 + 1) * _STEP
    c, s = np.cos(octant), np.sin(octant)
    # cos(pi/2 - x) = sin x over the second octant, then e^{j(x + pi/2)} = j e^{jx}
    # over the second quarter, then e^{-jx} = conj e^{jx} over the second half
    qc, qs = np.concatenate([c, s[-2::-1]]), np.concatenate([s, c[-2::-1]])
    hc, hs = np.concatenate([qc, -qs[1:]]), np.concatenate([qs, qc[1:]])
    table = np.empty(n, dtype=complex)
    table.real[:n // 2 + 1], table.real[n // 2 + 1:] = hc, hc[-2:0:-1]
    table.imag[:n // 2 + 1], table.imag[n // 2 + 1:] = hs, -hs[-2:0:-1]
    # T[0] = 1 - 0j: a rotation of imaginary part -0.0 (the r of an argument -0.0)
    # then keeps its sign in the product, as -0.0 + -0.0, and +0.0 stays +0.0
    table.imag[0] = -0.0
    table.flags.writeable = False
    return table


_TABLE = _unit_circle_table()
# each thread's work arrays, one per slot (_chunk_array)
_scratch = threading.local()


def _chunk_array(slot: str, shape, dtype=complex) -> np.ndarray:
    """An uninitialised array of shape: a view of this thread's work array slot, made on
    first use with CHUNK_TERMS entries of dtype, where shape fits in it, else a new array.

    The one pool of the temporaries that a kernel spends before its next chunk or call,
    never of results. A slot's name starts with its kernel's, as kernels nest; it keeps
    the dtype it was made with. Reuse saves page faults: with fresh arrays per call,
    glibc trimmed the heap top after every chunk of _phasor, 28 350 minor faults for
    each 1000-cell, 3601-angle steering sum in a fresh process, against none.
    """
    size = math.prod(shape)
    if size > CHUNK_TERMS:
        return np.empty(shape, dtype=dtype)
    arrays = vars(_scratch)
    if slot not in arrays:
        arrays[slot] = np.empty(CHUNK_TERMS, dtype=dtype)
    return arrays[slot][:size].reshape(shape)


def _phasor(arg, out=None) -> np.ndarray:
    """exp(j arg) of a real array, from a table of the unit circle and a short polynomial.

    Table-driven (Tang, ACM TOMS 15(2), 1989), with N = _TABLE_SIZE:
    k = rint(arg N / 2 pi), r = (arg - k C_hi) - k C_lo with C_hi + C_lo = 2 pi / N
    (k C_hi is exact), and exp(j arg) = T[k mod N] (cos r + j sin r), where
    |r| <= pi / N and Taylor polynomials give cos r and sin r. The result is
    within 1e-15 of _phasor_libm's cos and sin of the same argument (about one
    unit in the last place); the argument itself is used as given. A -0.0
    argument keeps imaginary part -0.0.

    Arrays of any shape are evaluated in pieces of CHUNK_TERMS through this
    thread's work arrays, so a call allocates only its result, and nothing
    when out, a C-contiguous complex array of arg's shape, receives it. A 0-d
    or empty array, or one with a value that is not finite or past
    _TABLE_RANGE in magnitude, takes _phasor_libm whole.
    """
    arg = np.asarray(arg, dtype=float)
    if (arg.ndim == 0 or not arg.size
            or not (arg.min() >= -_TABLE_RANGE and arg.max() <= _TABLE_RANGE)):
        return _phasor_libm(arg, out)
    phase = np.empty(arg.shape, dtype=complex) if out is None else out
    flat_arg, flat = arg.reshape(-1), phase.reshape(-1)
    k_all, index_all, rotation_all = (_chunk_array(slot, (CHUNK_TERMS,), dtype) for slot, dtype in (
        ("phasor.k", float), ("phasor.index", np.int64), ("phasor.rotation", complex)))
    for lo in range(0, flat.size, CHUNK_TERMS):
        x, out = flat_arg[lo:lo + CHUNK_TERMS], flat[lo:lo + CHUNK_TERMS]
        k, index, rotation = (a[:x.size] for a in (k_all, index_all, rotation_all))
        np.multiply(x, _TABLE_SIZE / TWO_PI, out=k)
        k += _ROUND
        np.bitwise_and(k.view(np.int64), _TABLE_SIZE - 1, out=index)
        k -= _ROUND
        # until the table fills it, out holds r and sin r as two contiguous halves
        r, sin_r = out.view(float).reshape(2, x.size)
        np.multiply(k, _STEP_HI, out=r)
        np.subtract(x, r, out=r)
        k *= _STEP_LO
        r -= k
        r2 = np.multiply(r, r, out=k)
        # sin r = r (1 - r^2 (1/6 - r^2/120)) and cos r = 1 - r^2 (1/2 - r^2/24):
        # the next terms are under 2e-18. They run in contiguous arrays, and only the
        # last step of each writes its strided part of the rotation: run on those parts,
        # their nine passes made _phasor about a third slower
        np.multiply(r2, 1.0 / 120.0, out=sin_r)
        sin_r -= 1.0 / 6.0
        sin_r *= r2
        sin_r += 1.0
        np.multiply(sin_r, r, out=rotation.imag)
        # r is spent: its half holds cos r
        cos_r = np.multiply(r2, 1.0 / 24.0, out=r)
        cos_r -= 0.5
        cos_r *= r2
        np.add(cos_r, 1.0, out=rotation.real)
        # mode "raise" would buffer out
        np.take(_TABLE, index, out=out, mode="clip")
        out *= rotation
    return phase


def _edge_sinc(width, wavelength, u):
    """sinc(((pi width) / wavelength) u), broadcast: the factor of a cell edge of that width."""
    return sinc_normalized(np.pi * np.asarray(width) / wavelength * u)


def _sinc_pair(a, b, ux, uy, wavelength):
    """sinc(pi a ux / wavelength) sinc(pi b uy / wavelength), broadcast."""
    return _edge_sinc(a, wavelength, ux) * _edge_sinc(b, wavelength, uy)


def sampling_sa(a: float, b: float, scatter: Direction, incident: Direction,
                ctx: WaveContext) -> float:
    """Product of two normalized sinc factors: the patch's intrinsic directivity.

    Symmetric under swapping the scatter and incident directions; bounded by 1
    in magnitude. The edges a and b must be finite.
    """
    _check_finite("cell edges", a, b)
    u = direction_vector(scatter) + direction_vector(incident)
    return _sinc_pair(a, b, u[0], u[1], ctx.wavelength)


def _chunk_step(width: int) -> int:
    """The points per slice of _chunked for a reduction of width entries per point."""
    return max(1, CHUNK_TERMS // width)


def _chunked(reduce_chunk, points: np.ndarray, width: int) -> np.ndarray:
    """reduce_chunk over slices of points (first axis), one result row per point.

    Each slice holds _chunk_step(width) points, so a reduction whose temporaries
    hold width entries per point stays bounded for any number of points.
    """
    step = _chunk_step(width)
    # no points still make one empty slice, so the result keeps its row shape
    return np.concatenate([reduce_chunk(points[lo:lo + step])
                           for lo in range(0, max(len(points), 1), step)])


def _wave_arrays(waves, ndim: int = 0):
    """(theta, phi, amplitude) of the waves on a leading axis, then ndim unit axes
    that broadcast against ndim axes of scatter directions."""
    shape = (len(waves),) + (1,) * ndim
    return tuple(np.array(values, dtype=float).reshape(shape) for values in
                 ([w.direction.theta for w in waves], [w.direction.phi for w in waves],
                  [w.amplitude for w in waves]))


def _sum_waves(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading (wave) axis from zero, one wave after the other (np.sum
    may pair them up), so a -0.0 total reads +0.0. np.add.accumulate gives the same
    bits but runs the short wave axis innermost: 12 times as long on 2 x 16 x 1000
    terms."""
    if not len(terms):
        return np.zeros(terms.shape[1:], dtype=terms.dtype)
    # 0.0 + t and t + 0.0 are equal; np.zeros would take fresh zeroed pages
    total = terms[0] + 0.0
    for term in terms[1:]:
        total += term
    return total


def sampling_sa_linear(b, theta_s, theta_i, wavelength):
    """Single-sinc directivity for in-plane (yoz) evaluation.

    b = 0 is allowed and gives exactly 1 (point-source idealization).
    Accepts finite arrays in any argument, and a positive wavelength.
    """
    _check_finite("cell width and angles", b, theta_s, theta_i)
    if not positive_finite(wavelength):
        raise ValueError(f"wavelength must be positive and finite, got {wavelength}")
    return _edge_sinc(b, wavelength, np.sin(theta_s) + np.sin(theta_i))
