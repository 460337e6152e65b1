"""Shared geometric and electromagnetic primitives.

All angles are in radians. Lengths carry whatever unit the wavelength is
expressed in; wavelength-normalized coordinates (wavelength = 1) are the
recommended convention and the one used by the bundled presets.
"""
from __future__ import annotations

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
    """True for a finite number above zero; False for NaN and infinities."""
    return bool(np.isfinite(x) and x > 0)


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
        if not np.isfinite(self.reflection_coefficient):
            raise ValueError(
                f"reflection coefficient must be finite, got {self.reflection_coefficient}")

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
    """

    theta: float
    phi: float = 0.0


@dataclass(frozen=True)
class ObservationPoint:
    r: float
    direction: Direction

    def __post_init__(self):
        if not positive_finite(self.r):
            raise ValueError(f"observation radius must be positive and finite, got {self.r}")


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
        return float(np.sqrt(abs(self.e_r) ** 2 + abs(self.e_theta) ** 2
                             + abs(self.e_phi) ** 2))


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


def _phasor(arg) -> np.ndarray:
    """exp(j arg) of a real array, cos and sin written into the parts of one complex array.

    These are the bits of np.exp(1j * arg) without its complex temporaries,
    except at arg = -0.0, whose imaginary part here is -0.0.
    """
    phase = np.empty(np.shape(arg), dtype=complex)
    np.cos(arg, out=phase.real)
    np.sin(arg, out=phase.imag)
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
    in magnitude.
    """
    u = direction_vector(scatter) + direction_vector(incident)
    return _sinc_pair(a, b, u[0], u[1], ctx.wavelength)


def _chunked(reduce_chunk, points: np.ndarray, width: int) -> np.ndarray:
    """reduce_chunk over slices of points (first axis), one result row per point.

    Each slice holds max(1, CHUNK_TERMS // width) points, so a reduction whose
    temporaries hold width entries per point stays bounded for any number of
    points.
    """
    step = max(1, CHUNK_TERMS // width)
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
    """Sum over the leading (wave) axis from zero, one wave after the other: the
    bits of `total += term` per wave, which np.sum may pair up and accumulate does not."""
    if not len(terms):
        return np.zeros(terms.shape[1:], dtype=terms.dtype)
    total = np.add.accumulate(terms)[-1]
    total += 0.0  # a zero start makes a -0.0 total +0.0
    return total


def sampling_sa_linear(b, theta_s, theta_i, wavelength):
    """Single-sinc directivity for in-plane (yoz) evaluation.

    b = 0 is allowed and gives exactly 1 (point-source idealization).
    Accepts arrays in any argument.
    """
    return _edge_sinc(b, wavelength, np.sin(theta_s) + np.sin(theta_i))
