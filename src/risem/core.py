"""Shared geometric and electromagnetic primitives.

All angles are in radians. Lengths carry whatever unit the wavelength is
expressed in; wavelength-normalized coordinates (wavelength = 1) are the
recommended convention and the one used by the bundled presets.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Below this magnitude sin(x)/x is evaluated with its Taylor expansion,
# keeping the relative error under 1e-13 on both branches.
SINC_TAYLOR_CUTOFF = 1e-6
# Cell-terms per chunk of every array sum. Each temporary array of a sum
# then holds max(CHUNK_TERMS, cells) elements, whatever the point count.
CHUNK_TERMS = 2 ** 14


def positive_finite(x) -> bool:
    """True for a finite number above zero; False for NaN and infinities."""
    return bool(np.isfinite(x) and x > 0)


def sinc_normalized(x):
    """sin(x)/x with the removable singularity handled explicitly.

    Accepts scalars or arrays. Returns a float for scalar input.
    """
    arr = np.asarray(x, dtype=float)
    small = np.abs(arr) < SINC_TAYLOR_CUTOFF
    safe = np.where(small, 1.0, arr)
    out = np.where(small, 1.0 - arr * arr / 6.0, np.sin(safe) / safe)
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


def _sinc_pair(a, b, ux, uy, wavelength):
    """sinc(pi a ux / wavelength) sinc(pi b uy / wavelength), broadcast."""
    return (sinc_normalized(np.pi * a / wavelength * ux)
            * sinc_normalized(np.pi * b / wavelength * uy))


def sampling_sa(a: float, b: float, scatter: Direction, incident: Direction,
                ctx: WaveContext) -> float:
    """Product of two normalized sinc factors: the patch's intrinsic directivity.

    Symmetric under swapping the scatter and incident directions; bounded by 1
    in magnitude.
    """
    u = direction_vector(scatter) + direction_vector(incident)
    return _sinc_pair(a, b, u[0], u[1], ctx.wavelength)


def _chunked_sum(cell_terms, points: np.ndarray, cells: int) -> np.ndarray:
    """Sum of cell_terms(chunk) over its last (cell) axis, for every point.

    points holds one evaluation point per entry of its first axis; cell_terms
    maps a slice of them to the terms with the cells on a new last axis. Each
    chunk holds max(1, CHUNK_TERMS // cells) points, so memory stays bounded
    for any number of points.
    """
    out = np.empty(len(points), dtype=complex)
    step = max(1, CHUNK_TERMS // cells)
    for lo in range(0, len(points), step):
        out[lo:lo + step] = np.sum(cell_terms(points[lo:lo + step]), axis=-1)
    return out


def sampling_sa_linear(b, theta_s, theta_i, wavelength):
    """Single-sinc directivity for in-plane (yoz) evaluation.

    b = 0 is allowed and gives exactly 1 (point-source idealization).
    Accepts arrays in any argument.
    """
    arg = (np.pi * np.asarray(b) / wavelength) * (np.sin(theta_s) + np.sin(theta_i))
    return sinc_normalized(arg)
