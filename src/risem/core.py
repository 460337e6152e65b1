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
        if not self.wavelength > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")

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


def direction_vector(d: Direction) -> np.ndarray:
    """Unit propagation-direction vector [sin t cos p, sin t sin p, cos t]."""
    st = np.sin(d.theta)
    return np.array([st * np.cos(d.phi), st * np.sin(d.phi), np.cos(d.theta)])


def sampling_sa(a: float, b: float, scatter: Direction, incident: Direction,
                ctx: WaveContext) -> float:
    """Product of two normalized sinc factors: the patch's intrinsic directivity.

    Symmetric under swapping the scatter and incident directions; bounded by 1
    in magnitude.
    """
    lam = ctx.wavelength
    xs = (np.pi * a / lam) * (np.sin(scatter.theta) * np.cos(scatter.phi)
                              + np.sin(incident.theta) * np.cos(incident.phi))
    ys = (np.pi * b / lam) * (np.sin(scatter.theta) * np.sin(scatter.phi)
                              + np.sin(incident.theta) * np.sin(incident.phi))
    return sinc_normalized(xs) * sinc_normalized(ys)


def sampling_sa_linear(b, theta_s, theta_i, wavelength):
    """Single-sinc directivity for in-plane (yoz) evaluation.

    b = 0 is allowed and gives exactly 1 (point-source idealization).
    Accepts arrays in any argument.
    """
    arg = (np.pi * np.asarray(b) / wavelength) * (np.sin(theta_s) + np.sin(theta_i))
    return sinc_normalized(arg)
