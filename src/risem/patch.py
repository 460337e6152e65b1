"""Bistatic scattering from a single rectangular conducting patch.

Closed-form far-field components, field strength and bistatic RCS, plus a
Gauss-Legendre quadrature pipeline over the induced surface current that
serves as an independent numerical check of the closed forms.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import Direction, ObservationPoint, WaveContext, positive_finite, sampling_sa


@dataclass(frozen=True)
class Patch:
    """Rectangular patch with x-edge a, y-edge b and collecting area.

    The collecting area defaults to a*b but is an independent quantity: the
    effective area of a structured cell need not equal its physical footprint.
    """

    a: float
    b: float
    area: float | None = None

    def __post_init__(self):
        if not (positive_finite(self.a) and positive_finite(self.b)):
            raise ValueError("patch edges must be positive and finite")
        if self.area is None:
            object.__setattr__(self, "area", self.a * self.b)
        elif not positive_finite(self.area):
            raise ValueError("patch area must be positive and finite")


@dataclass(frozen=True)
class PlaneWave:
    """Uniform plane wave: origin direction plus real amplitude."""

    direction: Direction
    amplitude: float = 1.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("wave amplitude must be non-negative")


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

    def __add__(self, other: "SphericalField") -> "SphericalField":
        return SphericalField(self.e_r + other.e_r,
                              self.e_theta + other.e_theta,
                              self.e_phi + other.e_phi)


def _polarization_factors(incident: Direction, scatter: Direction):
    f_theta = np.cos(scatter.theta) * (np.cos(incident.phi) * np.sin(scatter.phi)
                                       - np.sin(incident.phi) * np.cos(scatter.phi))
    f_phi = (np.sin(incident.phi) * np.sin(scatter.phi)
             + np.cos(incident.phi) * np.cos(scatter.phi))
    return f_theta, f_phi


def patch_scattered_field(patch: Patch, wave: PlaneWave, obs: ObservationPoint,
                          ctx: WaveContext) -> SphericalField:
    """Far-field scattered by the patch for one incident plane wave.

    The radial component vanishes in the far field.
    """
    lam = ctx.wavelength
    inc, sct = wave.direction, obs.direction
    pref = (ctx.coupling * (patch.area / lam)
            * np.exp(-2j * np.pi * obs.r / lam) / obs.r
            * wave.amplitude * np.cos(inc.theta))
    sa = sampling_sa(patch.a, patch.b, sct, inc, ctx)
    f_theta, f_phi = _polarization_factors(inc, sct)
    return SphericalField(0.0j, pref * f_theta * sa, pref * f_phi * sa)


def patch_scattered_field_multi(patch: Patch, waves: Sequence[PlaneWave],
                                obs: ObservationPoint, ctx: WaveContext) -> SphericalField:
    """Superposition of the scattered fields of several incident waves."""
    if not waves:
        raise ValueError("wave list must be non-empty")
    total = SphericalField(0.0j, 0.0j, 0.0j)
    for wave in waves:
        total = total + patch_scattered_field(patch, wave, obs, ctx)
    return total


def patch_field_strength(patch: Patch, wave: PlaneWave, obs: ObservationPoint,
                         ctx: WaveContext) -> float:
    return patch_scattered_field(patch, wave, obs, ctx).magnitude


def patch_bistatic_rcs(patch: Patch, incident: Direction, scatter: Direction,
                       ctx: WaveContext) -> float:
    """Bistatic RCS (area units); independent of range and incident amplitude."""
    lam = ctx.wavelength
    sa = sampling_sa(patch.a, patch.b, scatter, incident, ctx)
    f_theta, f_phi = _polarization_factors(incident, scatter)
    return float(4.0 * np.pi * abs(ctx.coupling) ** 2 * (patch.area / lam) ** 2
                 * np.cos(incident.theta) ** 2
                 * (f_theta ** 2 + f_phi ** 2) * sa ** 2)


def po_radiation_integrals(patch: Patch, wave: PlaneWave, scatter: Direction,
                           ctx: WaveContext, quadrature_order: int = 64):
    """Radiation integrals (N_theta, N_phi) over the induced surface current.

    2-D Gauss-Legendre quadrature of the impedance-normalized current density
    against the far-field phase kernel. The intrinsic impedance cancels in the
    final field assembly, so currents are computed with E/eta -> E.
    """
    if quadrature_order < 2:
        raise ValueError("quadrature order must be at least 2")
    lam = ctx.wavelength
    inc = wave.direction
    g = 1.0 - ctx.reflection_coefficient

    nodes, weights = np.polynomial.legendre.leggauss(quadrature_order)
    x = 0.5 * patch.a * nodes
    wx = 0.5 * patch.a * weights
    y = 0.5 * patch.b * nodes
    wy = 0.5 * patch.b * weights
    xx, yy = np.meshgrid(x, y, indexing="ij")
    ww = np.outer(wx, wy)

    # incident-phase factor of the induced current plus the radiation kernel
    phase = np.exp(2j * np.pi / lam * (
        xx * (np.sin(inc.theta) * np.cos(inc.phi)
              + np.sin(scatter.theta) * np.cos(scatter.phi))
        + yy * (np.sin(inc.theta) * np.sin(inc.phi)
                + np.sin(scatter.theta) * np.sin(scatter.phi))))

    jx = -g * wave.amplitude * np.cos(inc.theta) * np.sin(inc.phi)
    jy = g * wave.amplitude * np.cos(inc.theta) * np.cos(inc.phi)

    integral = np.sum(ww * phase)
    n_theta = (jx * np.cos(scatter.theta) * np.cos(scatter.phi)
               + jy * np.cos(scatter.theta) * np.sin(scatter.phi)) * integral
    n_phi = (-jx * np.sin(scatter.phi) + jy * np.cos(scatter.phi)) * integral
    return complex(n_theta), complex(n_phi)


def po_far_field(patch: Patch, wave: PlaneWave, obs: ObservationPoint,
                 ctx: WaveContext, quadrature_order: int = 64) -> SphericalField:
    """Far field assembled from the quadrature radiation integrals.

    Independent numerical route to the same quantity as patch_scattered_field,
    used as a cross-check; the two agree to quadrature accuracy.
    """
    lam = ctx.wavelength
    n_theta, n_phi = po_radiation_integrals(patch, wave, obs.direction, ctx,
                                            quadrature_order)
    pref = -1j / (2.0 * lam) * np.exp(-2j * np.pi * obs.r / lam) / obs.r
    return SphericalField(0.0j, pref * n_theta, pref * n_phi)
