"""Bistatic scattering from a single rectangular conducting patch.

Closed-form far-field components and bistatic RCS, evaluated as the one-cell
case of the planar-array sum in `surface`, plus a Gauss-Legendre quadrature
pipeline over the induced surface current that serves as an independent
numerical check of the closed forms.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import Direction, ObservationPoint, PlaneWave, SphericalField, WaveContext
from .surface import (RisGeometry, UnitCell, ris_bistatic_rcs, ris_scattered_field,
                      ris_scattered_field_multi)


class Patch(UnitCell):
    """Rectangular patch with x-edge a, y-edge b and collecting area: the cell at the origin.

    The collecting area defaults to a*b but is an independent quantity: the
    effective area of a structured cell need not equal its physical footprint.
    Edges and area are checked, and patches compared, as for any UnitCell.
    """

    def __init__(self, a: float, b: float, area: float | None = None):
        super().__init__(np.zeros(3), a, b, area)


def patch_scattered_field(patch: Patch, wave: PlaneWave, obs: ObservationPoint,
                          ctx: WaveContext) -> SphericalField:
    """Far-field scattered by the patch for one incident plane wave.

    The radial component vanishes in the far field.
    """
    return ris_scattered_field(RisGeometry((patch,), ctx), wave, obs)


def patch_scattered_field_multi(patch: Patch, waves: Sequence[PlaneWave],
                                obs: ObservationPoint, ctx: WaveContext) -> SphericalField:
    """Superposition of the scattered fields of several incident waves."""
    return ris_scattered_field_multi(RisGeometry((patch,), ctx), waves, obs)


def patch_bistatic_rcs(patch: Patch, incident: Direction, scatter: Direction,
                       ctx: WaveContext) -> float:
    """Bistatic RCS (area units); independent of range and incident amplitude."""
    return ris_bistatic_rcs(RisGeometry((patch,), ctx), incident, scatter)


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
