"""Scattering from planar or conformal arrays of rectangular patches.

Each cell contributes the single-patch far field weighted by its configured
phase shift and by the interelement path-length phase along the incident and
scatter directions. Cells lie parallel to the xy-plane; conformal support
means arbitrary positions, not rotated cell frames.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (Direction, ObservationPoint, WaveContext, direction_vector,
                   positive_finite, sinc_normalized)
from .patch import PlaneWave, SphericalField, _polarization_factors

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class UnitCell:
    """One array element: position, physical edges, collecting area, phase."""

    position: np.ndarray
    a: float
    b: float
    area: float | None = None
    phase_shift: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        if pos.shape != (3,) or not np.all(np.isfinite(pos)):
            raise ValueError("cell position must be a finite 3-vector")
        object.__setattr__(self, "position", pos)
        if not (positive_finite(self.a) and positive_finite(self.b)):
            raise ValueError("cell edges must be positive and finite")
        if self.area is None:
            object.__setattr__(self, "area", self.a * self.b)
        elif not positive_finite(self.area):
            raise ValueError("cell area must be positive and finite")
        object.__setattr__(self, "phase_shift", float(self.phase_shift) % TWO_PI)


@dataclass(frozen=True, eq=False)
class RisGeometry:
    """Ordered cell list plus wave constants; the list order is the sum index."""

    cells: tuple
    ctx: WaveContext

    def __post_init__(self):
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("geometry needs at least one cell")
        object.__setattr__(self, "cells", cells)

    @property
    def positions(self) -> np.ndarray:
        return np.stack([c.position for c in self.cells])

    @property
    def areas(self) -> np.ndarray:
        return np.array([c.area for c in self.cells])

    @property
    def phases(self) -> np.ndarray:
        return np.array([c.phase_shift for c in self.cells])


def path_length_phase(p, d: Direction, ctx: WaveContext) -> complex:
    """Unit-modulus phase factor exp(j 2 pi p.u(theta, phi) / wavelength).

    The path difference is the negative of the position projection, so the
    applied phase is positive in the exponent.
    """
    proj = float(np.dot(np.asarray(p, dtype=float), direction_vector(d)))
    return complex(np.exp(1j * TWO_PI * proj / ctx.wavelength))


def _cell_sum(ris: RisGeometry, incident: Direction, scatter: Direction) -> complex:
    """Sum over cells of (A_n/lam) e^{j Omega_n} Sa_n e^{j 2 pi p.(u_i+u_s)/lam}."""
    lam = ris.ctx.wavelength
    u = direction_vector(incident) + direction_vector(scatter)
    proj = ris.positions @ u
    a = np.array([c.a for c in ris.cells])
    b = np.array([c.b for c in ris.cells])
    sx = np.sin(scatter.theta) * np.cos(scatter.phi) + np.sin(incident.theta) * np.cos(incident.phi)
    sy = np.sin(scatter.theta) * np.sin(scatter.phi) + np.sin(incident.theta) * np.sin(incident.phi)
    sa = sinc_normalized(np.pi * a / lam * sx) * sinc_normalized(np.pi * b / lam * sy)
    terms = (ris.areas / lam) * np.exp(1j * ris.phases) * sa * np.exp(1j * TWO_PI * proj / lam)
    return complex(np.sum(terms))


def ris_scattered_field(ris: RisGeometry, wave: PlaneWave, obs: ObservationPoint) -> SphericalField:
    """Total far field of the array for one incident plane wave."""
    ctx = ris.ctx
    inc, sct = wave.direction, obs.direction
    pref = (ctx.coupling * np.exp(-2j * np.pi * obs.r / ctx.wavelength) / obs.r
            * wave.amplitude * np.cos(inc.theta))
    f_theta, f_phi = _polarization_factors(inc, sct)
    s = _cell_sum(ris, inc, sct)
    return SphericalField(0.0j, pref * f_theta * s, pref * f_phi * s)


def ris_scattered_field_multi(ris: RisGeometry, waves: Sequence[PlaneWave],
                              obs: ObservationPoint) -> SphericalField:
    """Superposition over incident waves of the per-wave array fields."""
    if not waves:
        raise ValueError("wave list must be non-empty")
    total = SphericalField(0.0j, 0.0j, 0.0j)
    for wave in waves:
        total = total + ris_scattered_field(ris, wave, obs)
    return total


def ris_field_strength(ris: RisGeometry, wave: PlaneWave, obs: ObservationPoint) -> float:
    return ris_scattered_field(ris, wave, obs).magnitude


def ris_bistatic_rcs(ris: RisGeometry, incident: Direction, scatter: Direction) -> float:
    """Bistatic RCS of the configured array (area units)."""
    ctx = ris.ctx
    f_theta, f_phi = _polarization_factors(incident, scatter)
    s = _cell_sum(ris, incident, scatter)
    return float(4.0 * np.pi * abs(ctx.coupling) ** 2 * np.cos(incident.theta) ** 2
                 * (f_theta ** 2 + f_phi ** 2) * abs(s) ** 2)
