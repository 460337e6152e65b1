"""Scattering from planar or conformal arrays of rectangular patches.

Each cell contributes the single-patch far field weighted by its configured
phase shift and by the interelement path-length phase along the incident and
scatter directions. Cells lie parallel to the xy-plane; conformal support
means arbitrary positions, not rotated cell frames.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (Direction, ObservationPoint, PlaneWave, SphericalField,
                   WaveContext, _chunked_sum, _polarization_factors, _sinc_pair,
                   _unit_vectors, direction_vector, positive_finite)

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
    """Ordered cell list plus wave constants; the list order is the sum index.

    The cells are also held as arrays (positions (N, 3), a, b, areas,
    phases) in the same order, which is what the field sums read.
    """

    cells: tuple
    ctx: WaveContext
    positions: np.ndarray = field(init=False, repr=False)
    a: np.ndarray = field(init=False, repr=False)
    b: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    phases: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        cells = tuple(self.cells)
        if not cells:
            raise ValueError("geometry needs at least one cell")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "positions", np.stack([c.position for c in cells]))
        for name, attr in (("a", "a"), ("b", "b"), ("areas", "area"), ("phases", "phase_shift")):
            object.__setattr__(self, name, np.array([getattr(c, attr) for c in cells]))


def _path_phase(positions, u, wavelength) -> np.ndarray:
    """exp(j 2 pi p.u / wavelength): points u (..., 3) by positions p (N, 3)."""
    return np.exp(1j * TWO_PI * (u @ positions.T) / wavelength)


def path_length_phase(p, d: Direction, ctx: WaveContext) -> complex:
    """Unit-modulus phase factor exp(j 2 pi p.u(theta, phi) / wavelength).

    The path difference is the negative of the position projection, so the
    applied phase is positive in the exponent.
    """
    return complex(_path_phase(np.asarray(p, dtype=float), direction_vector(d), ctx.wavelength))


def _cell_terms(geom: RisGeometry, u: np.ndarray) -> np.ndarray:
    """Terms (A_n/lam) e^{j Omega_n} Sa_n e^{j 2 pi p_n.u/lam} for points u (m, 3).

    u = u_i + u_s; Sa_n depends on it through its x and y components only.
    The cells n lie on a new last axis.
    """
    lam = geom.ctx.wavelength
    sa = _sinc_pair(geom.a, geom.b, u[:, :1], u[:, 1:2], lam)
    return (geom.areas / lam) * np.exp(1j * geom.phases) * sa * _path_phase(geom.positions, u, lam)


def _sum_cells(geom: RisGeometry, u) -> np.ndarray:
    """Cell sum over an array of u = u_i + u_s of shape (..., 3).

    The sum runs over chunks of core.CHUNK_TERMS cell-terms, so memory stays
    bounded for any number of directions.
    """
    u = np.asarray(u, dtype=float)
    out = _chunked_sum(lambda chunk: _cell_terms(geom, chunk), u.reshape(-1, 3), len(geom.cells))
    return out.reshape(u.shape[:-1])


def _fields(geom: RisGeometry, waves: Sequence[PlaneWave], r: float, theta_s, phi_s):
    """(e_theta, e_phi) at range r summed over waves, per scatter direction.

    Every array quantity of the planar family and the single patch comes from
    here: the prefactor, the cell sum and the polarization factors.
    """
    lam = geom.ctx.wavelength
    u_s = _unit_vectors(theta_s, phi_s)
    e_theta = np.zeros(u_s.shape[:-1], dtype=complex)
    e_phi = np.zeros(u_s.shape[:-1], dtype=complex)
    for w in waves:
        inc = w.direction
        pref = (geom.ctx.coupling * np.exp(-2j * np.pi * r / lam) / r
                * w.amplitude * np.cos(inc.theta))
        f_theta, f_phi = _polarization_factors(inc.phi, theta_s, phi_s)
        s = _sum_cells(geom, direction_vector(inc) + u_s)
        e_theta += pref * f_theta * s
        e_phi += pref * f_phi * s
    return e_theta, e_phi


def _field_magnitude(geom: RisGeometry, waves: Sequence[PlaneWave], r: float,
                     theta_s, phi_s) -> np.ndarray:
    """|E| of the wave-summed field per scatter direction; 0 without waves."""
    e_theta, e_phi = _fields(geom, waves, r, theta_s, phi_s)
    return np.sqrt(np.abs(e_theta) ** 2 + np.abs(e_phi) ** 2)


def _rcs(geom: RisGeometry, incident: Direction, theta_s, phi_s) -> np.ndarray:
    """Bistatic RCS (area units) over broadcast scatter angles.

    4 pi |E|^2 of a unit-amplitude wave observed at unit range.
    """
    return 4.0 * np.pi * _field_magnitude(geom, [PlaneWave(incident)], 1.0, theta_s, phi_s) ** 2


def ris_scattered_field(ris: RisGeometry, wave: PlaneWave, obs: ObservationPoint) -> SphericalField:
    """Total far field of the array for one incident plane wave."""
    return ris_scattered_field_multi(ris, [wave], obs)


def ris_scattered_field_multi(ris: RisGeometry, waves: Sequence[PlaneWave],
                              obs: ObservationPoint) -> SphericalField:
    """Superposition over incident waves of the per-wave array fields."""
    if not waves:
        raise ValueError("wave list must be non-empty")
    e_theta, e_phi = _fields(ris, waves, obs.r, obs.direction.theta, obs.direction.phi)
    return SphericalField(0.0j, complex(e_theta), complex(e_phi))


def ris_bistatic_rcs(ris: RisGeometry, incident: Direction, scatter: Direction) -> float:
    """Bistatic RCS of the configured array (area units)."""
    return float(_rcs(ris, incident, scatter.theta, scatter.phi))
