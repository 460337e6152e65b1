"""Scattering from planar or conformal arrays of rectangular patches.

Each cell contributes the single-patch far field weighted by its configured
phase shift and by the interelement path-length phase along the incident and
scatter directions. Cells lie parallel to the xy-plane; conformal support
means arbitrary positions, not rotated cell frames. The cell sum runs in the
factored form of the MIMO model (_factored_sums), with the per-term sum
(_sum_cells) as its fallback.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .core import (CHUNK_TERMS, TWO_PI, Direction, ObservationPoint, PlaneWave, SphericalField,
                   WaveContext, _chunked, _phasor, _polarization_factors, _sinc_pair, _sum_waves,
                   _unit_vectors, _wave_arrays, direction_vector)


# the checks of RisGeometry.from_arrays, in the order it applies them
_CELL_CHECKS = ("cell position must be a finite 3-vector", "cell edges must be positive and finite",
                "cell area must be positive and finite", "cell phase must be finite")


@dataclass(frozen=True, eq=False)
class UnitCell:
    """One array element: position, physical edges, collecting area, phase.

    Checked and reduced as one row of RisGeometry.from_arrays, and held as floats.
    """

    position: np.ndarray
    a: float
    b: float
    area: float | None = None
    phase_shift: float = 0.0

    def __post_init__(self):
        # a row of from_arrays needs no wave constants
        row = RisGeometry.from_arrays(*([getattr(self, f.name)] for f in fields(self)), None)
        _store(self, row.positions[0], row.a.item(), row.b.item(), row.areas.item(),
               row.phases.item())


def _store(obj, *values):
    """Set the fields of a frozen dataclass, in order."""
    for f, value in zip(fields(obj), values):
        object.__setattr__(obj, f.name, value)


class _RefusedRow(ValueError):
    """A refusal of a column reader: the message of the first check refused, and the first row."""

    def __init__(self, message: str, row: int):
        super().__init__(message)
        self.row = row


@dataclass(frozen=True, eq=False, init=False)
class RisGeometry:
    """Cells as arrays plus wave constants; the row order is the sum index.

    positions (N, 3), a, b, areas and phases hold one row per cell, and are
    what the field sums read. RisGeometry(cells, ctx) passes the columns of
    its UnitCells to RisGeometry.from_arrays, the one place where cell values
    are checked.
    """

    positions: np.ndarray
    a: np.ndarray
    b: np.ndarray
    areas: np.ndarray
    phases: np.ndarray
    ctx: WaveContext

    def __init__(self, cells, ctx: WaveContext):
        cells = tuple(cells)
        # an area of a*b goes as None: a product outside the float range, which a cell holds
        # unchecked, is then not refused as a given area
        geom = RisGeometry.from_arrays(
            [c.position for c in cells], [c.a for c in cells], [c.b for c in cells],
            [None if c.area == c.a * c.b else c.area for c in cells],
            [c.phase_shift for c in cells], ctx)
        _store(self, *(getattr(geom, f.name) for f in fields(geom)))

    @classmethod
    def from_arrays(cls, positions, a, b, areas, phases, ctx: WaveContext) -> RisGeometry:
        """The geometry of N cells given as columns: the one place where cell values are checked.

        positions is (N, 3); a, b, areas and phases hold N values each. An area
        of None is a*b, and each phase is reduced mod 2 pi with the bits of
        float(phase) % TWO_PI. A refusal names the first of _CELL_CHECKS that
        any row fails, and its .row the first row that any check refuses.
        """
        positions = np.array(positions, dtype=float)
        a, b, phases = (np.array(v, dtype=float) for v in (a, b, phases))
        given = np.array([area is not None for area in areas], dtype=bool)
        if positions.shape[:1] == (0,):
            raise ValueError("geometry needs at least one cell")
        if positions.ndim != 2 or positions.shape[1] != 3:
            raise _RefusedRow(_CELL_CHECKS[0], 0)
        n = len(positions)
        if not a.shape == b.shape == given.shape == phases.shape == (n,):
            raise ValueError(f"cell columns must hold {n} values each, one per position")
        with np.errstate(over="ignore", invalid="ignore"):
            # an area of None converts to NaN, and a*b takes its place; a*b may pass the
            # float range, as only a given area is checked
            areas = np.where(given, np.array(areas, dtype=float), a * b)
        refused = np.array([~np.all(np.isfinite(positions), axis=1),
                            ~(np.isfinite(a) & (a > 0) & np.isfinite(b) & (b > 0)),
                            given & ~(np.isfinite(areas) & (areas > 0)), ~np.isfinite(phases)])
        if refused.any():
            raise _RefusedRow(_CELL_CHECKS[refused.any(axis=1).argmax()],
                               int(refused.any(axis=0).argmax()))
        geom = cls.__new__(cls)
        _store(geom, positions, a, b, areas, np.remainder(phases, TWO_PI), ctx)
        return geom

    @property
    def cells(self) -> tuple:
        """The cells as UnitCells, in order, with an area of a*b as None, as RisGeometry(cells)
        passes it: a product outside the float range is then not refused as a given area."""
        with np.errstate(over="ignore"):
            products = self.areas == self.a * self.b
        areas = [None if product else area for product, area in zip(products, self.areas)]
        return tuple(map(UnitCell, self.positions, self.a, self.b, areas, self.phases))


def _path_phase(positions, u, wavelength) -> np.ndarray:
    """exp(j 2 pi p.u / wavelength): points u (..., 3) by positions p (N, 3)."""
    return _phasor(TWO_PI * (u @ positions.T) / wavelength)


def path_length_phase(p, d: Direction, ctx: WaveContext) -> complex:
    """Unit-modulus phase factor exp(j 2 pi p.u(theta, phi) / wavelength).

    The path difference is the negative of the position projection, so the
    applied phase is positive in the exponent.
    """
    return complex(_path_phase(np.asarray(p, dtype=float), direction_vector(d), ctx.wavelength))


def _cell_terms(geom: RisGeometry, u: np.ndarray, weights) -> np.ndarray:
    """Terms w_n Sa_n e^{j 2 pi p_n.u/lam} for points u (m, 3) and cell weights w_n.

    u = u_i + u_s; Sa_n depends on it through its x and y components only.
    The cells n lie on a new last axis.
    """
    lam = geom.ctx.wavelength
    terms = weights * _sinc_pair(geom.a, geom.b, u[:, :1], u[:, 1:2], lam)
    terms *= _path_phase(geom.positions, u, lam)
    return terms


def _sum_cells(geom: RisGeometry, u) -> np.ndarray:
    """Cell sum over an array of u = u_i + u_s of shape (..., 3), weights (A_n/lam) e^{j Omega_n}.

    One term per cell and u, with the path argument formed as the benchmark's
    reference forms it: the fallback of _factored_sums, and its reference in
    the tests. The sum runs over chunks of core.CHUNK_TERMS cell-terms, so
    memory stays bounded for any number of directions.
    """
    u = np.asarray(u, dtype=float)
    weights = geom.areas / geom.ctx.wavelength * np.exp(1j * geom.phases)
    out = _chunked(lambda c: np.sum(_cell_terms(geom, c, weights), axis=-1), u.reshape(-1, 3),
                   len(geom.phases))
    return out.reshape(u.shape[:-1])


# The bounds of the factored sum. Where pi a/lam, pi b/lam and A/lam lie within
# [1/_FACTORED_RANGE, _FACTORED_RANGE] for every cell and |u_x u_y| is at least
# 1/_FACTORED_RANGE, its products stay in the normal float range: c_n is at most
# 2^900, and with both sine arguments within pi/2 the sine product is at least
# (2/pi)^2 2^-900 (2^120 above the normal floor) and c_n times it at least
# (2/pi)^2 2^-600. Only near a zero of the sinc, where the term itself is near
# zero, can a product fall lower.
_FACTORED_RANGE = 2.0 ** 300


def _factored_sums(geom: RisGeometry, u_i, u_s) -> np.ndarray:
    """Cell sums at u = u_i,w + u_s for W waves u_i (W, 3) and points u_s (..., 3); shape (W, ...).

    The sum of _sum_cells, in the factored form of the MIMO model:
    sum_n (A_n/lam) e^{j Omega_n} Sa_n e^{j 2 pi p_n.u/lam} =
    sum_n P_n S_wn q_wn / (u_x u_y), with the scatter phase
    P_n = e^{j 2 pi p_n.u_s/lam}, shared by every wave, the sine product
    S_wn = sin(pi a_n u_x/lam) sin(pi b_n u_y/lam), and per wave and cell
    q_wn = c_n e^{j (2 pi p_n.u_i,w/lam + Omega_n)}, c_n = (A_n/lam) / ((pi a_n/lam)(pi b_n/lam)).
    So no term is divided, and the configured phase costs no complex multiply
    per term.

    Outside the bounds of _FACTORED_RANGE a product could leave the normal range, so
    one row rule sends a (wave, point) row to _sum_cells: every row of a geometry
    outside them, which skips the factored loop, and a row with |u_x u_y| under them,
    such as u_y = 0 exactly at normal incidence on the phi = 0 cut. Chunks hold
    max(1, CHUNK_TERMS // cells) points, and their arrays are made once per call.
    """
    lam = geom.ctx.wavelength
    u_i, u_s = np.asarray(u_i, dtype=float), np.asarray(u_s, dtype=float)
    points = u_s.reshape(-1, 3)
    shape = (len(u_i), *u_s.shape[:-1])
    alpha, beta, scale = np.pi * geom.a / lam, np.pi * geom.b / lam, geom.areas / lam
    bounds = np.concatenate([alpha, beta, scale])
    inside = bounds.min() >= 1.0 / _FACTORED_RANGE and bounds.max() <= _FACTORED_RANGE
    out = np.empty((len(u_i), len(points)), dtype=complex)
    if inside and len(u_i) and len(points):
        k = geom.positions.T * (TWO_PI / lam)
        q = scale / (alpha * beta) * _phasor(u_i @ k + geom.phases)
        n = len(alpha)
        step = max(1, CHUNK_TERMS // n)
        rows = min(step, len(points))
        phase, term = (np.empty((rows, n), dtype=complex) for _ in range(2))
        sin_x, sin_y = (np.empty((rows, n)) for _ in range(2))
        for lo in range(0, len(points), step):
            chunk = points[lo:lo + step]
            m = len(chunk)
            p, t, sx, sy = phase[:m], term[:m], sin_x[:m], sin_y[:m]
            _phasor(np.matmul(chunk, k, out=sx), out=p)
            for w, (u_x, u_y, _) in enumerate(u_i):
                ux, uy = u_x + chunk[:, 0], u_y + chunk[:, 1]
                np.sin(np.multiply(ux[:, None], alpha, out=sx), out=sx)
                np.sin(np.multiply(uy[:, None], beta, out=sy), out=sy)
                sx *= sy
                # the rows left to _sum_cells may divide by zero or overflow here
                with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                    np.divide(np.matmul(np.multiply(p, sx, out=t), q[w]), ux * uy,
                              out=out[w, lo:lo + m])
    ux, uy = u_i[:, None, 0] + points[:, 0], u_i[:, None, 1] + points[:, 1]
    rest = np.nonzero(~(inside & (np.abs(ux * uy) >= 1.0 / _FACTORED_RANGE)))
    if len(rest[0]):
        out[rest] = _sum_cells(geom, u_i[rest[0]] + points[rest[1]])
    return out.reshape(shape)


def _fields(geom: RisGeometry, waves: Sequence[PlaneWave], r: float, theta_s, phi_s):
    """(e_theta, e_phi) at range r summed over waves, per scatter direction.

    Every array quantity of the planar family and the single patch comes from
    here: the prefactor, the cell sum and the polarization factors.
    """
    lam = geom.ctx.wavelength
    u_s = _unit_vectors(theta_s, phi_s)
    theta, phi, amplitude = _wave_arrays(waves, u_s.ndim - 1)
    pref = geom.ctx.coupling * np.exp(-2j * np.pi * r / lam) / r * amplitude * np.cos(theta)
    f_theta, f_phi = _polarization_factors(phi, theta_s, phi_s)
    # one factored call sums the cells for every wave
    s = _factored_sums(geom, _unit_vectors(theta, phi).reshape(-1, 3), u_s)
    return _sum_waves(pref * f_theta * s), _sum_waves(pref * f_phi * s)


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
