"""Uniform linear arrays in the yoz plane: scalar field, steering function,
RCS, multi-wave superposition, and the factored MIMO linear system.

Angle convention: both incident and scatter angles lie in [-pi/2, pi/2],
measured against the z-axis. Cell n sits at [0, (n-1)d, 0].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (TWO_PI, ObservationPoint, PlaneWave, WaveContext, _check_finite, _chunk_array,
                   _chunked, _edge_sinc, _phasor, _sum_waves, _wave_arrays, positive_finite)


@dataclass(frozen=True, eq=False)
class LinearRis:
    """Uniform linear array: spacing, one cell width, and per-cell area and phase.

    widths holds the one width once per cell; unequal widths raise ValueError.
    A width of 0 selects the point-source idealization (unit sinc factor),
    matching the small-cell regime of the matrix model exactly.
    """

    spacing: float
    areas: np.ndarray
    widths: np.ndarray
    phases: np.ndarray
    ctx: WaveContext = field(default_factory=WaveContext)

    def __post_init__(self):
        if not positive_finite(self.spacing):
            raise ValueError("spacing must be positive and finite")
        areas = np.atleast_1d(np.asarray(self.areas, dtype=float))
        widths = np.broadcast_to(np.asarray(self.widths, dtype=float), areas.shape).copy()
        phases = np.broadcast_to(np.asarray(self.phases, dtype=float), areas.shape).copy()
        if areas.size < 1:
            raise ValueError("array needs at least one cell")
        _check_finite("areas, widths and phases", areas, widths, phases)
        if np.any(areas < 0) or np.any(widths < 0):
            raise ValueError("areas and widths must be non-negative")
        if np.any(widths != widths[0]):
            raise ValueError("the cells of a linear array share one width")
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def uniform(cls, n: int, spacing: float, area: float, width: float = 0.0,
                phases=None, ctx: WaveContext | None = None) -> "LinearRis":
        return cls(spacing, np.full(n, area), width, 0.0 if phases is None else phases,
                   ctx or WaveContext())

    @property
    def n(self) -> int:
        return self.areas.size

    def with_phases(self, phases) -> "LinearRis":
        return LinearRis(self.spacing, self.areas, self.widths,
                         np.asarray(phases, dtype=float), self.ctx)

    def with_weights(self, weights) -> "LinearRis":
        """Replace per-cell area and phase by |w_n| and arg(w_n)."""
        w = np.asarray(weights, dtype=complex)
        if w.shape != self.areas.shape:
            raise ValueError("weight vector length mismatch")
        return LinearRis(self.spacing, np.abs(w), self.widths, np.angle(w), self.ctx)


# The largest cell angle 2 pi (n - 1) d max|s| / wavelength, in rad, up to which
# _steering sums in blocks with exactly reduced phases. Past it each s
# takes the unreduced float64 cell angle that perfbench/oracle.py forms.
# Against that oracle an exact sum reads up to 1.35e-11 on the benchmark's 8192-cell
# slot, normalised by a sidelobe (3 of 30 jobs past the check's 6e-12), and at most
# 3.4e-13 on its 1000-cell slots (linear-sweep seeds 1-10, unprinted values). Delete
# the bound once the oracle's phases are exact (ROADMAP item 11).
_BLOCKED_MAX_ANGLE = 2.0 ** 14
# Veltkamp's factor 2^27 + 1: it splits a float64 into two halves of 26 bits
_SPLITTER = 2.0 ** 27 + 1.0
# _turns is exact for cell counts under 2^27, whose product with a 26-bit half fits float64
_BLOCKED_MAX_CELLS = 2 ** 27


def _cell_angle(n: int, spacing: float, wavelength: float, sines) -> np.ndarray:
    """((2 pi m) d) s / wavelength, unreduced, for cells m = 0..n-1 on a new last axis."""
    arg = TWO_PI * np.arange(n) * spacing * np.asarray(sines, dtype=float)[..., None]
    arg /= wavelength
    return arg


def _geometry_phase(n: int, spacing: float, wavelength: float, sines) -> np.ndarray:
    """exp(j 2 pi m d s / wavelength) for cells m = 0..n-1 on a new last axis."""
    return _phasor(_cell_angle(n, spacing, wavelength, sines))


def _split(x):
    """x = hi + lo, hi with the 26 leading bits of x (Veltkamp's split), broadcast."""
    hi = x * _SPLITTER
    hi -= hi - x
    return hi, x - hi


def _two_product(a, b, b_split=None):
    """(p, e) with p the float64 product a b and p + e = a b exactly (Dekker), broadcast.

    b_split is b's (hi, lo) split made in advance, for a b whose own split overflows.
    """
    (a_hi, a_lo), (b_hi, b_lo) = _split(a), b_split or _split(b)
    p = a * b
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _turns(counts, spacing: float, wavelength: float, sines) -> np.ndarray:
    """m d s / wavelength mod 1, in [-1/2, 1/2], for the integers 0 <= m < 2^27 of
    counts on a new last axis.

    x = d s / wavelength is formed as a double-double to about 2^-104 of itself,
    from Dekker's product and d / wavelength = r 2^e with r in (1/2, 2), so that
    no step leaves the float range unless x nears it. Then x = x_1 + x_2 with x_1
    of 26 bits: p = m x_1 is exact and so is p - rint(p), and m x_2 is under
    2^-26 of m x. So the turns are within about 2^-53 + 2^-78 |m x| of
    m x mod 1.
    """
    (md, ed), (ml, el) = math.frexp(spacing), math.frexp(wavelength)
    r_hi = md / ml
    p, e = _two_product(r_hi, ml)
    r_lo = ((md - p) - e) / ml
    s = np.ldexp(np.asarray(sines, dtype=float), ed - el)
    x_hi, x_lo = _two_product(s, r_hi)
    x_lo += s * r_lo
    x_1, x_2 = _split(x_hi)
    x_2 += x_lo
    counts = np.asarray(counts, dtype=float)
    turns = x_1[..., None] * counts
    # one work array, for the nearest integers and then for m x_2
    work = np.rint(turns)
    turns -= work
    turns += np.multiply(x_2[..., None], counts, out=work)
    turns -= np.rint(turns, out=work)
    return turns


def _blocks(ris: LinearRis, s_max: float) -> tuple[int, int] | None:
    """(B, K) = (ceil(sqrt(n)), ceil(n / B)) where _steering sums ris in blocks at a
    largest |sin_i + sine| of s_max, else None.

    Blocks need at most _BLOCKED_MAX_CELLS cells, a largest cell angle
    2 pi (n - 1) d s_max / wavelength of at most _BLOCKED_MAX_ANGLE, and at most half
    as many phases as cells, 2 (B + K) <= n: 16 cells and 18 on. An exactly reduced
    phase costs about two per-cell ones; on 3601 sines (2-core machine) blocks took
    1.2-1.4 times as long as the per-cell product at 6 and 9 cells, as long at 12
    and 13, and 0.8-0.9 times at 15 to 18. One cell has the angle 0 for any
    x = d s / wavelength, even an x past the float range, which _turns could not
    form; it takes the per-cell product.
    """
    n = ris.n
    b = math.isqrt(n - 1) + 1
    k = -(-n // b)
    if (2 * (b + k) <= n <= _BLOCKED_MAX_CELLS
            and TWO_PI * (n - 1) * ris.spacing * s_max / ris.ctx.wavelength
            <= _BLOCKED_MAX_ANGLE):
        return b, k
    return None


def _blocked_sum(ris: LinearRis, sines: np.ndarray, sin_i: np.ndarray, weights: np.ndarray,
                 b: int, k: int, reduce=None) -> np.ndarray:
    """sum_m w_m e^{j 2 pi m d (sin_i[i] + sines[k]) / wavelength}, shape
    (len(sines), len(sin_i)) + weights.shape[1:]: weights is one weight per cell,
    or n x c columns of them; reduce as in _weighted_sum.

    Cell m = kB + j, with B = b and K = k from _blocks, so each cell phase is a
    giant phase e^{j 2 pi kB x} times a baby phase e^{j 2 pi j x},
    x = d s / wavelength (Paterson and Stockmeyer's split): B + K phases per sine
    instead of n, each _phasor of 2 pi times its exact turns. With one sin_i and
    at most B columns the sum is giant . (baby @ W), W the B x K block matrix of
    V(sin_i) o w, per column: one product per chunk and one per sine. Otherwise V
    is the giant (x) baby outer product, times the n x len(sin_i) c matrix
    V(sin_i)^T o w in one product per chunk. The outer product would serve one
    column too, but forms every cell: against it the blocks gave linear-sweep 1.41
    and reshape 1.19 times the points/s (medians of 10 alternating pairs each,
    2-core machine). Past B columns the cells are a small share of the product,
    and the blocks' rows of K c entries would cut the chunks to a few sines each:
    100 cells, 3601 sines and 163 columns took 90 ms blocked, 25-33 ms as one
    product per chunk (same machine).
    """
    n, d, lam = ris.n, ris.spacing, ris.ctx.wavelength
    counts = np.concatenate([np.arange(b), b * np.arange(k)])
    columns = weights.reshape(n, weights.size // n)
    width = sin_i.size * columns.shape[1]

    def phases(s):
        """The baby phases (len(s), B) and the giant phases (len(s), K) of each sine."""
        turns = _turns(counts, d, lam, s)
        turns *= TWO_PI
        ph = _phasor(turns)
        return ph[:, :b], ph[:, b:]

    def cells(baby, giant, out=None):
        """The K B cell phases giant (x) baby of each sine, past the last cell too."""
        return np.multiply(giant[:, :, None], baby[:, None, :], out=out).reshape(len(baby), k * b)

    # the weight block and each chunk's cell phases are this thread's work arrays; row
    # kB + j holds cell kB + j, and zeros past the last cell; column i c + l holds
    # weight column l at sin_i[i]
    left = _chunk_array("blocked.left", (k * b, width))
    left[n:] = 0.0
    left[:n] = (cells(*phases(sin_i))[:, :n].T[:, :, None] * columns[:, None, :]).reshape(n, width)
    blocks = (left.reshape(k, b, width).transpose(1, 0, 2).reshape(b, k * width)
              if sin_i.size == 1 and width <= b else None)

    shape = (sin_i.size,) + weights.shape[1:]

    def chunk(c):
        baby, giant = phases(c)
        if blocks is None:
            # reduce spends the sums before the next chunk; without it _chunked keeps them
            out = _chunk_array("blocked.sums", (len(c), width)) if reduce else None
            sums = np.matmul(cells(baby, giant, _chunk_array("blocked.cells", (len(c), k, b))),
                             left, out=out)
        else:
            sums = (giant[:, None] @ (baby @ blocks).reshape(len(c), k, width))[:, 0]
        sums = sums.reshape((len(c),) + shape)
        return sums if reduce is None else reduce(c, sums)

    return _chunked(chunk, sines, max(k * b, width) if blocks is None else b + k * width)


def _weighted_sum(ris: LinearRis, sines: np.ndarray, sin_i: np.ndarray,
                  weights: np.ndarray, reduce=None) -> np.ndarray:
    """sum_m w_m e^{j 2 pi m d (sin_i[i] + sines[k]) / wavelength} over the cells of ris,
    shape (len(sines), len(sin_i)) + weights.shape[1:]: weights is one weight per
    cell, or n x c columns of them, and sines and sin_i are flat. Every linear
    sum over angles and cells is one: the steering function, the random-phase
    expectation's Gram matrix, the Monte Carlo lag sums and each trial's field.

    Where _blocks allows it the sum is _blocked_sum's, with exactly reduced phases;
    elsewhere each s = sin_i + sines takes the float64 cell angles, the bits of the
    benchmark's oracle. So any split of the same sums takes the same path, and past
    the bound the same bits. Both paths run over chunks of sines of about
    core.CHUNK_TERMS entries, so memory stays bounded for any array of s. With
    reduce, each chunk c of sines and its sums go to reduce(c, sums), and its
    results are stacked instead of the sums: a caller that needs only statistics
    of the sums holds one chunk of them at a time, and the weights' phases at
    sin_i are formed once.
    """
    points = (sines[:, None] + sin_i).ravel()
    blocks = _blocks(ris, np.abs(points).max(initial=0.0))
    if blocks:
        return _blocked_sum(ris, sines, sin_i, weights, *blocks, reduce)
    shape = (sin_i.size,) + weights.shape[1:]

    def chunk(c):
        phases = _geometry_phase(ris.n, ris.spacing, ris.ctx.wavelength, (c[:, None] + sin_i).ravel())
        sums = (phases @ weights).reshape((len(c),) + shape)
        return sums if reduce is None else reduce(c, sums)

    # the chunk's phases hold n and its sums c entries per s
    return _chunked(chunk, sines, max(1, sin_i.size) * max(ris.n, weights.size // ris.n))


def _steering(ris: LinearRis, sines, sin_i=0.0) -> np.ndarray:
    """Steering function at s = sin_i + sines for every pair: shape(sin_i) + shape(sines).

    T depends on the two angles only through s = sin(theta_i) + sin(theta_s), so
    each pair's s is formed once, as a one-argument call forms it, and the sums
    alone choose the path. The cells share one width, so the sinc depends on s
    alone and leaves the sum, which is _weighted_sum's of the cell weights
    (A_n/wavelength) e^{j Omega_n}, formed once: where the phases are exact the
    paper's factorisation V(sines) diag(w) V(sin_i)^T applies
    (e^{jk(a+b)} = e^{jka} e^{jkb}).
    """
    s, inc = np.asarray(sines, dtype=float), np.asarray(sin_i, dtype=float)
    flat, flat_i, lam = s.ravel(), inc.ravel(), ris.ctx.wavelength
    sums = flat[:, None] + flat_i
    weights = ris.areas / lam * np.exp(1j * ris.phases)
    out = _weighted_sum(ris, flat, flat_i, weights).ravel()
    out *= _edge_sinc(ris.widths[0], lam, sums.ravel())
    return ris.ctx.coupling * out.reshape(sums.shape).T.reshape(inc.shape + s.shape)


def _field(ris: LinearRis, waves: Sequence[PlaneWave], r: float, theta_s) -> np.ndarray:
    """Scalar scattered field at range r summed over waves, per scatter angle."""
    sin_s = np.sin(np.asarray(theta_s, dtype=float))
    theta, _, amplitude = _wave_arrays(waves, sin_s.ndim)
    drive = np.exp(-2j * np.pi * r / ris.ctx.wavelength) / r * amplitude * np.cos(theta)
    return _sum_waves(drive * _steering(ris, np.sin(theta) + sin_s))


def _rcs(ris: LinearRis, theta_i, theta_s) -> np.ndarray:
    """Bistatic RCS 4 pi cos^2(theta_i) |T|^2 over broadcast arrays of finite angles."""
    _check_finite("incident and scatter angles", theta_i, theta_s)
    t = _steering(ris, np.sin(theta_i) + np.sin(theta_s))
    return 4.0 * np.pi * np.cos(theta_i) ** 2 * np.abs(t) ** 2


def steering_function(ris: LinearRis, theta_i: float, theta_s: float) -> complex:
    """Distance-normalized complex transfer from theta_i to theta_s.

    Excludes the cos(theta_i) polarization factor, which belongs to the
    particular incident wave rather than to the array.
    """
    _check_finite("incident and scatter angles", theta_i, theta_s)
    return complex(_steering(ris, np.sin(theta_i) + np.sin(theta_s)))


def linear_field(ris: LinearRis, wave: PlaneWave, obs: ObservationPoint) -> complex:
    """Scalar scattered field at (r, theta_s) for one in-plane incident wave."""
    return complex(_field(ris, [wave], obs.r, obs.direction.theta))


def linear_field_multi(ris: LinearRis, waves: Sequence[PlaneWave],
                       obs: ObservationPoint) -> complex:
    """Superposition of per-wave scalar fields."""
    if not waves:
        raise ValueError("wave list must be non-empty")
    return complex(_field(ris, waves, obs.r, obs.direction.theta))


def linear_rcs(ris: LinearRis, theta_i: float, theta_s: float) -> float:
    """Bistatic RCS 4 pi cos^2(theta_i) |T|^2."""
    return float(_rcs(ris, theta_i, theta_s))


def dft_scatter_grid(n: int) -> np.ndarray:
    """Regular scatter grid theta_k = arcsin(-1 + 2(k-1)/n), k = 1..n.

    With spacing = wavelength/2 this makes the scatter steering matrix a
    scaled DFT matrix (unitary up to sqrt(n))."""
    return np.arcsin(-1.0 + 2.0 * np.arange(n) / n)


def _complex_pairs(z) -> list:
    """[re, im] float pairs of the complex values in z, the JSON form of a complex array."""
    z = np.asarray(z, dtype=complex)
    return np.column_stack([z.real, z.imag]).tolist()


def _alternating_signs(n: int) -> np.ndarray:
    """(-1)^m for m = 0..n-1: the cell factor of the half-wavelength DFT grid."""
    return 1.0 - 2.0 * (np.arange(n) % 2)


@dataclass(frozen=True, eq=False)
class MimoSystem:
    """Factored linear input/output model of a uniform linear array.

    Stores the factors, never the dense product. Built with the unit-sinc
    (small cell) model: the directivity factor Sa is fixed to 1. Both angle
    lists must be non-empty, and the angles, weights, coupling and input
    amplitudes finite.
    """

    wavelength: float
    spacing: float
    coupling: complex
    radii: np.ndarray
    scatter_thetas: np.ndarray
    incident_thetas: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("radii", "scatter_thetas", "incident_thetas"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=complex)))
        if self.incident_thetas.size == 0:
            raise ValueError("incident angle list must be non-empty")
        if self.scatter_thetas.size == 0:
            raise ValueError("observation list must be non-empty")
        if self.radii.shape != self.scatter_thetas.shape:
            raise ValueError("radii and scatter angles must pair up")
        if not all(map(positive_finite, (self.radii, self.wavelength, self.spacing))):
            raise ValueError("observation radii, wavelength and spacing must be positive and finite")
        _check_finite("angles, weights and coupling", self.incident_thetas, self.scatter_thetas,
                      self.weights, self.coupling)

    @property
    def n_cells(self) -> int:
        return self.weights.size

    @property
    def n_outputs(self) -> int:
        return self.radii.size

    @property
    def n_inputs(self) -> int:
        return self.incident_thetas.size

    @property
    def prefactor(self) -> complex:
        return self.coupling / self.wavelength

    @property
    def range_diag(self) -> np.ndarray:
        """Diagonal of the distance attenuation/delay factor."""
        return np.exp(-2j * np.pi * self.radii / self.wavelength) / self.radii

    @property
    def cos_incident(self) -> np.ndarray:
        return np.cos(self.incident_thetas)

    def _phases(self, thetas: np.ndarray, n: int) -> np.ndarray:
        return _geometry_phase(n, self.spacing, self.wavelength, np.sin(thetas))

    @property
    def on_dft_grid(self) -> bool:
        """True when V_s is exactly the scaled DFT (-1)^m e^{j 2 pi m k / n}.

        That needs spacing = wavelength/2, scatter angles equal to
        dft_scatter_grid(n_cells) and one shared radius; all singular values
        of V_s are then sqrt(n).
        """
        return (self.spacing / self.wavelength == 0.5
                and np.array_equal(self.scatter_thetas, dft_scatter_grid(self.n_cells))
                and bool(np.all(self.radii == self.radii[0])))

    @property
    def v_scatter(self) -> np.ndarray:
        return self._phases(self.scatter_thetas, self.n_cells)

    def scatter(self, x) -> np.ndarray:
        """V_s @ x; on the DFT grid n ifft((-1)^m x), without forming V_s."""
        x = np.asarray(x, dtype=complex)
        if self.on_dft_grid:
            return x.size * np.fft.ifft(_alternating_signs(x.size) * x)
        return self.v_scatter @ x

    def incident_projection(self, amplitudes) -> np.ndarray:
        """V_i^T cos_i E^i: the per-cell aggregated incident excitation."""
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != (self.n_inputs,):
            raise ValueError(f"expected {self.n_inputs} input amplitudes, got {amp.shape}")
        _check_finite("input amplitudes", amp)
        return (self.cos_incident * amp) @ self._phases(self.incident_thetas, self.n_cells)

    def to_json_dict(self) -> dict:
        return {
            "dimensions": {"outputs": self.n_outputs, "cells": self.n_cells,
                           "inputs": self.n_inputs},
            "wavelength": self.wavelength,
            "spacing": self.spacing,
            "prefactor": [float(self.prefactor.real), float(self.prefactor.imag)],
            "radii": [float(r) for r in self.radii],
            "scatter_theta": [float(t) for t in self.scatter_thetas],
            "incident_theta": [float(t) for t in self.incident_thetas],
            # the knots are the phases of cell 1
            "scatter_knots": _complex_pairs(self._phases(self.scatter_thetas, 2)[:, 1]),
            "incident_knots": _complex_pairs(self._phases(self.incident_thetas, 2)[:, 1]),
            "range_diag": _complex_pairs(self.range_diag),
            "cos_incident": [float(c) for c in self.cos_incident],
            "weights": _complex_pairs(self.weights),
            # the model fixes the directivity factor Sa to 1
            "sa_unity": True,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MimoSystem":
        """The system of a to_json_dict document; a malformed one raises ValueError."""
        try:
            pref = complex(doc["prefactor"][0], doc["prefactor"][1])
            wavelength = float(doc["wavelength"])
            sys = cls(
                wavelength=wavelength,
                spacing=float(doc["spacing"]),
                coupling=pref * wavelength,
                radii=np.asarray(doc["radii"], dtype=float),
                scatter_thetas=np.asarray(doc["scatter_theta"], dtype=float),
                incident_thetas=np.asarray(doc["incident_theta"], dtype=float),
                weights=np.array([complex(re, im) for re, im in doc["weights"]]),
            )
            dims = doc.get("dimensions")
            if dims is not None and (dims["outputs"], dims["cells"], dims["inputs"]) != (
                    sys.n_outputs, sys.n_cells, sys.n_inputs):
                raise ValueError("dimension record inconsistent with factor lengths")
        except (KeyError, TypeError, IndexError) as err:
            raise ValueError(f"malformed MIMO system document: {err!r}") from err
        return sys


def mimo_on_angles(ris: LinearRis, incident_angles: Sequence[float], radii,
                   scatter_thetas) -> MimoSystem:
    """Build the factored system for incident angles and (radius, scatter angle) pairs.

    radii and scatter_thetas are copied, one entry per output. The small-cell
    regime (widths << wavelength) is the caller's responsibility; the model
    fixes the sinc factor to 1.
    """
    return MimoSystem(
        wavelength=ris.ctx.wavelength,
        spacing=ris.spacing,
        coupling=ris.ctx.coupling,
        radii=np.array(radii, dtype=float),
        scatter_thetas=np.array(scatter_thetas, dtype=float),
        incident_thetas=np.asarray(incident_angles, dtype=float),
        weights=ris.areas * np.exp(1j * ris.phases),
    )


def assemble_mimo(ris: LinearRis, incident_angles: Sequence[float],
                  obs_points: Sequence[ObservationPoint]) -> MimoSystem:
    """mimo_on_angles for observation points: their radii and scatter angles."""
    return mimo_on_angles(ris, incident_angles, [p.r for p in obs_points],
                          [p.direction.theta for p in obs_points])


def apply_mimo(sys: MimoSystem, incident_amplitudes) -> np.ndarray:
    """Evaluate the factored chain on an input vector; never densified."""
    x = sys.incident_projection(incident_amplitudes)
    x = sys.weights * x
    x = sys.scatter(x)
    return sys.prefactor * sys.range_diag * x
