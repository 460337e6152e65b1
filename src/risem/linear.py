"""Uniform linear arrays in the yoz plane: scalar field, steering function,
RCS, multi-wave superposition, and the factored MIMO linear system.

Angle convention: both incident and scatter angles lie in [-pi/2, pi/2],
measured against the z-axis. Cell n sits at [0, (n-1)d, 0].
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (ObservationPoint, PlaneWave, WaveContext, _chunked_sum,
                   positive_finite, sinc_normalized)

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True, eq=False)
class LinearRis:
    """Uniform linear array: spacing plus per-cell area, width and phase.

    A cell width of 0 selects the point-source idealization (unit sinc
    factor), matching the small-cell regime of the matrix model exactly.
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
        if not all(np.all(np.isfinite(v)) for v in (areas, widths, phases)):
            raise ValueError("areas, widths and phases must be finite")
        if np.any(areas < 0) or np.any(widths < 0):
            raise ValueError("areas and widths must be non-negative")
        object.__setattr__(self, "areas", areas)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "phases", phases)

    @classmethod
    def uniform(cls, n: int, spacing: float, area: float, width: float = 0.0,
                phases=None, ctx: WaveContext | None = None) -> "LinearRis":
        if n < 1:
            raise ValueError("cell count must be at least 1")
        if phases is None:
            phases = np.zeros(n)
        return cls(spacing, np.full(n, area), np.full(n, width),
                   np.asarray(phases, dtype=float), ctx or WaveContext())

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


def _geometry_phase(ris: LinearRis, sines) -> np.ndarray:
    """exp(j 2 pi n d s / wavelength) with the cells n on a new last axis."""
    k = TWO_PI * np.arange(ris.n) * ris.spacing
    return np.exp(1j * (k * np.asarray(sines, dtype=float)[..., None] / ris.ctx.wavelength))


def _cell_terms(ris: LinearRis, sines) -> np.ndarray:
    """Terms (A_n/wavelength) e^{j Omega_n} Sa_n e^{j 2 pi n d s/wavelength}.

    s = sin(theta_i) + sin(theta_s); the cells n lie on a new last axis.
    """
    lam = ris.ctx.wavelength
    sa = sinc_normalized(np.pi * ris.widths / lam * np.asarray(sines, dtype=float)[..., None])
    return (ris.areas / lam) * np.exp(1j * ris.phases) * sa * _geometry_phase(ris, sines)


def _steering(ris: LinearRis, sines) -> np.ndarray:
    """Steering function over an array of s = sin(theta_i) + sin(theta_s).

    T depends on the two angles only through s. The sum runs over chunks of
    core.CHUNK_TERMS cell-terms, so memory stays bounded for any array of s.
    """
    s = np.asarray(sines, dtype=float)
    out = _chunked_sum(lambda chunk: _cell_terms(ris, chunk), s.ravel(), ris.n)
    return ris.ctx.coupling * out.reshape(s.shape)


def _field(ris: LinearRis, waves: Sequence[PlaneWave], r: float, theta_s) -> np.ndarray:
    """Scalar scattered field at range r summed over waves, per scatter angle."""
    lam = ris.ctx.wavelength
    sin_s = np.sin(np.asarray(theta_s, dtype=float))
    total = np.zeros(sin_s.shape, dtype=complex)
    for w in waves:
        theta_i = w.direction.theta
        total += (np.exp(-2j * np.pi * r / lam) / r * w.amplitude * np.cos(theta_i)
                  * _steering(ris, np.sin(theta_i) + sin_s))
    return total


def _rcs(ris: LinearRis, theta_i, theta_s) -> np.ndarray:
    """Bistatic RCS 4 pi cos^2(theta_i) |T|^2 over broadcast angle arrays."""
    t = _steering(ris, np.sin(theta_i) + np.sin(theta_s))
    return 4.0 * np.pi * np.cos(theta_i) ** 2 * np.abs(t) ** 2


def steering_function(ris: LinearRis, theta_i: float, theta_s: float) -> complex:
    """Distance-normalized complex transfer from theta_i to theta_s.

    Excludes the cos(theta_i) polarization factor, which belongs to the
    particular incident wave rather than to the array.
    """
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


@dataclass(frozen=True, eq=False)
class MimoSystem:
    """Factored linear input/output model of a uniform linear array.

    Stores the factors, never the dense product, so per-factor conditioning
    stays inspectable. Built with the unit-sinc (small cell) model; the
    sa_unity flag records that hard modeling switch.
    """

    wavelength: float
    spacing: float
    coupling: complex
    radii: np.ndarray
    scatter_thetas: np.ndarray
    incident_thetas: np.ndarray
    weights: np.ndarray
    sa_unity: bool = True

    def __post_init__(self):
        for name in ("radii", "scatter_thetas", "incident_thetas"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "weights", np.atleast_1d(np.asarray(self.weights, dtype=complex)))
        if self.radii.shape != self.scatter_thetas.shape:
            raise ValueError("radii and scatter angles must pair up")
        if np.any(self.radii <= 0):
            raise ValueError("observation radii must be positive")

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

    def _vander(self, thetas: np.ndarray) -> np.ndarray:
        knots = np.exp(1j * TWO_PI * self.spacing * np.sin(thetas) / self.wavelength)
        return knots[:, None] ** np.arange(self.n_cells)

    @property
    def v_scatter(self) -> np.ndarray:
        return self._vander(self.scatter_thetas)

    @property
    def v_incident(self) -> np.ndarray:
        return self._vander(self.incident_thetas)

    def incident_projection(self, amplitudes) -> np.ndarray:
        """V_i^T cos_i E^i: the per-cell aggregated incident excitation."""
        amp = np.asarray(amplitudes, dtype=complex)
        if amp.shape != (self.n_inputs,):
            raise ValueError(f"expected {self.n_inputs} input amplitudes, got {amp.shape}")
        return self.v_incident.T @ (self.cos_incident * amp)

    def condition_numbers(self) -> dict:
        """2-norm condition number of every factor."""
        return {
            "range_diag": float(np.max(np.abs(self.range_diag)) / np.min(np.abs(self.range_diag))),
            "v_scatter": float(np.linalg.cond(self.v_scatter)),
            "weights": float(np.max(np.abs(self.weights)) / np.min(np.abs(self.weights)))
            if np.all(self.weights != 0) else np.inf,
            "v_incident": float(np.linalg.cond(self.v_incident)),
            "cos_incident": float(np.max(self.cos_incident) / np.min(self.cos_incident))
            if np.all(self.cos_incident > 0) else np.inf,
        }

    def to_json_dict(self) -> dict:
        def cpairs(z):
            z = np.asarray(z, dtype=complex)
            return [[float(v.real), float(v.imag)] for v in z]
        return {
            "dimensions": {"outputs": self.n_outputs, "cells": self.n_cells,
                           "inputs": self.n_inputs},
            "wavelength": self.wavelength,
            "spacing": self.spacing,
            "prefactor": [float(self.prefactor.real), float(self.prefactor.imag)],
            "radii": [float(r) for r in self.radii],
            "scatter_theta": [float(t) for t in self.scatter_thetas],
            "incident_theta": [float(t) for t in self.incident_thetas],
            "scatter_knots": cpairs(np.exp(1j * TWO_PI * self.spacing
                                           * np.sin(self.scatter_thetas) / self.wavelength)),
            "incident_knots": cpairs(np.exp(1j * TWO_PI * self.spacing
                                            * np.sin(self.incident_thetas) / self.wavelength)),
            "range_diag": cpairs(self.range_diag),
            "cos_incident": [float(c) for c in self.cos_incident],
            "weights": cpairs(self.weights),
            "sa_unity": self.sa_unity,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "MimoSystem":
        pref = complex(doc["prefactor"][0], doc["prefactor"][1])
        wavelength = float(doc["wavelength"])
        weights = np.array([complex(re, im) for re, im in doc["weights"]])
        sys = cls(
            wavelength=wavelength,
            spacing=float(doc["spacing"]),
            coupling=pref * wavelength,
            radii=np.asarray(doc["radii"], dtype=float),
            scatter_thetas=np.asarray(doc["scatter_theta"], dtype=float),
            incident_thetas=np.asarray(doc["incident_theta"], dtype=float),
            weights=weights,
            sa_unity=bool(doc.get("sa_unity", True)),
        )
        dims = doc.get("dimensions")
        if dims is not None and (dims["outputs"] != sys.n_outputs
                                 or dims["cells"] != sys.n_cells
                                 or dims["inputs"] != sys.n_inputs):
            raise ValueError("dimension record inconsistent with factor lengths")
        return sys


def assemble_mimo(ris: LinearRis, incident_angles: Sequence[float],
                  obs_points: Sequence[ObservationPoint]) -> MimoSystem:
    """Build the factored system for given incident angles and observations.

    The small-cell regime (widths << wavelength) is the caller's
    responsibility; the model fixes the sinc factor to 1.
    """
    if len(incident_angles) == 0:
        raise ValueError("incident angle list must be non-empty")
    if len(obs_points) == 0:
        raise ValueError("observation list must be non-empty")
    return MimoSystem(
        wavelength=ris.ctx.wavelength,
        spacing=ris.spacing,
        coupling=ris.ctx.coupling,
        radii=np.array([p.r for p in obs_points]),
        scatter_thetas=np.array([p.direction.theta for p in obs_points]),
        incident_thetas=np.asarray(incident_angles, dtype=float),
        weights=ris.areas * np.exp(1j * ris.phases),
    )


def apply_mimo(sys: MimoSystem, incident_amplitudes) -> np.ndarray:
    """Evaluate the factored chain on an input vector; never densified."""
    x = sys.incident_projection(incident_amplitudes)
    x = sys.weights * x
    x = sys.v_scatter @ x
    return sys.prefactor * sys.range_diag * x
