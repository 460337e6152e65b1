"""Independent reference fields, written from the paper's closed forms.

Nothing here imports risem. Every function takes plain parameters (the ones
the benchmark wrote into the scenario files) and evaluates the model directly:

* linear array: E = e^{-j2pi r/lam}/r * sum_waves A cos(ti)
  * C sum_n (A_n/lam) e^{j W_n} Sa_n(ts, ti) e^{j2pi n d (sin ti + sin ts)/lam}
* single patch: prefactor C (area/lam) e^{-j2pi r/lam}/r A cos(ti), times the
  two-sinc directivity and the (theta, phi) polarization factors;
* planar array: the patch form with the per-cell sum over positions.

Angles come in as degrees, exactly as written in the scenario files, and are
converted with the same degree -> radian rule the CLI documents. Phases of the
linear sum are formed in the order of the paper's formula, so reference and
program only differ by the rounding of the final sum.
"""
from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * np.pi


def coupling(gamma: complex) -> complex:
    """Scattering coupling C = -j (1 - gamma) / 2."""
    return -0.5j * (1.0 - gamma)


def sinc(x):
    """sin(x)/x with the removable singularity at 0."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    nz = np.abs(x) >= 1e-6
    out[nz] = np.sin(x[nz]) / x[nz]
    small = ~nz
    out[small] = 1.0 - x[small] ** 2 / 6.0
    return out


def compensation_phases(n: int, spacing: float, theta_i_deg: float,
                        theta_s_deg: float, wavelength: float = 1.0) -> np.ndarray:
    """Phases -2 pi n d (sin ti + sin ts) / lam, reduced mod 2 pi."""
    delta = float(np.sin(math.radians(theta_i_deg)) + np.sin(math.radians(theta_s_deg)))
    return (-TWO_PI * np.arange(n) * spacing * delta / wavelength) % TWO_PI


def binary_phases(n: int, seed) -> np.ndarray:
    """The documented {0, pi} draw: numpy default_rng(seed), one bit per cell."""
    return np.random.default_rng(seed).integers(0, 2, size=n) * np.pi


def _unit_terms(widths, n, spacing, theta_i_deg, theta_s_deg, wavelength):
    """Per-cell (1/lam) Sa_n e^{j2pi n d (sin ti + sin ts)/lam}, for unit weights."""
    b = np.broadcast_to(np.asarray(widths, dtype=float), (n,))
    lam = wavelength
    s = np.sin(math.radians(theta_i_deg)) + np.sin(math.radians(float(theta_s_deg)))
    sa = sinc(np.pi * b / lam * s)
    return sa * np.exp(1j * (TWO_PI * np.arange(n) * spacing * s / lam)) / lam


def linear_steering(weights, widths, spacing, theta_i_deg, theta_s_deg,
                    wavelength=1.0, gamma=-1.0) -> complex:
    """T = C sum_n (A_n/lam) e^{j W_n} Sa_n e^{j2pi n d (sin ti + sin ts)/lam}."""
    w = np.asarray(weights, dtype=complex)
    terms = _unit_terms(widths, w.size, spacing, theta_i_deg, theta_s_deg, wavelength)
    return complex(coupling(gamma) * np.sum(w * terms))


def linear_cell_fields(n, widths, spacing, waves, thetas_s_deg, radius,
                       wavelength=1.0, gamma=-1.0) -> np.ndarray:
    """Field of each cell with unit weight: rows are scatter angles, columns cells.

    waves: (theta_deg, amplitude) pairs; the field of weights w is this @ w.
    """
    lam = wavelength
    rng_factor = np.exp(-2j * np.pi * radius / lam) / radius * coupling(gamma)
    out = np.zeros((len(thetas_s_deg), n), dtype=complex)
    for k, ts_deg in enumerate(thetas_s_deg):
        for ti_deg, amp in waves:
            out[k] += (amp * np.cos(math.radians(ti_deg))
                       * _unit_terms(widths, n, spacing, ti_deg, ts_deg, lam))
    return rng_factor * out


def linear_field(weights, widths, spacing, waves, thetas_s_deg, radius,
                 wavelength=1.0, gamma=-1.0) -> np.ndarray:
    """Complex scalar field of a linear array at each scatter angle.

    weights: complex per-cell A_n e^{j W_n}; widths: per-cell in-plane width
    (0 gives the point-source cell); waves: (theta_deg, amplitude) pairs.
    """
    w = np.asarray(weights, dtype=complex)
    return linear_cell_fields(w.size, widths, spacing, waves, thetas_s_deg, radius,
                              wavelength, gamma) @ w


def linear_expected_power(area, width, n, waves, thetas_s_deg, radius,
                          wavelength=1.0, gamma=-1.0) -> np.ndarray:
    """E|E|^2 under the zero-mean binary phase law, one incident wave.

    Independent phases make the cross terms vanish, so the power is the sum of
    the per-cell powers |C|^2/r^2 (A cos ti)^2 (A_n/lam)^2 Sa_n^2.
    """
    (ti_deg, amp), = waves
    ti = math.radians(ti_deg)
    c = coupling(gamma)
    out = np.empty(len(thetas_s_deg))
    for k, ts_deg in enumerate(thetas_s_deg):
        ts = math.radians(float(ts_deg))
        sa = float(sinc(np.pi * width / wavelength * (np.sin(ts) + np.sin(ti))))
        out[k] = (abs(c) ** 2 / radius ** 2 * (amp * np.cos(ti)) ** 2
                  * n * (area / wavelength) ** 2 * sa ** 2)
    return out


def linear_monte_carlo_power(area, width, n, spacing, waves, thetas_s_deg,
                             radius, trials, seed, wavelength=1.0,
                             gamma=-1.0) -> np.ndarray:
    """Mean |E|^2 over `trials` binary draws, trial t from default_rng((seed, t))."""
    cells = linear_cell_fields(n, width, spacing, waves, thetas_s_deg, radius,
                               wavelength, gamma)
    acc = np.zeros(len(thetas_s_deg))
    for t in range(trials):
        bits = np.random.default_rng((seed, t)).integers(0, 2, size=n)
        acc += np.abs(cells @ (area * np.exp(1j * np.pi * bits))) ** 2
    return acc / trials


def cut_direction(theta_deg: float, phi_deg: float) -> tuple[float, float]:
    """Signed principal-plane cut: negative theta means phi + 180 deg."""
    theta = math.radians(theta_deg)
    phi = math.radians(phi_deg)
    if theta < 0:
        theta = -theta
        phi = phi + math.pi if phi <= 0 else phi - math.pi
    return theta, phi


def _polarization(ti, pi_, ts, ps):
    f_theta = math.cos(ts) * (math.cos(pi_) * math.sin(ps) - math.sin(pi_) * math.cos(ps))
    f_phi = math.sin(pi_) * math.sin(ps) + math.cos(pi_) * math.cos(ps)
    return f_theta, f_phi


def patch_field(a, b, area, waves, directions, radius, wavelength=1.0,
                gamma=-1.0) -> np.ndarray:
    """|E| of one patch; waves are (theta, phi, amplitude) in radians,
    directions are (theta, phi) in radians."""
    lam = wavelength
    c = coupling(gamma)
    out = np.empty(len(directions))
    for k, (ts, ps) in enumerate(directions):
        e_t = e_p = 0.0j
        for ti, pi_, amp in waves:
            pref = (c * (area / lam) * np.exp(-2j * np.pi * radius / lam) / radius
                    * amp * math.cos(ti))
            sx = math.sin(ts) * math.cos(ps) + math.sin(ti) * math.cos(pi_)
            sy = math.sin(ts) * math.sin(ps) + math.sin(ti) * math.sin(pi_)
            sa = float(sinc(np.pi * a / lam * sx) * sinc(np.pi * b / lam * sy))
            f_t, f_p = _polarization(ti, pi_, ts, ps)
            e_t += pref * f_t * sa
            e_p += pref * f_p * sa
        out[k] = math.sqrt(abs(e_t) ** 2 + abs(e_p) ** 2)
    return out


def patch_rcs(a, b, area, ti, pi_, ts, ps, wavelength=1.0, gamma=-1.0) -> float:
    """Bistatic RCS 4 pi |C|^2 (area/lam)^2 cos^2 ti (f_t^2 + f_p^2) Sa^2."""
    lam = wavelength
    sx = math.sin(ts) * math.cos(ps) + math.sin(ti) * math.cos(pi_)
    sy = math.sin(ts) * math.sin(ps) + math.sin(ti) * math.sin(pi_)
    sa = float(sinc(np.pi * a / lam * sx) * sinc(np.pi * b / lam * sy))
    f_t, f_p = _polarization(ti, pi_, ts, ps)
    return (4.0 * np.pi * abs(coupling(gamma)) ** 2 * (area / lam) ** 2
            * math.cos(ti) ** 2 * (f_t ** 2 + f_p ** 2) * sa ** 2)


def planar_field(positions, a, b, areas, phases, waves, directions, radius,
                 wavelength=1.0, gamma=-1.0) -> np.ndarray:
    """|E| of a planar array of patches (waves/directions in radians)."""
    pos = np.asarray(positions, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    weights = np.asarray(areas, dtype=float) * np.exp(1j * np.asarray(phases, dtype=float))
    lam = wavelength
    c = coupling(gamma)

    def unit(theta, phi):
        return np.array([math.sin(theta) * math.cos(phi),
                         math.sin(theta) * math.sin(phi), math.cos(theta)])

    out = np.empty(len(directions))
    for k, (ts, ps) in enumerate(directions):
        e_t = e_p = 0.0j
        for ti, pi_, amp in waves:
            sx = math.sin(ts) * math.cos(ps) + math.sin(ti) * math.cos(pi_)
            sy = math.sin(ts) * math.sin(ps) + math.sin(ti) * math.sin(pi_)
            sa = sinc(np.pi * a / lam * sx) * sinc(np.pi * b / lam * sy)
            path = pos @ (unit(ti, pi_) + unit(ts, ps))
            s = np.sum(weights / lam * sa * np.exp(1j * TWO_PI * path / lam))
            pref = c * np.exp(-2j * np.pi * radius / lam) / radius * amp * math.cos(ti)
            f_t, f_p = _polarization(ti, pi_, ts, ps)
            e_t += pref * f_t * s
            e_p += pref * f_p * s
        out[k] = math.sqrt(abs(e_t) ** 2 + abs(e_p) ** 2)
    return out


def dft_grid(n: int) -> np.ndarray:
    """Regular scatter grid arcsin(-1 + 2k/n), k = 0..n-1, in radians."""
    return np.arcsin(-1.0 + 2.0 * np.arange(n) / n)


def point_source_field_rad(weights, spacing, waves_rad, thetas_s, radius,
                           wavelength=1.0, gamma=-1.0) -> np.ndarray:
    """Point-source linear-array field with angles already in radians.

    Used on the regular scatter grid, which the reshape scheme defines in
    radians: E_k = e^{-j2pi r/lam}/r (C/lam) sum_n w_n e_n e^{j2pi n d sin ts_k/lam},
    with the aggregated excitation e_n = sum_waves A cos ti e^{j2pi n d sin ti/lam}.
    """
    w = np.asarray(weights, dtype=complex)
    n = np.arange(w.size)
    lam = wavelength
    e_hat = np.zeros(w.size, dtype=complex)
    for ti, amp in waves_rad:
        e_hat += amp * np.cos(ti) * np.exp(1j * (TWO_PI * n * spacing * np.sin(ti) / lam))
    out = np.empty(len(thetas_s), dtype=complex)
    for k, ts in enumerate(thetas_s):
        steer = np.sum(w * e_hat * np.exp(1j * (TWO_PI * n * spacing * np.sin(ts) / lam)))
        out[k] = np.exp(-2j * np.pi * radius / lam) / radius * coupling(gamma) / lam * steer
    return out
