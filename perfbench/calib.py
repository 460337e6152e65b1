"""Machine-speed probe, so that times taken at different moments compare.

The benchmark runs on a shared machine whose speed drifts: over a few
minutes every job gets up to 1.6x slower and then fast again, CPU time as
much as wall time. A probe is a fixed piece of work that never touches the
program, made of the kinds of work the jobs are made of:

* a YAML parse of a fixed scenario-like text (PyYAML's pure-Python loader,
  which is what the program parses scenarios with);
* a NumPy complex-exponential sum over a fixed array;
* a plain Python loop;
* a small dense complex SVD (LAPACK, on the capped BLAS threads).

Its speed factor is the geometric mean of the parts' times, each over its
reference time. The reference times are the parts' median times between the
jobs of benchmark runs on the reference machine (2 cores of a shared x86-64
host, Python 3.11, NumPy 2 with OpenBLAS, 2 BLAS threads), so a factor of
1.0 means the machine runs at that median speed and 1.3 that it is 30%
slower. run.py divides job times by the factor measured around them, which
reports them in seconds at reference speed.
"""
from __future__ import annotations

import math
import time

import numpy as np
import yaml

# median part times (s) on the reference machine: yaml, numpy, loop, svd
REFERENCE_S = (0.0062, 0.0039, 0.0043, 0.0049)

_CELLS = 8
_ARRAY = 49152
_LOOP = 45000
_MATRIX = 128


def _text() -> str:
    rows = "".join(
        f"    - {{position: [{0.5 * (i % 4) + 0.013 * i!r}, {0.5 * (i // 4)!r}, 0.0], "
        f"a: 0.4, b: {0.3 + 0.01 * i!r}, phase: {0.1 * i + 0.05!r}}}\n"
        for i in range(_CELLS))
    return ("wave: {wavelength: 1.0, gamma: [-0.8, 0.1]}\n"
            "geometry:\n  kind: planar\n  cells:\n" + rows
            + "incident:\n  - {theta_deg: 20.0, phi_deg: 30.0, amplitude: 1.0}\n"
            "observation:\n  radius: 100.0\n"
            "  grid: {start_deg: -90.0, stop_deg: 90.0, count: 361, phi_deg: 10.0}\n")


class Probe:
    """Times the four parts; sample() returns one speed factor."""

    def __init__(self):
        self._text = _text()
        self._x = np.linspace(0.0, 40.0, _ARRAY)
        rng = np.random.default_rng(0)
        self._m = (rng.standard_normal((_MATRIX, _MATRIX))
                   + 1j * rng.standard_normal((_MATRIX, _MATRIX)))
        self.last = ()

    def _yaml(self):
        return yaml.safe_load(self._text)

    def _numpy(self):
        x = self._x
        return complex(np.exp(1j * x).sum() + np.exp(2j * x).sum())

    def _svd(self):
        return np.linalg.svd(self._m, compute_uv=False)

    @staticmethod
    def _loop():
        s = 0
        for i in range(_LOOP):
            s += i * i % 7
        return s

    def parts(self) -> tuple[float, ...]:
        """Wall time of each part, in seconds."""
        times = []
        for part in (self._yaml, self._numpy, self._loop, self._svd):
            start = time.perf_counter()
            part()
            times.append(time.perf_counter() - start)
        self.last = tuple(times)
        return self.last

    def sample(self) -> float:
        """Speed factor: geometric mean of part time over reference time."""
        return math.exp(sum(math.log(t / ref) for t, ref in zip(self.parts(), REFERENCE_S))
                        / len(REFERENCE_S))
