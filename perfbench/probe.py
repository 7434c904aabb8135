"""Machine-speed probe used to calibrate every timed operation.

The probe is a fixed mix of a small single-precision GEMM (compute bound) and
a write-and-read sweep of a 16 MiB buffer (memory bound), 8-15 ms. It uses
numpy only, never the program under test, and allocates nothing while it is
timed: its buffers are made once, so neither the program's code nor the heap it
leaves behind can move a reading. A timing is calibrated as
``wall * REFERENCE_MS / probe_ms``: the time the work would take on a machine
whose probe runs in exactly REFERENCE_MS.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_MS = 10.0
GEMM_SIZE = 384
GEMM_REPEATS = 4
SWEEP_FLOATS = (16 << 20) // 4


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((GEMM_SIZE, GEMM_SIZE)).astype(np.float32)
        self._b = rng.standard_normal((GEMM_SIZE, GEMM_SIZE)).astype(np.float32)
        self._c = np.empty((GEMM_SIZE, GEMM_SIZE), dtype=np.float32)
        self._sweep = np.zeros(SWEEP_FLOATS, dtype=np.float32)
        self.measure()

    def measure(self) -> float:
        """Probe time in ms at this moment."""
        t0 = time.perf_counter()
        for _ in range(GEMM_REPEATS):
            np.matmul(self._a, self._b, out=self._c)
        self._sweep.fill(self._c[0, 0])
        self._sweep += 1.0
        float(self._sweep.sum())
        return (time.perf_counter() - t0) * 1e3


def calibrate(wall_s: float, probe_ms: float) -> float:
    return wall_s * REFERENCE_MS / probe_ms
