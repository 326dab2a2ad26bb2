"""Machine-speed probe: two fixed tasks timed around every set-up and pass.

On a shared host the same pass can take half as long again in one minute as
in the next, and the drift lasts longer than a run.  A neighbour may slow
memory-bound NumPy work and interpreter-bound Python work by different
amounts, so the probe times one task of each kind, and each workload names
the tasks its times follow.  Neither task touches peafowl or grows memory
while it runs, so their times follow the machine alone.  A pass time is
adjusted to a reference machine: ``wall * reference / probe``.  Here
``probe`` is the faster of the probes just before and just after the pass,
each summed over the workload's tasks, as noise only ever adds time and a
single slow probe would otherwise skew the pass.  ``reference`` is the same
sum of ``REFERENCE_S``.  Set-up and import times are adjusted the same way.
"""

from __future__ import annotations

import time

import numpy as np

# Median task times on the 2-vCPU host where the bounds were set.
REFERENCE_S = {"numpy": 0.09, "python": 0.08}


class SpeedProbe:
    def __init__(self):
        self._points = np.random.default_rng(0).random((320, 40))
        self._block = np.empty((320, 320, 40))  # 33 MB, larger than the caches
        self._sums = np.empty((320, 320))
        self._small = np.linspace(-1.0, 1.0, 30)
        self()  # the first call pays the page faults of the block
        # Resident from here to the end of the run.
        self.nbytes = self._points.nbytes + self._block.nbytes + self._sums.nbytes

    def __call__(self) -> dict:
        """Seconds for the NumPy task and for the Python task."""
        start = time.perf_counter()
        for _ in range(4):
            np.subtract(self._points[:, None, :], self._points[None, :, :], out=self._block)
            np.square(self._block, out=self._block)
            np.sum(self._block, axis=2, out=self._sums)
        middle = time.perf_counter()
        # Many small array operations driven from Python, as in an optimizer season.
        total = 0.0
        for _ in range(10_000):
            y = np.clip(self._small * 0.5 + 0.1, -0.9, 0.9)
            total += float(y @ y)
        return {"numpy": middle - start, "python": time.perf_counter() - middle}
