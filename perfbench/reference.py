"""Fixed NumPy kernels that measure how fast the host runs right now.

On a shared machine the host's speed drifts by 10-40% over seconds to
minutes, which is wider than any useful bound, and compute-bound and
memory-bound code drift apart. The kernels never touch relpe, so no change to
relpe can move them. The benchmark runs the kernel that shares the
workload's bottleneck before and after every timed operation and reports each
operation's time multiplied by ``nominal time / kernel time``: the time the
operation would take on a host where the kernel takes its nominal time.

* ``dispatch``: many tiny-array ops, like the autodiff graph of a small
  model, bound by interpreter and ufunc overhead;
* ``dispatch+stream``: fewer tiny-array ops plus a reduction over a
  (128, 128, 32) float64 block, like a model whose relative-attention block
  at n=128 streams through memory between the bookkeeping.
"""

from __future__ import annotations

import time

import numpy as np

# kind: (tiny-array op rounds, block reductions, nominal seconds per pass)
KERNELS = {"dispatch": (80, 0, 0.0018), "dispatch+stream": (50, 1, 0.0025)}


class Reference:
    def __init__(self, kind: str):
        if kind not in KERNELS:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self._rounds, self._blocks, self._nominal_s = KERNELS[kind]
        rng = np.random.default_rng(0)
        self._a, self._w = rng.normal(size=(40, 32)), rng.normal(size=(32, 64))
        self._q, self._block = rng.normal(size=(128, 1, 32)), rng.normal(size=(128, 128, 32))

    def sample(self) -> float:
        """Time one kernel pass, in seconds."""
        t0 = time.perf_counter()
        for _ in range(self._rounds):
            h = self._a @ self._w
            (np.tanh(h) * 0.5 + h).sum(axis=-1)
        for _ in range(self._blocks):
            (self._q * self._block).sum(axis=2)
        return time.perf_counter() - t0

    def scale(self, passes: int = 1) -> float:
        """Factor from a time measured just now to the nominal host speed
        (median of ``passes`` kernel passes)."""
        return self._nominal_s / float(np.median([self.sample() for _ in range(passes)]))
