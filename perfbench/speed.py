"""Host speed measured alongside the decoder, to pair every timing with it.

On a shared host the same decode loop runs up to twice as slow for seconds
or minutes at a time, while other tenants load the machine.  The benchmark
therefore times a fixed reference workload between frames and divides each
frame's time by the host's slowdown at that moment.  The reference mixes the
two kinds of work the decoders do: a Python-loop GF(2) elimination on a
small uint8 matrix, and vectorised tanh/cumprod on a 64x64 float array.  Its
slowdown is the geometric mean of theirs.  (Against 2 s windows of all four
workloads, this pair left 3-4% of the variation of raw decode times that
ranged 7-10%; adding a pure-Python loop made the match worse.)

The reference never calls ddcodes, so a change to the program cannot move
it.  NOMINAL_S is its cost on a quiet 2-CPU x86 host (Python 3.11, numpy
2.4), so normalised times read as milliseconds on that host.
"""
from __future__ import annotations

from time import process_time

import numpy as np

NOMINAL_S = 6.1e-5
REPEATS = 5


class Speedometer:
    def __init__(self):
        rng = np.random.default_rng(20260822)
        self._bits = rng.integers(0, 2, (10, 24)).astype(np.uint8)
        self._floats = rng.standard_normal((64, 64))

    def _eliminate(self):
        A = self._bits.copy()
        r = 0
        for c in range(A.shape[1]):
            if r == A.shape[0]:
                break
            hit = np.nonzero(A[r:, c])[0]
            if hit.size == 0:
                continue
            p = r + hit[0]
            if p != r:
                A[[r, p]] = A[[p, r]]
            others = np.nonzero(A[:, c])[0]
            A[others[others != r]] ^= A[r]
            r += 1
        return r

    def _vectorised(self):
        t = np.tanh(self._floats / 2)
        c = np.cumprod(t, axis=1)
        return np.arctanh(np.clip(c, -0.99, 0.99)).sum()

    def slowdown(self) -> float:
        """Current cost of the reference over NOMINAL_S (1 = quiet host)."""
        logs = []
        for kernel in (self._eliminate, self._vectorised):
            ts = []
            for _ in range(REPEATS):
                t0 = process_time()
                kernel()
                ts.append(process_time() - t0)
            logs.append(np.log(np.median(ts)))
        return float(np.exp(np.mean(logs))) / NOMINAL_S
