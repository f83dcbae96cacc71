"""A fixed piece of numpy work that measures the speed of the machine.

The host this benchmark runs on drifts in speed by a quarter and more
over minutes, the same for every phase of a run (other tenants share
its cores, caches and memory bandwidth). A run therefore times this
yardstick between its phases and scales every time it reports to the
speed the yardstick had when NOMINAL_S was recorded: a reported time
is the time the program would have taken on the machine at that speed.
A change to the program moves the reported times as it moves the
measured ones, since the yardstick does not call the program.

The work mirrors the workloads: float Horner evaluations and gradients
on training-sized arrays, and int64 gathers through a circuit-shaped
random wiring on a batch of rows, with fresh arrays each time. Its
inputs are fixed, not taken from the seed.
"""

from __future__ import annotations

import time

import numpy as np

#: Yardstick seconds at the reference speed; its mean ranged over
#: 0.016-0.021 s on the 2-vCPU Intel Xeon VM where the first numbers
#: were taken. Fixed: changing it rescales every reported time.
NOMINAL_S = 0.019

_WIDTHS = (512, 512, 512, 200)
_BATCH = 100
_ROWS = 1000


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self.coeffs = [rng.normal(size=(w, 9)) for w in _WIDTHS[1:]]
        self.acts = rng.uniform(-1.0, 1.0, size=(_BATCH, _WIDTHS[0]))
        self.wiring = [(rng.integers(0, a, size=b), rng.integers(0, a, size=b))
                       for a, b in zip(_WIDTHS, _WIDTHS[1:])]
        self.tables = [rng.integers(-1, 2, size=b * 9).astype(np.int64)
                       for b in _WIDTHS[1:]]
        self.rows = rng.integers(-1, 2, size=(_ROWS, _WIDTHS[0]))

    def _floats(self) -> float:
        total = 0.0
        for w, (s, t) in zip(self.coeffs, self.wiring):
            a, b = self.acts[:, s], self.acts[:, t]
            w = w.T
            c1 = (w[7] * b + w[3]) * b + w[1]
            c2 = (w[8] * b + w[6]) * b + w[4]
            p = (w[5] * b + w[2]) * b + w[0] + a * (c1 + a * c2)
            da = c1 + 2.0 * a * c2
            total += float(np.tanh(p).sum() + np.einsum("nw,nw->w", da, p).sum())
        return total

    def _gathers(self) -> int:
        h = self.rows
        for (s, t), flat in zip(self.wiring, self.tables):
            offsets = 9 * np.arange(len(s))
            h = flat[offsets + 3 * (h[:, s] + 1) + (h[:, t] + 1)]
        return int(h.sum())

    def run(self) -> float:
        """One measurement; returns its wall seconds."""
        t0 = time.perf_counter()
        self._floats()
        self._gathers()
        return time.perf_counter() - t0
