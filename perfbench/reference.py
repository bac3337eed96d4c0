"""A fixed reference computation for measuring the machine's current speed.

On a shared virtual machine the same work can take 40 % longer for
seconds to minutes at a time, because of load elsewhere on the host;
process CPU time swings with wall time, so it is no remedy. The
benchmark therefore times this loop between its timed steps (``Speed``)
and rescales each step to the speed at which this loop takes
``NOMINAL_S``.

The loop is the shape of kdsim's hot path written with numpy alone:
Adam minibatch steps of an 8-64-10 ReLU network at batch size 32, with
the softmax, backward pass and per-parameter update that ``kdsim.nn``
performs. It never imports kdsim, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

STEPS = 150
# Longest time between two samples while a step made of several stage
# invocations runs.
SAMPLE_EVERY_S = 0.5
# Median time of the loop on an idle 2-vCPU Intel Xeon VM (2.0 GHz),
# numpy 2.4 with OpenBLAS 0.3.31. It only fixes the unit of the
# rescaled times.
NOMINAL_S = 0.015

_rng = np.random.default_rng(0)
_X = _rng.normal(size=(256, 8))
_Y = np.eye(10)[_rng.integers(0, 10, size=256)]
_W0 = _rng.normal(scale=0.1, size=(8, 64))
_W1 = _rng.normal(scale=0.1, size=(64, 10))


def reference_seconds() -> float:
    """Wall seconds of STEPS Adam minibatch steps on fixed data."""
    params = [_W0.copy(), _W1.copy(), np.zeros(64), np.zeros(10)]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    start = time.perf_counter()
    for t in range(1, STEPS + 1):
        rows = slice(t * 32 % 256, t * 32 % 256 + 32)
        x, y = _X[rows], _Y[rows]
        w0, w1, b0, b1 = params
        h = np.maximum(x @ w0 + b0, 0.0)
        z = h @ w1 + b1
        z = z - z.max(axis=-1, keepdims=True)
        e = np.exp(z)
        d = (e / e.sum(axis=-1, keepdims=True) - y) / len(x)
        dh = (d @ w1.T) * (h > 0.0)
        grads = [x.T @ dh, h.T @ d, dh.sum(axis=0), d.sum(axis=0)]
        for i, (p, g, mi, vi) in enumerate(zip(params, grads, m, v)):
            mi[:] = 0.9 * mi + 0.1 * g
            vi[:] = 0.999 * vi + 0.001 * (g * g)
            update = 1e-3 * (mi / (1.0 - 0.9**t)) / (np.sqrt(vi / (1.0 - 0.999**t)) + 1e-8)
            if i < 2:
                update = update + 1e-3 * 4e-4 * p
            p -= update
    return time.perf_counter() - start


class Speed:
    """Reference-loop samples taken between the timed steps of a run.

    A step is rescaled by the mean of the samples from the one taken just
    before it to the one taken just after it, so a swing in machine speed
    is corrected for the steps it overlaps. On the 2-vCPU VM named at
    NOMINAL_S, six runs of the ``federate`` workload with one seed ranged
    over 44 % in raw wall time and over 7 % rescaled.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.sample()

    def sample(self) -> None:
        self.samples.append(reference_seconds())
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= SAMPLE_EVERY_S

    def mark(self) -> int:
        """Index of the sample taken just before the next step."""
        return len(self.samples) - 1

    def scale(self, mark: int) -> float:
        """Samples once more and returns the factor for the step since mark."""
        self.sample()
        return NOMINAL_S / statistics.mean(self.samples[mark:])
