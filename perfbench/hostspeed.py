"""How fast this host runs right now, measured by a fixed probe.

On the 2-core box this benchmark was built on, speed changes by 25-70%
over seconds to minutes while steal stays near 0. The medians of two sets
of ten runs of the same code moved by up to 31% in raw wall time. The probe
is a fixed mix of the kinds of work s2a does, with no s2a code in it, so no
change to the program can speed it up. Timed next to every op, it turns a
wall time into seconds at a reference host speed:

    normalised = wall * REFERENCE_PROBE_S / median(nearby probes)

The probe runs in the measured process, so it holds only about 2 MB of
arrays: `peak_rss_mb` then stays the program's own figure.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# The probe's duration on the reference host state; normalised times are
# wall times rescaled to a host at which the probe takes this long.
REFERENCE_PROBE_S = 0.0126

# Probes on each side of an op whose median scales it. A probe lasts 13 ms
# and an op up to 2 s, so a half-second slow spell of the host that lands on
# the one probe next to an op would otherwise rescale the whole op.
SIDE = 2


class Probe:
    """About 13 ms of the kinds of work s2a does: interpreter arithmetic,
    numpy scalar indexing in a Python loop (as in DTW), many small-array
    calls (as in per-row sampling), matrix products, transcendental
    functions over an array (as in synthesis), FFTs (as in the STFT) and
    repeated passes over a block larger than the L1 cache. Every array is
    small next to the program's footprint."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.grid = rng.random((50, 50))
        self.rows = rng.random((25, 1000))
        self.left = rng.random((256, 64))
        self.right = rng.random((64, 256))
        self.wave = rng.random(25_000)
        self.frames = rng.random((32, 2048))
        self.block = rng.random(125_000)  # 1 MB
        self()  # the first call pays for cold caches

    def __call__(self) -> float:
        """Seconds one probe took."""
        start = time.perf_counter()
        x = 0
        for i in range(15_000):
            x += i * i % 7
        grid = self.grid
        for i in range(1, 50):
            for j in range(1, 50):
                x += abs(grid[i - 1, j - 1] - grid[i, j])
        for row in self.rows:
            np.cumsum(row[np.argsort(-row, kind="stable")])
        for _ in range(8):
            self.left @ self.right
        for _ in range(4):
            np.exp(-np.sin(self.wave * 3.0))
            np.abs(np.fft.rfft(self.frames, axis=1))
        for _ in range(16):
            np.multiply(self.block, 1.0001, out=self.block)
        return time.perf_counter() - start


def scale(probes: list[float]) -> float:
    """Factor from wall time to reference seconds for work amid these probes."""
    return REFERENCE_PROBE_S / statistics.median(probes)


def op_scales(gaps: list[float]) -> list[float]:
    """The scale of each op of a run from the probes timed around its ops:
    SIDE before the first op, one after each op and SIDE - 1 more after
    the last. Op k gets the median of the SIDE probes on each side of it."""
    return [scale(gaps[k:k + 2 * SIDE]) for k in range(len(gaps) - 2 * SIDE + 1)]
