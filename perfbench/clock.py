"""Reference-speed clock: interleaved calibration against host speed drift.

Standard library only (numpy is imported on first use of the "np" task), so
set-up can be calibrated before the program is imported.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time


def _cal_py():
    """Fixed interpreter work: float math, calls, dict and list traffic."""
    acc, d, out = 0.0, {}, []
    for i in range(8000):
        x = i * 1e-4
        acc += math.sin(x) * math.exp(-x) / (1.0 + x * x)
        d[i & 255] = acc
        if i % 7 == 0:
            out.append(acc)
    return acc + len(out)


_CAL_ARRAYS = []


def _cal_np():
    """Fixed vector work shaped like the Monte-Carlo loop (square, mask,
    power, sum) into preallocated buffers: allocation would make its speed
    depend on the allocator state the program leaves behind."""
    import numpy as np
    if not _CAL_ARRAYS:
        x = np.linspace(-0.9, 0.9, 300_000)
        _CAL_ARRAYS.extend((x, np.empty_like(x), np.empty_like(x), np.empty(x.shape, bool)))
    x, r2, w, mask = _CAL_ARRAYS
    np.multiply(x, x, out=r2)
    np.less_equal(r2, 0.5, out=mask)
    np.subtract(1.0, r2, out=w)
    np.power(w, -2.0, out=w)
    np.multiply(w, mask, out=w)
    return float(w.sum())


class Clock:
    """Converts wall time to reference-speed time by interleaved calibration.

    The shared host this benchmark runs on changes speed by up to 2x over
    seconds to minutes, and an op's time follows the change.  Before each
    timed op a fixed calibration task (no hypervol code) is timed and
    stamped.  When the run is over, an op that took ``dt`` seconds around
    time ``t`` counts as dt * REF / c(t), where c(t) is the median of the
    calibration times stamped within WINDOW seconds of t (at least the
    MIN_SAMPLES nearest ones).  REF is each task's typical time on the
    reference host, so normalized values read close to raw ones there.

    Kinds: "py" (an interpreter loop), "np" (numpy vector work), "cold" (a
    fresh interpreter importing numpy, argparse and json).
    """

    REF = {"py": 0.0030, "np": 0.0030, "cold": 0.170}
    WINDOW = 0.75
    MIN_SAMPLES = 3

    def __init__(self, kind, env=None):
        self.kind, self.env = kind, env
        self.samples: list[tuple[float, float]] = []  # (time stamp, seconds)

    def _calibrate(self):
        if self.kind == "cold":
            subprocess.run([sys.executable, "-c", "import numpy, argparse, json"],
                           env=self.env, capture_output=True, timeout=60, check=True)
        elif self.kind == "np":
            _cal_np()
        else:
            _cal_py()

    def sample(self):
        t0 = time.perf_counter()
        self._calibrate()
        t1 = time.perf_counter()
        self.samples.append((t1, t1 - t0))

    def factor(self, t: float) -> float:
        """REF over the local calibration time around time stamp ``t``."""
        near = sorted(self.samples, key=lambda s: abs(s[0] - t))
        local = [dt for ts, dt in near if abs(ts - t) <= self.WINDOW]
        if len(local) < self.MIN_SAMPLES:
            local = [dt for _, dt in near[:self.MIN_SAMPLES]]
        return self.REF[self.kind] / statistics.median(local)
