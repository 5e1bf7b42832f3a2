"""Machine-speed calibration.

The host this benchmark was built on changes speed by up to 2x over seconds
and by ~8% between 20-second windows (coefficient of variation of a fixed
kernel), which no amount of repetition inside one run removes.  So every
timed op is bracketed by a short fixed kernel that uses no atispec code,
and each time is rescaled to the speed at which that kernel takes
REFERENCE_S: `scaled = raw * REFERENCE_S / kernel_time`, with the kernel
time averaged over the two brackets.  On the same fixed kernel this cut the
20-second-window spread from 10% to 1.5% (interquartile range over median).
The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special as sp

# kernel time at the host's typical speed; scaled times are seconds at it
REFERENCE_S = 0.020
_ORDERS = np.arange(-30, 31)


def kernel() -> float:
    """Seconds for a fixed mix of Python float arithmetic and small scipy
    calls, the same kind of work as the package's scalar paths."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(160):
        acc += float(sp.jv(_ORDERS, 20.0 + 0.01 * i).sum())
        for k in range(100):
            acc += math.sin(k * 0.1) * math.sqrt(k + 1.0)
    return time.perf_counter() - t0


def scale(raw: list[float], brackets: list[float]) -> list[float]:
    """Rescale raw[i], timed between brackets[i] and brackets[i + 1]."""
    if len(brackets) != len(raw) + 1:
        raise ValueError("need one bracket before each time and one after the last")
    return [t * REFERENCE_S * 2.0 / (brackets[i] + brackets[i + 1]) for i, t in enumerate(raw)]
