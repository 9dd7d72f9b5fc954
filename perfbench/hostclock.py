"""Times scaled to a reference host speed.

The host this benchmark was tuned on lends its vCPUs to other tenants.
Interpreter-bound code there ran up to twice as slow for minutes at a
time, so raw times from two runs of the same code could differ by more
than any bound. The run therefore times a fixed calibration block (plain
Python arithmetic, float formatting and small numpy calls; no mwiv)
between the program's calls, and scales each measured time by
``REF_BLOCK_S / measured block time``. The calibration does not touch
the program, so a change to the program moves the scaled times exactly
as it moves the raw ones; only the host's speed drops out.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

REF_BLOCK_S = 0.009  # one calibration block on a quiet 2-vCPU Xeon VM
SHARE = 0.1  # calibration time per unit of measured time
MIN_BLOCKS = 1

_POLY = np.array([1.0, -2.5, 0.75, 1.25, -0.5])
_XS = np.linspace(0.0, 1.0, 64)
_YS = _XS * _XS
_VALUES = np.random.default_rng(0).standard_normal(800).tolist()


def _block() -> float:
    """Small numpy calls and float arithmetic, then a CSV-like text round
    trip: the kinds of work the workloads spend their time in."""
    acc = 0.0
    for i in range(60):
        r = np.roots(_POLY)
        acc += float(np.interp(0.37 + 1e-3 * i, _XS, _YS)) + float(r.real.max())
        acc += len(repr(acc * 1.000001)) + sum(j * 0.5 for j in range(40))
    text = "".join(f"{v!r},{v * 0.5!r},{v + 1.0!r}\n" for v in _VALUES)
    rows = [tuple(float(p) for p in line.split(",")) for line in text.splitlines()]
    return acc + len(rows)


class HostClock:
    """Collects calibration blocks; ``take`` returns the speed factor and
    the calibration time spent since the last ``take``. A disabled clock
    runs no blocks and gives the factor 1, so times stay raw."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._blocks: list[float] = []
        self._spent = 0.0
        self.all_blocks: list[float] = []

    def calibrate(self, busy_s: float) -> None:
        """Time calibration blocks worth SHARE of ``busy_s`` (at least
        MIN_BLOCKS)."""
        if not self.enabled:
            return
        start = time.perf_counter()
        for _ in range(max(MIN_BLOCKS, math.ceil(SHARE * busy_s / REF_BLOCK_S))):
            t0 = time.perf_counter()
            _block()
            self._blocks.append(time.perf_counter() - t0)
        self._spent += time.perf_counter() - start

    def take(self) -> tuple[float, float]:
        """(REF_BLOCK_S / mean block time, seconds spent calibrating)."""
        if not self.enabled:
            return 1.0, 0.0
        if not self._blocks:
            self.calibrate(0.0)
        factor = REF_BLOCK_S / statistics.fmean(self._blocks)
        spent = self._spent
        self.all_blocks += self._blocks
        self._blocks, self._spent = [], 0.0
        return factor, spent
