"""Host-speed calibration.

Host speed can drift by more than the benchmark's bounds: on a 2-vCPU Xeon
virtual machine (2.1 GHz) the same slice of fuzz runs took between 0.33 s
and 0.59 s within two minutes, in phases lasting from seconds to minutes,
with no steal time reported, so process CPU time drifts just as much. A fixed slice of the
interpreter work the workloads do (Fraction and float arithmetic, tuples, a
Counter, a JSON encode) slows down by nearly the same factor: the pass time
divided by the slice time stayed within a few percent over the same minutes.

So every time the benchmark reports is a *calibrated* time: host seconds
multiplied by ``NOMINAL_SLICE_S / median slice time`` measured in the same
pass, between runs. On a quiet host of the reference kind the factor is
about 1. The raw host-second figures are printed beside the calibrated ones.
"""
from __future__ import annotations

import gc
import json
import math
import statistics
from collections import Counter
from fractions import Fraction
from time import perf_counter

# Median slice time on the reference host (2-vCPU Intel Xeon at 2.1 GHz,
# Python 3.11) in its fast phases.
NOMINAL_SLICE_S = 0.0025
SAMPLE_EVERY_S = 0.25  # host time between two samples
SLICES_PER_SAMPLE = 2


def calibration_slice():
    acc, x, tally, rows = Fraction(0), 0.0, Counter(), []
    for i in range(1, 350):
        q = Fraction(i, i + 7)
        acc += q * q - Fraction(1, i)
        x += math.cos(i * 0.1) * i
        tally[(i % 13, i % 7)] += 1
        rows.append([str(q), x])
    json.dumps(rows)
    return acc, x, tally


class HostSpeed:
    """Slice timings taken between runs, at most every SAMPLE_EVERY_S."""

    def __init__(self):
        self.slices: list[float] = []
        self._last = -math.inf

    def sample(self, force: bool = False) -> None:
        """Time SLICES_PER_SAMPLE slices after one untimed warm-up slice, with
        the cyclic collector paused so the garbage of the runs is not charged
        to the slice."""
        if not force and perf_counter() - self._last < SAMPLE_EVERY_S:
            return
        calibration_slice()
        gc.disable()
        try:
            for _ in range(SLICES_PER_SAMPLE):
                t0 = perf_counter()
                calibration_slice()
                self.slices.append(perf_counter() - t0)
        finally:
            gc.enable()
        self._last = perf_counter()

    def factor(self) -> float:
        """Multiply host seconds by this to get calibrated seconds."""
        return NOMINAL_SLICE_S / statistics.median(self.slices)
