"""Speed calibration: corrects timings for the machine's drifting speed.

On a shared machine the CPU speed drifts by a quarter or more over seconds
to minutes (CPU time and wall time drift together, so this is not waiting).
Every gated timing is therefore taken next to a fixed calibration kernel and
reported at nominal speed:

    time at nominal speed = measured time * CALIBRATION_NOMINAL_S / calibration time

The kernel is a mix shaped like wate's inner loop: interpreter work plus
small numpy and LAPACK calls on a 1000 x 6 matrix. It uses no wate code, so
a change to wate moves the corrected time exactly as it moves the raw time.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Roughly the kernel's time when the 2-core x86-64 machine of the baseline
# ran fast (over those runs its quartiles were 29, 33 and 36 ms; Python 3.11,
# numpy 2.4, one BLAS thread). It sets the scale of the corrected times, not
# their spread; changing it would move every gated time, so it stays fixed.
CALIBRATION_NOMINAL_S = 0.030

_X = np.linspace(-1.0, 1.0, 6000).reshape(1000, 6)


def calibration_s() -> float:
    """Wall seconds of one pass of the calibration kernel (about 30 ms)."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(250):
        _, r = np.linalg.qr(_X)
        y = _X @ r[0]
        acc += float(np.sum(np.exp(-y * y)))
        acc += sum(j * 0.5 for j in range(300))
        acc += len({k: k + 1 for k in range(50)})
    return time.perf_counter() - start


class SpeedCorrector:
    """Corrects back-to-back measurements, each by the mean of the
    calibrations taken just before and just after it."""

    def __init__(self) -> None:
        self.previous = calibration_s()

    def correct(self, elapsed: float) -> float:
        current = calibration_s()
        factor = CALIBRATION_NOMINAL_S / ((self.previous + current) / 2.0)
        self.previous = current
        return elapsed * factor


def corrected_once(elapsed: float) -> float:
    """Correct a single measurement by the median of three calibrations."""
    cal = statistics.median(calibration_s() for _ in range(3))
    return elapsed * CALIBRATION_NOMINAL_S / cal
