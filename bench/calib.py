"""Host-speed calibration: the frozen loop behind reference seconds.

The machines this benchmark runs on share cores with other tenants, and
their speed for pure-Python work swings by up to 2x from one tenth of a
second to the next.  Every host-time metric is therefore reported in
*reference seconds*: ``wall * CALIB_REF_S / calib_now_s``, where
``calib_now_s`` is the mean time of :func:`calibration_kernel` sampled
*while* the timed work runs: a :class:`SpeedSampler` interrupts it
every :data:`SAMPLE_INTERVAL_S` of wall time (``SIGALRM``) and times one
kernel run.  Samples taken before and after an op track its speed far
worse, because the speed changes within one op.

The kernel is a fixed integer loop.  Loops built from heap, dict and
generator traffic were tried too; they slowed down more than the
simulator does when the host is busy and over-corrected.  The kernel
must never change, and this module must never import ``repro``: a
faster simulator has to show up as fewer reference seconds, not as a
faster yardstick.  Changing the kernel invalidates :data:`CALIB_REF_S`
and every recorded baseline.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Mean seconds of one :func:`calibration_kernel` sample on the reference
#: machine (2-vCPU Intel Xeon VM, CPython 3.11); see ``bench/baseline.json``.
CALIB_REF_S = 2.0e-05

#: Loop iterations per sample (about 20 microseconds on the reference machine).
KERNEL_STEPS = 150
#: Wall seconds between samples (costs about 0.5 % of the timed work).
SAMPLE_INTERVAL_S = 0.004


def calibration_kernel(steps: int = KERNEL_STEPS) -> int:
    """A fixed integer loop: one speed sample's worth of work."""
    x = 1
    for _ in range(steps):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    return x


def to_reference(wall_s: float, calib_now_s: float) -> float:
    """Convert wall seconds measured at host speed ``calib_now_s``."""
    return wall_s * CALIB_REF_S / calib_now_s


class SpeedSampler:
    """Times one kernel run every :data:`SAMPLE_INTERVAL_S` while active.

    Use as a context manager around the work to be timed; ``samples``
    grows as it runs, so callers note ``len(samples)`` before a piece of
    work and pass it to :meth:`calib_since` afterwards.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self.samples.append(time.perf_counter() - start)

    def calib_since(self, first: int) -> float:
        """Mean sample time from index ``first`` on (sampling once if none)."""
        if len(self.samples) <= first:
            self._sample()
        return statistics.fmean(self.samples[first:])
