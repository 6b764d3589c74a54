"""Scalar references for :class:`repro.traces.study.TraceLibrary` draws.

:meth:`~repro.traces.study.TraceLibrary.sample_noon_segments` draws a
whole configuration's link traces with one vectorized index draw.  These
are the one-draw-at-a-time versions it must replay exactly: same
generator stream consumption, same trace objects.
"""

from __future__ import annotations

import numpy as np

from repro.traces import BandwidthTrace
from repro.traces.study import TraceLibrary


def sample(library: TraceLibrary, rng: np.random.Generator) -> BandwidthTrace:
    """Draw one trace uniformly at random (with replacement)."""
    keys = tuple(library.pairs())
    return library.trace(*keys[int(rng.integers(len(keys)))])


def sample_noon_segment(
    library: TraceLibrary, rng: np.random.Generator
) -> BandwidthTrace:
    """Draw one trace and rebase it to start at the path's local noon."""
    keys = tuple(library.pairs())
    return library.noon_segment_for(keys[int(rng.integers(len(keys)))])
