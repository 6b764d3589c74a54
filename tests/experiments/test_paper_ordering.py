"""The paper's qualitative result at reduced scale (§5, Figure 6).

Four servers x 60 images over network configurations 0-5, all four
algorithms, about a second of simulation.  On-line relocation must beat
download-all on mean inter-arrival time in every configuration, and the
global algorithm must have the highest geometric-mean speedup.

Local > one-shot is deliberately not asserted: it does not hold at this
scale (geometric means 2.42 vs 2.46), and the scale is not tuned to make
it hold.  The full-scale comparison lives in
``benchmarks/test_fig6_main.py``.
"""

from __future__ import annotations

import statistics

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import compare_algorithms, speedup_series

RELOCATING = (Algorithm.ONE_SHOT, Algorithm.LOCAL, Algorithm.GLOBAL)


def test_relocation_beats_download_all_and_global_is_fastest():
    setup = ExperimentConfig(num_servers=4, images_per_server=60)
    summaries = compare_algorithms(setup, list(Algorithm), n_configs=6, workers=1)
    baseline = summaries[Algorithm.DOWNLOAD_ALL.value]
    speedups = {}
    for algorithm in RELOCATING:
        summary = summaries[algorithm.value]
        for config, (ours, theirs) in enumerate(
            zip(summary.interarrivals, baseline.interarrivals)
        ):
            assert ours < theirs, (algorithm.value, config)
        speedups[algorithm] = statistics.geometric_mean(
            speedup_series(summary, baseline)
        )
    assert max(speedups, key=speedups.get) is Algorithm.GLOBAL, speedups
