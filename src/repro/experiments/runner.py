"""Runners: simulate algorithms over batches of configurations."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.engine.config import Algorithm
from repro.engine.simulation import run_simulation
from repro.experiments.config import ExperimentConfig, build_spec
from repro.experiments.parallel import run_sweep
from repro.obs.metrics import RunMetrics


def run_configuration(
    setup: ExperimentConfig,
    config_index: int,
    algorithm: Algorithm,
    tracer=None,
    **overrides,
) -> RunMetrics:
    """Simulate one algorithm on one network configuration.

    Pass a :class:`repro.obs.Tracer` to record the run's event stream.
    Every call for one ``(setup, config_index)`` draws the same
    configuration, so algorithms run back to back compare on equal links.
    """
    spec = build_spec(setup, config_index, algorithm, **overrides)
    return run_simulation(spec, tracer=tracer)


@dataclass
class AlgorithmSummary:
    """Aggregated results of one algorithm over many configurations."""

    algorithm: str
    completion_times: list[float] = field(default_factory=list)
    interarrivals: list[float] = field(default_factory=list)
    relocations: list[int] = field(default_factory=list)

    def add(self, metrics: RunMetrics) -> None:
        self.completion_times.append(metrics.completion_time)
        self.interarrivals.append(metrics.mean_interarrival)
        self.relocations.append(metrics.relocations)

    @property
    def mean_interarrival(self) -> float:
        """Mean of per-configuration mean inter-arrival times (§5 table)."""
        return float(np.mean(self.interarrivals))

def compare_algorithms(
    setup: ExperimentConfig,
    algorithms: Sequence[Algorithm],
    n_configs: int,
    progress: Optional[callable] = None,
    workers: Optional[int] = None,
    **overrides,
) -> dict[str, AlgorithmSummary]:
    """Run all ``algorithms`` on configurations ``0..n_configs-1``.

    Every algorithm sees the *same* configurations (same seeds), matching
    the paper's paired comparison.

    ``workers`` selects parallel execution (default: the ``REPRO_WORKERS``
    environment variable, else serial); results are assembled in
    configuration order regardless, so the returned summaries are
    bit-identical for any worker count.
    """
    summaries = {a.value: AlgorithmSummary(a.value) for a in algorithms}
    tasks = [
        (index, algorithm)
        for index in range(n_configs)
        for algorithm in algorithms
    ]
    results = run_sweep(
        setup, tasks, workers=workers, progress=progress, overrides=overrides
    )
    for index in range(n_configs):
        for algorithm in algorithms:
            summaries[algorithm.value].add(results[(index, algorithm.value)])
    return summaries


def speedup_series(
    target: AlgorithmSummary, baseline: AlgorithmSummary
) -> np.ndarray:
    """Per-configuration speedups of ``target`` over ``baseline``.

    This is the paper's headline metric: "the performance of an algorithm
    on a particular configuration is measured as the speedup it achieves
    over the download-all strategy" (Figure 6).
    """
    if len(target.completion_times) != len(baseline.completion_times):
        raise ValueError("summaries cover different numbers of configurations")
    return np.asarray(baseline.completion_times) / np.asarray(
        target.completion_times
    )
