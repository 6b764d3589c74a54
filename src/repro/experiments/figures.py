"""One reproduction function per paper figure (§5).

Every function runs the relevant algorithms over ``n_configs`` network
configurations (the paper uses 300) and returns a structured result whose
``format_table()`` renders the same rows/series the paper reports.  The
benchmark harness in ``benchmarks/`` wraps these functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.parallel import run_sweep
from repro.experiments.runner import (
    AlgorithmSummary,
    compare_algorithms,
    speedup_series,
)


def _median(values: np.ndarray) -> float:
    return float(np.median(values))


# --------------------------------------------------------------------------
# Figure 6 — main comparison over 300 configurations
# --------------------------------------------------------------------------
@dataclass
class Fig6Result:
    """Speedups over download-all for one-shot, local and global."""

    one_shot_speedups: np.ndarray
    local_speedups: np.ndarray
    global_speedups: np.ndarray
    mean_interarrival: dict[str, float]

    #: Paper reference points (§5).
    PAPER_INTERARRIVAL = {
        "download-all": 101.2,
        "one-shot": 24.6,
        "local": 22.0,
        "global": 17.1,
    }
    PAPER_GLOBAL_OVER_ONE_SHOT_MEDIAN = 1.40
    PAPER_GLOBAL_OVER_LOCAL_MEDIAN = 1.25

    @property
    def median_global_over_one_shot(self) -> float:
        """Median of per-config global/one-shot speedup ratios."""
        return _median(self.global_speedups / self.one_shot_speedups)

    @property
    def median_global_over_local(self) -> float:
        """Median of per-config global/local speedup ratios."""
        return _median(self.global_speedups / self.local_speedups)

    def format_table(self) -> str:
        rows = [
            "Figure 6 / §5 — speedup over download-all "
            f"({len(self.global_speedups)} configurations)",
            f"{'algorithm':>12s} {'median speedup':>15s} {'mean speedup':>13s} "
            f"{'mean interarrival (s)':>22s} {'paper (s)':>10s}",
        ]
        series = {
            "one-shot": self.one_shot_speedups,
            "local": self.local_speedups,
            "global": self.global_speedups,
        }
        rows.append(
            f"{'download-all':>12s} {1.0:15.2f} {1.0:13.2f} "
            f"{self.mean_interarrival['download-all']:22.1f} "
            f"{self.PAPER_INTERARRIVAL['download-all']:10.1f}"
        )
        for name, speedups in series.items():
            rows.append(
                f"{name:>12s} {_median(speedups):15.2f} "
                f"{float(np.mean(speedups)):13.2f} "
                f"{self.mean_interarrival[name]:22.1f} "
                f"{self.PAPER_INTERARRIVAL[name]:10.1f}"
            )
        rows.append(
            f"median global/one-shot ratio: {self.median_global_over_one_shot:.2f} "
            f"(paper ~{self.PAPER_GLOBAL_OVER_ONE_SHOT_MEDIAN:.2f})"
        )
        rows.append(
            f"median global/local ratio:    {self.median_global_over_local:.2f} "
            f"(paper ~{self.PAPER_GLOBAL_OVER_LOCAL_MEDIAN:.2f})"
        )
        return "\n".join(rows)


def fig6_main_comparison(
    setup: Optional[ExperimentConfig] = None,
    n_configs: int = 300,
    workers: Optional[int] = None,
) -> Fig6Result:
    """Reproduce Figure 6 and the §5 inter-arrival table."""
    setup = setup or ExperimentConfig()
    algorithms = [
        Algorithm.DOWNLOAD_ALL,
        Algorithm.ONE_SHOT,
        Algorithm.LOCAL,
        Algorithm.GLOBAL,
    ]
    summaries = compare_algorithms(setup, algorithms, n_configs, workers=workers)
    baseline = summaries[Algorithm.DOWNLOAD_ALL.value]
    return Fig6Result(
        one_shot_speedups=speedup_series(
            summaries[Algorithm.ONE_SHOT.value], baseline
        ),
        local_speedups=speedup_series(summaries[Algorithm.LOCAL.value], baseline),
        global_speedups=speedup_series(summaries[Algorithm.GLOBAL.value], baseline),
        mean_interarrival={
            name: summary.mean_interarrival for name, summary in summaries.items()
        },
    )


# --------------------------------------------------------------------------
# Figure 7 — extra random candidate sites for the local algorithm
# --------------------------------------------------------------------------
@dataclass
class Fig7Result:
    """Mean local-algorithm speedup as a function of k extra sites."""

    ks: tuple[int, ...]
    mean_speedups: tuple[float, ...]

    def spread(self) -> float:
        """Max-min of the series (the paper finds it insignificant)."""
        return max(self.mean_speedups) - min(self.mean_speedups)

    def format_table(self) -> str:
        rows = [
            "Figure 7 — local algorithm with k extra random candidate sites",
            f"{'k':>3s} {'mean speedup over download-all':>31s}",
        ]
        for k, speedup in zip(self.ks, self.mean_speedups):
            rows.append(f"{k:3d} {speedup:31.2f}")
        rows.append(
            f"spread: {self.spread():.2f} "
            "(paper: no significant difference)"
        )
        return "\n".join(rows)


def fig7_extra_sites(
    setup: Optional[ExperimentConfig] = None,
    n_configs: int = 300,
    ks: Sequence[int] = (0, 1, 2, 3, 4, 5, 6),
    workers: Optional[int] = None,
) -> Fig7Result:
    """Reproduce Figure 7."""
    setup = setup or ExperimentConfig()
    mean_speedups = []
    for k in ks:
        tasks = []
        for index in range(n_configs):
            tasks.append((index, Algorithm.DOWNLOAD_ALL))
            tasks.append(
                (index, Algorithm.LOCAL, {"local_extra_candidates": k})
            )
        results = run_sweep(setup, tasks, workers=workers)
        baseline = AlgorithmSummary(Algorithm.DOWNLOAD_ALL.value)
        local = AlgorithmSummary(Algorithm.LOCAL.value)
        for index in range(n_configs):
            baseline.add(results[(index, Algorithm.DOWNLOAD_ALL.value)])
            local.add(results[(index, Algorithm.LOCAL.value)])
        mean_speedups.append(float(np.mean(speedup_series(local, baseline))))
    return Fig7Result(ks=tuple(ks), mean_speedups=tuple(mean_speedups))


# --------------------------------------------------------------------------
# Figure 8 — scaling with the number of servers
# --------------------------------------------------------------------------
@dataclass
class Fig8Result:
    """Mean speedup per algorithm for each server count."""

    server_counts: tuple[int, ...]
    #: algorithm value -> tuple of mean speedups (aligned with counts).
    mean_speedups: dict[str, tuple[float, ...]]

    def format_table(self) -> str:
        rows = [
            "Figure 8 — mean speedup over download-all vs number of servers",
            f"{'servers':>8s} "
            + " ".join(f"{name:>10s}" for name in self.mean_speedups),
        ]
        for i, count in enumerate(self.server_counts):
            rows.append(
                f"{count:8d} "
                + " ".join(
                    f"{values[i]:10.2f}" for values in self.mean_speedups.values()
                )
            )
        rows.append("paper: global scales best; local degrades with size")
        return "\n".join(rows)


def fig8_server_scaling(
    setup: Optional[ExperimentConfig] = None,
    n_configs: int = 300,
    server_counts: Sequence[int] = (4, 8, 16, 32),
    workers: Optional[int] = None,
) -> Fig8Result:
    """Reproduce Figure 8."""
    base = setup or ExperimentConfig()
    algorithms = [Algorithm.ONE_SHOT, Algorithm.LOCAL, Algorithm.GLOBAL]
    results: dict[str, list[float]] = {a.value: [] for a in algorithms}
    from dataclasses import replace

    for count in server_counts:
        scaled = replace(base, num_servers=count)
        summaries = compare_algorithms(
            scaled,
            [Algorithm.DOWNLOAD_ALL, *algorithms],
            n_configs,
            workers=workers,
        )
        baseline = summaries[Algorithm.DOWNLOAD_ALL.value]
        for algorithm in algorithms:
            speedups = speedup_series(summaries[algorithm.value], baseline)
            results[algorithm.value].append(float(np.mean(speedups)))
    return Fig8Result(
        server_counts=tuple(server_counts),
        mean_speedups={name: tuple(vals) for name, vals in results.items()},
    )


# --------------------------------------------------------------------------
# Figure 9 — relocation period sweep for the global algorithm
# --------------------------------------------------------------------------
@dataclass
class Fig9Result:
    """Mean global-algorithm speedup per relocation period."""

    periods: tuple[float, ...]
    mean_speedups: tuple[float, ...]

    @property
    def best_period(self) -> float:
        return self.periods[int(np.argmax(self.mean_speedups))]

    def format_table(self) -> str:
        rows = [
            "Figure 9 — global algorithm vs relocation period",
            f"{'period (min)':>13s} {'mean speedup':>13s}",
        ]
        for period, speedup in zip(self.periods, self.mean_speedups):
            rows.append(f"{period / 60.0:13.1f} {speedup:13.2f}")
        rows.append(
            f"best period: {self.best_period / 60.0:.1f} min "
            "(paper: 5-10 minutes)"
        )
        return "\n".join(rows)


def fig9_relocation_period(
    setup: Optional[ExperimentConfig] = None,
    n_configs: int = 300,
    periods: Sequence[float] = (120.0, 300.0, 600.0, 1800.0, 3600.0),
    workers: Optional[int] = None,
) -> Fig9Result:
    """Reproduce Figure 9 (five periods between two minutes and an hour)."""
    setup = setup or ExperimentConfig()
    means = []
    for period in periods:
        tasks = []
        for index in range(n_configs):
            tasks.append((index, Algorithm.DOWNLOAD_ALL))
            tasks.append(
                (index, Algorithm.GLOBAL, {"relocation_period": period})
            )
        results = run_sweep(setup, tasks, workers=workers)
        baseline = AlgorithmSummary(Algorithm.DOWNLOAD_ALL.value)
        online = AlgorithmSummary(Algorithm.GLOBAL.value)
        for index in range(n_configs):
            baseline.add(results[(index, Algorithm.DOWNLOAD_ALL.value)])
            online.add(results[(index, Algorithm.GLOBAL.value)])
        means.append(float(np.mean(speedup_series(online, baseline))))
    return Fig9Result(periods=tuple(periods), mean_speedups=tuple(means))


# --------------------------------------------------------------------------
# Figure 10 — combination order (binary vs left-deep)
# --------------------------------------------------------------------------
@dataclass
class Fig10Result:
    """Per-config speedups under both tree shapes for global and local."""

    global_binary: np.ndarray
    global_left_deep: np.ndarray
    local_binary: np.ndarray
    local_left_deep: np.ndarray

    def mean(self, series: np.ndarray) -> float:
        return float(np.mean(series))

    def format_table(self) -> str:
        rows = [
            "Figure 10 — combination order: complete binary vs left-deep",
            f"{'algorithm':>10s} {'binary mean':>12s} {'left-deep mean':>15s}",
            f"{'global':>10s} {self.mean(self.global_binary):12.2f} "
            f"{self.mean(self.global_left_deep):15.2f}",
            f"{'local':>10s} {self.mean(self.local_binary):12.2f} "
            f"{self.mean(self.local_left_deep):15.2f}",
            "paper: the complete binary order beats the left-deep order "
            "for both on-line algorithms",
        ]
        return "\n".join(rows)


def fig10_tree_shape(
    setup: Optional[ExperimentConfig] = None,
    n_configs: int = 300,
    workers: Optional[int] = None,
) -> Fig10Result:
    """Reproduce Figure 10.

    Note the download-all baseline is re-run per tree shape: with all
    operators at the client the tree shape only changes composition order,
    so the baseline is effectively shared, as in the paper.
    """
    from dataclasses import replace

    base = setup or ExperimentConfig()
    series: dict[tuple[str, str], np.ndarray] = {}
    for shape in ("binary", "left-deep"):
        shaped = replace(base, tree_shape=shape)
        summaries = compare_algorithms(
            shaped,
            [Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL, Algorithm.LOCAL],
            n_configs,
            workers=workers,
        )
        baseline = summaries[Algorithm.DOWNLOAD_ALL.value]
        for algorithm in (Algorithm.GLOBAL, Algorithm.LOCAL):
            series[(algorithm.value, shape)] = speedup_series(
                summaries[algorithm.value], baseline
            )
    return Fig10Result(
        global_binary=series[("global", "binary")],
        global_left_deep=series[("global", "left-deep")],
        local_binary=series[("local", "binary")],
        local_left_deep=series[("local", "left-deep")],
    )
