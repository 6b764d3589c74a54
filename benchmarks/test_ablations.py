"""Ablations of the design choices DESIGN.md calls out.

* barrier priority (§2.2: barrier messages overtake queued data);
* operator prefetch (the demand-after-dispatch pipelining);
* monitoring fidelity (oracle vs passive; probe-everything planning);
* piggybacking (the 1 KB measurement gossip).
"""

from dataclasses import replace

import numpy as np

from benchmarks.conftest import configured_configs, show
from repro.engine.config import Algorithm
from repro.experiments import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.monitor.system import MonitoringConfig


def mean_speedup(setup, n_configs, algorithm, target_setup=None, **overrides):
    """Mean speedup of ``algorithm`` over download-all.

    The download-all baseline always runs on ``setup``; the target runs
    on ``target_setup`` (default ``setup``, a substrate variant is
    ``replace(setup, ...)``) with the per-run ``overrides``.
    """
    target_setup = target_setup or setup
    values = []
    for index in range(n_configs):
        base = run_configuration(setup, index, Algorithm.DOWNLOAD_ALL)
        run = run_configuration(target_setup, index, algorithm, **overrides)
        values.append(base.completion_time / run.completion_time)
    return float(np.mean(values))


def test_ablation_barrier_priority(benchmark, paper_setup):
    """Without queue priority, barrier messages wait behind bulk data,
    stretching every change-over."""
    n_configs = configured_configs(8)

    def run():
        with_priority = mean_speedup(
            paper_setup, n_configs, Algorithm.GLOBAL, barrier_priority=True
        )
        without = mean_speedup(
            paper_setup, n_configs, Algorithm.GLOBAL, barrier_priority=False
        )
        return with_priority, without

    with_priority, without = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — barrier message priority",
        f"global speedup with priority:    {with_priority:5.2f}\n"
        f"global speedup without priority: {without:5.2f}",
    )
    assert with_priority > 1.5
    # The effect is small at the 10-minute period but must not invert
    # dramatically: priority never hurts.
    assert with_priority >= without * 0.95


def test_ablation_prefetch(benchmark, paper_setup):
    """Prefetch (demand next partition right after dispatch) is what
    keeps the pipeline full; disabling it serializes the tree."""
    n_configs = configured_configs(6)

    def run():
        on = mean_speedup(paper_setup, n_configs, Algorithm.ONE_SHOT)
        off = mean_speedup(
            paper_setup, n_configs, Algorithm.ONE_SHOT, prefetch=False
        )
        return on, off

    on, off = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — operator prefetch (pipelining)",
        f"one-shot speedup with prefetch:    {on:5.2f}\n"
        f"one-shot speedup without prefetch: {off:5.2f}",
    )
    assert on > off


def test_ablation_monitoring_fidelity(benchmark, paper_setup):
    """Oracle (perfect 5-minute averages) bounds what better monitoring
    could buy; probe-everything planning shows monitoring's traffic cost."""
    n_configs = configured_configs(8)

    def run():
        passive = mean_speedup(paper_setup, n_configs, Algorithm.GLOBAL)
        oracle = mean_speedup(
            paper_setup, n_configs, Algorithm.GLOBAL, oracle_monitoring=True
        )
        probe_heavy = mean_speedup(
            paper_setup,
            n_configs,
            Algorithm.GLOBAL,
            probe_before_planning=True,
        )
        return passive, oracle, probe_heavy

    passive, oracle, probe_heavy = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — monitoring fidelity (global algorithm)",
        f"passive monitoring (default): {passive:5.2f}\n"
        f"oracle monitoring:            {oracle:5.2f}\n"
        f"probe-everything planning:    {probe_heavy:5.2f}",
    )
    assert oracle >= passive * 0.9  # perfect info should not hurt
    assert passive > probe_heavy * 0.9  # probe storms are costly


def test_ablation_piggybacking(benchmark):
    """Disabling the 1 KB measurement gossip starves remote caches."""
    n_configs = configured_configs(8)
    base_setup = ExperimentConfig()

    def run():
        with_piggyback = mean_speedup(base_setup, n_configs, Algorithm.GLOBAL)
        without = mean_speedup(
            base_setup,
            n_configs,
            Algorithm.GLOBAL,
            replace(base_setup, monitoring=MonitoringConfig(piggyback_budget=0)),
        )
        return with_piggyback, without

    with_piggyback, without = benchmark.pedantic(run, rounds=1, iterations=1)
    show(
        "Ablation — measurement piggybacking",
        f"global speedup with piggybacking:    {with_piggyback:5.2f}\n"
        f"global speedup without piggybacking: {without:5.2f}",
    )
    assert with_piggyback > 1.5
    assert without > 1.0  # still functional, just worse informed
