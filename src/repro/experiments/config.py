"""Experiment configuration generation (paper §4).

"We generated the network configurations by different assignments of the
Internet bandwidth traces to the links in a complete graph of nine nodes
(eight servers and one client).  The assignments were generated using a
uniform random number generator."
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.engine.config import Algorithm, SimulationSpec
from repro.faults.plan import FaultPlan
from repro.traces.study import InternetStudy, TraceLibrary
from repro.traces.trace import BandwidthTrace


@lru_cache(maxsize=4)
def _default_library(seed: int) -> TraceLibrary:
    """The default (cached) synthetic Internet study."""
    return InternetStudy(seed=seed).run()


@dataclass(frozen=True)
class ExperimentConfig:
    """One composable config for a family of experiments *and* reporting.

    Collapses the workload knobs (formerly ``ExperimentSetup``) and the
    report knobs (formerly ``ReportOptions``; both aliases removed) into
    a single frozen dataclass, so a whole study is one value that can be
    passed around, ``dataclasses.replace``-d, and pickled to sweep
    workers.
    """

    # ---- workload ----------------------------------------------------
    num_servers: int = 8
    tree_shape: str = "binary"
    images_per_server: int = 180
    #: Master seed: configuration ``i`` derives all its randomness from
    #: ``(seed, i)``, so runs are reproducible and configurations are
    #: identical across the algorithms being compared.
    seed: int = 1998
    #: Seed of the synthetic Internet study (the trace library).
    study_seed: int = 1998
    relocation_period: float = 600.0
    local_extra_candidates: int = 0
    library: Optional[TraceLibrary] = None
    #: Optional fault-injection plan applied to every run built from this
    #: config (``None``: fault machinery stays dormant).
    fault_plan: Optional[FaultPlan] = None

    # ---- report scale ------------------------------------------------
    n_configs: int = 30
    #: Parallel sweep workers (None: honour ``REPRO_WORKERS``, else serial).
    workers: Optional[int] = None
    include_fig7: bool = True
    include_fig8: bool = True
    include_fig9: bool = True
    include_fig10: bool = True
    fig7_configs: Optional[int] = None
    fig8_configs: Optional[int] = None
    fig9_configs: Optional[int] = None
    fig10_configs: Optional[int] = None

    def trace_library(self) -> TraceLibrary:
        """The trace library (the default study unless one was injected)."""
        if self.library is not None:
            return self.library
        return _default_library(self.study_seed)

    @property
    def server_hosts(self) -> tuple[str, ...]:
        return tuple(f"h{i}" for i in range(self.num_servers))

    @property
    def client_host(self) -> str:
        return "client"

    def configs_for(self, figure: str) -> int:
        """Number of configurations to run for one of the sweep figures."""
        override = getattr(self, f"{figure}_configs")
        if override is not None:
            return override
        # The sweep figures multiply runs by their sweep size; scale down.
        return max(2, self.n_configs // 3)


def make_configuration(
    setup: ExperimentConfig, config_index: int
) -> dict[tuple[str, str], BandwidthTrace]:
    """Network configuration ``config_index``: a trace for every link.

    Traces are drawn uniformly at random (with replacement) from the
    library and rebased to start at the path's local noon, exactly as in
    the paper.  The draw depends only on ``(setup.seed, config_index)``.

    All link indices are drawn in one vectorized call (the PCG64 stream is
    identical to per-link draws) and the segments come from the library's
    per-pair noon-segment cache, so sampling a configuration is a handful
    of dict lookups rather than 36 segment constructions.
    """
    if config_index < 0:
        raise ValueError(f"negative config index {config_index!r}")
    rng = np.random.default_rng((setup.seed, config_index))
    library = setup.trace_library()
    hosts = [*setup.server_hosts, setup.client_host]
    keys: list[tuple[str, str]] = []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            keys.append((a, b) if a < b else (b, a))
    segments = library.sample_noon_segments(rng, len(keys))
    return dict(zip(keys, segments))


@dataclass(frozen=True)
class SampledConfig:
    """One frozen, reusable network configuration.

    The paper's paired comparison evaluates all four algorithms on the
    *same* sampled configuration, so the sweep engine samples each
    configuration exactly once into this artifact and fans out
    ``(config, algorithm)`` pairs against it — the link traces (immutable
    :class:`~repro.traces.trace.BandwidthTrace` objects, prefix sums
    precomputed) are shared read-only by every run built from it.
    """

    config_index: int
    link_traces: dict[tuple[str, str], BandwidthTrace]
    #: Both derived from ``(setup.seed, config_index)`` at sampling time,
    #: so a spec built from the artifact never re-derives seeds.
    workload_seed: int
    control_seed: int


#: Most-recently sampled configurations, keyed by ``(id(setup), index)``.
#: The stored setup object guards against id reuse; the size bound keeps
#: a sweep's working set (the configuration currently being fanned out
#: across algorithms, plus a few neighbours) without pinning whole sweeps
#: in memory.  Per-process, so pool workers each keep their own.
_SAMPLED_MEMO: dict[tuple[int, int], tuple[ExperimentConfig, SampledConfig]] = {}
_SAMPLED_MEMO_MAX = 8


def sample_config(
    setup: ExperimentConfig, config_index: int, *, cache: bool = True
) -> SampledConfig:
    """Sample (or fetch the memoized) configuration ``config_index``.

    Sampling is a pure function of ``(setup, config_index)``, so the
    build-once memo is invisible to results — it only removes the
    redundant resampling the old per-run path performed once per
    algorithm.  ``cache=False`` forces a fresh sample (benchmarks use it
    to measure the build cost itself).
    """
    key = (id(setup), config_index)
    if cache:
        hit = _SAMPLED_MEMO.get(key)
        if hit is not None and hit[0] is setup:
            return hit[1]
    sampled = SampledConfig(
        config_index=config_index,
        link_traces=make_configuration(setup, config_index),
        workload_seed=setup.seed + config_index,
        control_seed=setup.seed + config_index,
    )
    if cache:
        if len(_SAMPLED_MEMO) >= _SAMPLED_MEMO_MAX:
            _SAMPLED_MEMO.pop(next(iter(_SAMPLED_MEMO)))
        _SAMPLED_MEMO[key] = (setup, sampled)
    return sampled


def build_spec_from_config(
    setup: ExperimentConfig,
    sampled: SampledConfig,
    algorithm: Algorithm,
    **overrides,
) -> SimulationSpec:
    """A :class:`SimulationSpec` running ``algorithm`` on a sampled config.

    This is the fan-out half of the build-once pipeline: every algorithm
    (and per-task override set) gets its own spec, but they all reference
    the same frozen :class:`SampledConfig`.
    """
    base = SimulationSpec(
        algorithm=algorithm,
        tree_shape=setup.tree_shape,
        num_servers=setup.num_servers,
        link_traces=sampled.link_traces,
        server_hosts=setup.server_hosts,
        client_host=setup.client_host,
        images_per_server=setup.images_per_server,
        workload_seed=sampled.workload_seed,
        relocation_period=setup.relocation_period,
        local_extra_candidates=setup.local_extra_candidates,
        control_seed=sampled.control_seed,
        faults=setup.fault_plan,
    )
    return replace(base, **overrides) if overrides else base


def build_spec(
    setup: ExperimentConfig,
    config_index: int,
    algorithm: Algorithm,
    **overrides,
) -> SimulationSpec:
    """A full :class:`SimulationSpec` for one (configuration, algorithm).

    ``overrides`` are forwarded to the spec (e.g. ``relocation_period``,
    ``prefetch``, ``barrier_priority``, ``local_extra_candidates``).
    Successive calls for the same ``(setup, config_index)`` reuse the
    build-once :class:`SampledConfig` artifact via :func:`sample_config`.
    """
    sampled = sample_config(setup, config_index)
    return build_spec_from_config(setup, sampled, algorithm, **overrides)
