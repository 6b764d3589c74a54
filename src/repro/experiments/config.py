"""Experiment configuration generation (paper §4).

"We generated the network configurations by different assignments of the
Internet bandwidth traces to the links in a complete graph of nine nodes
(eight servers and one client).  The assignments were generated using a
uniform random number generator."
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.engine.config import (
    Algorithm,
    SimulationSpec,
    Substrate,
    check_per_run,
    default_server_hosts,
    substrate_of,
)
from repro.traces.study import InternetStudy, TraceLibrary
from repro.traces.trace import BandwidthTrace


#: Seed of the default synthetic Internet study (the trace library).
#: Another study is used by injecting it as ``library=``.
STUDY_SEED = 1998


@lru_cache(maxsize=1)
def _default_library() -> TraceLibrary:
    """The default (cached) synthetic Internet study."""
    return InternetStudy(seed=STUDY_SEED).run()


@dataclass(frozen=True)
class ExperimentConfig(Substrate):
    """One composable config for a family of experiments *and* reporting.

    The substrate every run executes on is the inherited
    :class:`~repro.engine.config.Substrate` (hosts, tree, images, NICs,
    disks, monitoring, the fault plan); the fields below add the
    configuration draw and the report scale.  A whole study is one
    frozen value that can be ``dataclasses.replace``-d (a substrate
    variant is ``replace(setup, nic_capacity=2)``) and pickled to sweep
    workers.
    """

    # ---- workload ----------------------------------------------------
    #: Master seed: configuration ``i`` derives all its randomness from
    #: ``(seed, i)``, so runs are reproducible and configurations are
    #: identical across the algorithms being compared.
    seed: int = 1998
    relocation_period: float = 600.0
    library: Optional[TraceLibrary] = None

    # ---- report scale ------------------------------------------------
    n_configs: int = 30
    #: Parallel sweep workers (None: honour ``REPRO_WORKERS``, else serial).
    workers: Optional[int] = None

    def trace_library(self) -> TraceLibrary:
        """The trace library (the default study unless one was injected)."""
        if self.library is not None:
            return self.library
        return _default_library()

    @property
    def server_hosts(self) -> tuple[str, ...]:
        return default_server_hosts(self.num_servers)

    @property
    def sweep_configs(self) -> int:
        """Configurations each sweep figure (7-10) runs.

        The sweep figures multiply runs by their sweep size, so they run
        a third of ``n_configs`` (at least two).
        """
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
    hosts = setup.all_hosts
    keys: list[tuple[str, str]] = []
    for i, a in enumerate(hosts):
        for b in hosts[i + 1 :]:
            keys.append((a, b) if a < b else (b, a))
    segments = library.sample_noon_segments(rng, len(keys))
    return dict(zip(keys, segments))


# Kept as build_spec's draw: the benchmark's seam table wraps this name.
sample_config = make_configuration


def build_spec(
    setup: ExperimentConfig,
    config_index: int,
    algorithm: Algorithm,
    **overrides,
) -> SimulationSpec:
    """A full :class:`SimulationSpec` for one (configuration, algorithm).

    ``overrides`` are per-run spec fields (e.g. ``relocation_period``,
    ``prefetch``, ``barrier_priority``, ``local_extra_candidates``, the
    seeds); a :class:`~repro.engine.config.Substrate` field raises
    ``ValueError`` — vary it with ``replace(setup, ...)`` instead.  The
    configuration is drawn from ``(setup.seed, config_index)`` on every
    call, so every algorithm compared on one index sees the same links.
    """
    check_per_run(overrides)
    seed = setup.seed + config_index
    kwargs = substrate_of(setup)
    kwargs.update(
        algorithm=algorithm,
        link_traces=sample_config(setup, config_index),
        server_hosts=setup.server_hosts,
        workload_seed=seed,
        relocation_period=setup.relocation_period,
        control_seed=seed,
    )
    kwargs.update(overrides)
    return SimulationSpec(**kwargs)
