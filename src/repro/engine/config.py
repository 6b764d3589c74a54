"""Simulation configuration."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from typing import Any, Iterable, Mapping, Optional

from repro.app.composition import CompositionSpec
from repro.faults.plan import FaultPlan
from repro.monitor.system import MonitoringConfig
from repro.traces.trace import BandwidthTrace


class Algorithm(str, enum.Enum):
    """The four placement policies evaluated by the paper."""

    DOWNLOAD_ALL = "download-all"
    ONE_SHOT = "one-shot"
    GLOBAL = "global"
    LOCAL = "local"


@dataclass(frozen=True, kw_only=True)
class Substrate:
    """The shared network a run executes on, declared once (§4).

    :class:`SimulationSpec` (one query),
    :class:`~repro.workload.spec.WorkloadSpec` (a fleet of queries) and
    :class:`~repro.experiments.config.ExperimentConfig` (a family of
    runs) all inherit these knobs;
    :func:`~repro.engine.simulation.build_substrate` builds the hosts,
    links and monitoring from them.  A subclass supplies
    ``server_hosts``.  A variant substrate is a new value
    (``dataclasses.replace``), never a per-run override.
    """

    num_servers: int = 8
    #: Tree shape: "binary" (complete binary tree) or "left-deep".
    tree_shape: str = "binary"
    images_per_server: int = 180
    client_host: str = "client"
    #: Per-message startup cost, seconds (§4).
    startup_cost: float = 0.050
    #: Concurrent transfers per host (paper assumption 2: one; the paper
    #: notes the assumption can be relaxed — this knob does).
    nic_capacity: int = 1
    #: Server disk bandwidth, bytes/second (§4).
    disk_rate: float = 3 * 1024 * 1024
    monitoring: MonitoringConfig = field(default_factory=MonitoringConfig)
    #: Hard wall on simulated time (guards against pathological configs).
    max_sim_time: float = 10 * 86400.0
    #: Optional fault-injection plan; ``None`` (or an empty plan) keeps
    #: every fault/retry code path dormant — the run is bit-identical to
    #: one built before faults existed.
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if self.tree_shape not in ("binary", "left-deep"):
            raise ValueError(f"unknown tree shape {self.tree_shape!r}")
        if self.num_servers < 2:
            raise ValueError(f"need >=2 servers, got {self.num_servers!r}")
        if self.images_per_server < 1:
            raise ValueError("need at least one image per server")
        if self.nic_capacity < 1:
            raise ValueError("nic_capacity must be >= 1")

    @property
    def all_hosts(self) -> tuple[str, ...]:
        """Server hosts plus the client host."""
        return (*self.server_hosts, self.client_host)


#: The substrate's knob names, in declaration order.
_SUBSTRATE_FIELDS = tuple(f.name for f in fields(Substrate))

#: Fields a per-run override may not set: the substrate a run executes
#: on, plus what a spec assembler derives (algorithm, traces, hosts).
STRUCTURAL_FIELDS = frozenset(
    _SUBSTRATE_FIELDS + ("algorithm", "link_traces", "server_hosts")
)


def substrate_of(spec: Substrate) -> dict[str, Any]:
    """The :class:`Substrate` knobs of ``spec``, as keyword arguments."""
    return {name: getattr(spec, name) for name in _SUBSTRATE_FIELDS}


def default_server_hosts(num_servers: int) -> tuple[str, ...]:
    """The conventional server host names ``h0..h{num_servers-1}``."""
    return tuple(f"h{i}" for i in range(num_servers))


def check_per_run(overrides: Iterable[str]) -> None:
    """Reject override names that would change the run's substrate."""
    bad = STRUCTURAL_FIELDS.intersection(overrides)
    if bad:
        raise ValueError(
            f"structural fields {sorted(bad)} cannot be per-run overrides; "
            "set them on the config or spec that declares them"
        )


@dataclass(frozen=True)
class SimulationSpec(Substrate):
    """Everything needed to run one simulation.

    ``link_traces`` maps canonical host pairs (sorted 2-tuples of host
    names) to bandwidth traces; it must cover the complete graph over
    ``server_hosts + [client_host]``.
    """

    algorithm: Algorithm
    link_traces: Mapping[tuple[str, str], BandwidthTrace]
    #: Host names; server ``s{i}`` is pinned to ``server_hosts[i]``.
    server_hosts: tuple[str, ...]

    mean_image_size: float = 128 * 1024.0
    image_rel_std: float = 0.25
    workload_seed: int = 0

    #: Dataset replicas per server (paper assumption 3: data is not
    #: replicated, i.e. 1).  With R > 1 each server's image sequence also
    #: lives on R-1 other hosts, and the one-shot/global planners may
    #: serve it from any replica (a server "move" is then just a switch of
    #: serving replica — the data is already there).  The local algorithm
    #: keeps servers static, as in the paper.
    replication_factor: int = 1
    compose: CompositionSpec = field(default_factory=CompositionSpec)

    #: On-line algorithms: seconds between relocation decisions (§4 uses
    #: 10 minutes for the main experiments; Figure 9 sweeps it).
    relocation_period: float = 600.0
    #: Local algorithm: number of extra random candidate sites (Figure 7).
    local_extra_candidates: int = 0
    #: Seed for the local algorithm's random candidate choices.
    control_seed: int = 0

    #: Operators demand the next partition right after dispatching
    #: (pipelining); ablation switch.
    prefetch: bool = True
    #: Barrier messages overtake queued data (paper behaviour); ablation
    #: switch sets them to bulk-data priority instead.
    barrier_priority: bool = True
    #: Global algorithm: refresh every link the search consults *before*
    #: planning (expensive; ablation only).  The default flow plans on
    #: cached estimates and then validates just the chosen placement's
    #: links with probes before committing — an order of magnitude less
    #: probe traffic for equal or better plan quality.
    probe_before_planning: bool = False
    #: Ablation: planners see true instantaneous link bandwidths instead
    #: of monitoring estimates (isolates algorithm quality from
    #: measurement error; no probe traffic is generated).
    oracle_monitoring: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.server_hosts) != self.num_servers:
            raise ValueError(
                f"{self.num_servers} servers but {len(self.server_hosts)} hosts"
            )
        if self.client_host in self.server_hosts:
            raise ValueError("client host must differ from server hosts")
        if self.relocation_period <= 0:
            raise ValueError("relocation_period must be positive")
        if self.local_extra_candidates < 0:
            raise ValueError("local_extra_candidates must be >= 0")
        if not 1 <= self.replication_factor <= self.num_servers + 1:
            raise ValueError(
                "replication_factor must be between 1 and the host count"
            )
        self._validate_links()

    def _validate_links(self) -> None:
        hosts = self.all_hosts
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                key = (a, b) if a < b else (b, a)
                if key not in self.link_traces:
                    raise ValueError(f"missing link trace for {key!r}")
