"""Workload specifications: which queries run, for whom, and when.

A :class:`WorkloadSpec` describes a *fleet* of combination queries over
one shared wide-area network: a client population, each client's query
mix (weighted :class:`QueryClass` entries — possibly different placement
algorithms, tree sizes, or spec overrides per class), and an arrival
discipline (:mod:`repro.workload.arrivals`).  Everything derives from
the workload ``seed``, so a spec is a complete, reproducible experiment.

The per-query :class:`~repro.engine.config.SimulationSpec` built by
:meth:`WorkloadSpec.query_spec` reuses the single-query machinery
unchanged; :meth:`WorkloadSpec.from_simulation_spec` wraps an existing
spec as a one-client, one-query workload whose execution is
bit-identical to :func:`repro.engine.simulation.run_simulation` (pinned
by the identity test).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Mapping, Optional

import numpy as np

from repro.engine.config import (
    STRUCTURAL_FIELDS,
    Algorithm,
    SimulationSpec,
    Substrate,
    check_per_run,
    default_server_hosts,
    substrate_of,
)
from repro.experiments.config import ExperimentConfig, make_configuration
from repro.fleet import FleetPolicy
from repro.traces.study import TraceLibrary
from repro.traces.trace import BandwidthTrace
from repro.workload.arrivals import Arrivals, ClosedLoop
from repro.workload.overload import OverloadPolicy

def query_id_for(client_index: int, ordinal: int) -> str:
    """The canonical query id: ``"c{client}:{ordinal}"``."""
    return f"c{client_index}:{ordinal}"


@dataclass(frozen=True)
class QueryClass:
    """One kind of query in the mix.

    ``overrides`` are extra :class:`SimulationSpec` fields applied to
    every query of this class (a mapping is accepted and normalized to a
    sorted tuple so the class stays hashable and picklable).
    """

    name: str
    algorithm: Algorithm
    #: Relative probability of a client's query being of this class.
    weight: float = 1.0
    #: Servers this class's tree combines; ``None`` uses the workload's
    #: full pool, a smaller count draws a per-query subset of it.
    num_servers: Optional[int] = None
    #: ``None`` inherits the workload's ``images_per_server``.
    images_per_server: Optional[int] = None
    #: Abort queries of this class that run longer than this many
    #: seconds from arrival (queueing included); ``None`` never aborts.
    #: Engages the overload controller (see
    #: :mod:`repro.workload.overload`).
    deadline: Optional[float] = None
    #: Latency SLO target in seconds: completed queries at or under it
    #: count toward the class's ``slo_attainment`` in the summary's
    #: resilience block.  Pure accounting — never changes execution.
    slo_target: Optional[float] = None
    overrides: Any = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithm", Algorithm(self.algorithm))
        if isinstance(self.overrides, Mapping):
            object.__setattr__(
                self, "overrides", tuple(sorted(self.overrides.items()))
            )
        else:
            object.__setattr__(self, "overrides", tuple(self.overrides))
        if not self.weight > 0:
            raise ValueError(f"class weight must be positive, got {self.weight!r}")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError(f"deadline must be positive, got {self.deadline!r}")
        if self.slo_target is not None and self.slo_target <= 0:
            raise ValueError(
                f"slo_target must be positive, got {self.slo_target!r}"
            )
        check_per_run(name for name, _ in self.overrides)


@dataclass(frozen=True)
class WorkloadSpec(Substrate):
    """A concurrent multi-query workload over one shared network.

    The shared network's knobs (hosts, links, NICs, disks, monitoring,
    the simulated-time wall) are the inherited :class:`Substrate` fields.
    """

    #: The query mix; a single entry means every query is of that class.
    classes: tuple[QueryClass, ...]
    num_clients: int = 1
    queries_per_client: int = 1
    arrivals: Arrivals = field(default_factory=ClosedLoop)
    #: Master seed for arrivals, mix draws and per-query seeds.
    seed: int = 0

    # ---- shared network ----------------------------------------------
    #: Network configuration draw, exactly as in the experiments module:
    #: configuration ``config_index`` of a default-seed
    #: ``ExperimentConfig`` over this spec's hosts and ``library``
    #: (``None``: the default study; both ignored when ``link_traces``
    #: is given).
    config_index: int = 0
    library: Optional[TraceLibrary] = None
    #: Explicit traces per canonical host pair; bypasses the study draw.
    link_traces: Optional[Mapping[tuple[str, str], BandwidthTrace]] = None
    #: Explicit server-host names (requires ``link_traces``); ``None``
    #: uses the conventional ``h0..h{num_servers-1}``.
    server_hosts_override: Optional[tuple[str, ...]] = None
    #: Admission/retry/breaker limits (:class:`~repro.workload.
    #: overload.OverloadPolicy`); ``None`` (or a null policy with no
    #: class deadlines) admits everything and is bit-identical to the
    #: pre-overload engine.
    overload: Optional["OverloadPolicy"] = None
    #: Fleet-aware joint planning (:class:`~repro.fleet.FleetPolicy`);
    #: ``None`` keeps every query planning blindly against raw monitor
    #: estimates, bit-identical to the pre-fleet engine.
    fleet: Optional[FleetPolicy] = None
    #: Restrict the schedule to these client indices (one shard of the
    #: full ``num_clients`` population).  Seeds, query ids and arrival
    #: streams stay those of the full run; ``None`` schedules everyone.
    client_subset: Optional[tuple[int, ...]] = None
    #: Largest full population (``num_clients * queries_per_client``)
    #: whose metrics sink keeps per-query records (exact latency blocks,
    #: per-client and per-query detail).
    exact_metrics_threshold: int = 1000

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.classes:
            raise ValueError("a workload needs at least one query class")
        object.__setattr__(self, "classes", tuple(self.classes))
        names = [c.name for c in self.classes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate query class names in {names!r}")
        if self.num_clients < 0:
            raise ValueError("num_clients must be non-negative")
        if self.queries_per_client < 1:
            raise ValueError("queries_per_client must be >= 1")
        for qclass in self.classes:
            if qclass.num_servers is not None and not (
                2 <= qclass.num_servers <= self.num_servers
            ):
                raise ValueError(
                    f"class {qclass.name!r} wants {qclass.num_servers} servers; "
                    f"the workload pool has {self.num_servers}"
                )
        if self.server_hosts_override is not None and self.link_traces is None:
            raise ValueError("server_hosts_override requires explicit link_traces")
        if self.client_subset is not None:
            subset = tuple(sorted({int(i) for i in self.client_subset}))
            for index in subset:
                if not (0 <= index < self.num_clients):
                    raise ValueError(
                        f"client_subset index {index} outside the "
                        f"0..{self.num_clients - 1} population"
                    )
            object.__setattr__(self, "client_subset", subset)
        if self.exact_metrics_threshold < 0:
            raise ValueError("exact_metrics_threshold must be >= 0")
        if self.fleet is not None and not isinstance(self.fleet, FleetPolicy):
            raise ValueError(
                f"fleet must be a FleetPolicy or None, got {self.fleet!r}"
            )

    # ---- derived ------------------------------------------------------
    @property
    def server_hosts(self) -> tuple[str, ...]:
        if self.server_hosts_override is not None:
            return self.server_hosts_override
        return default_server_hosts(self.num_servers)

    @property
    def client_indices(self) -> tuple[int, ...]:
        """The client indices this spec actually schedules."""
        if self.client_subset is not None:
            return self.client_subset
        return tuple(range(self.num_clients))

    @property
    def total_queries(self) -> int:
        return len(self.client_indices) * self.queries_per_client

    @property
    def overload_engaged(self) -> bool:
        """True when the engine must route arrivals through the
        :class:`~repro.workload.overload.OverloadController` (a non-null
        policy, or any class with a deadline)."""
        if self.overload is not None and not self.overload.is_null():
            return True
        return any(qclass.deadline is not None for qclass in self.classes)

    @property
    def overload_policy(self) -> OverloadPolicy:
        """The effective policy (a null one when nothing is set)."""
        return self.overload if self.overload is not None else OverloadPolicy()

    @property
    def fleet_engaged(self) -> bool:
        """True when the engine must route planning through a
        :class:`~repro.fleet.FleetCoordinator`."""
        return self.fleet is not None

    def build_metrics(self):
        """The :class:`~repro.workload.sink.FleetMetrics` for this fleet.

        Records are kept while the *full* population is within
        ``exact_metrics_threshold``, so the sinks of every shard built
        from one spec agree and are mutually mergeable.
        """
        # Imported lazily: repro.workload.sink imports this module.
        from repro.workload.sink import FleetMetrics

        population = self.num_clients * self.queries_per_client
        return FleetMetrics(
            self.num_clients,
            keep_records=population <= self.exact_metrics_threshold,
        )

    def resolve_links(self) -> Mapping[tuple[str, str], BandwidthTrace]:
        """The shared network's trace per canonical host pair."""
        if self.link_traces is not None:
            return self.link_traces
        cfg = ExperimentConfig(
            num_servers=self.num_servers,
            client_host=self.client_host,
            library=self.library,
        )
        return make_configuration(cfg, self.config_index)

    # ---- the schedule -------------------------------------------------
    def mix_for(self, client_index: int) -> list[QueryClass]:
        """All ``queries_per_client`` class draws for one client.

        With a single class no randomness is consumed; otherwise each
        client draws its sequence from its own ``(seed, client)`` stream,
        weighted by class weights.
        """
        if len(self.classes) == 1:
            return [self.classes[0]] * self.queries_per_client
        rng = np.random.default_rng((self.seed, 6211, client_index))
        weights = np.array([c.weight for c in self.classes], dtype=float)
        weights /= weights.sum()
        picks = rng.choice(
            len(self.classes), size=self.queries_per_client, p=weights
        )
        return [self.classes[int(i)] for i in picks]

    def query_servers(
        self, qclass: QueryClass, client_index: int, ordinal: int
    ) -> tuple[str, ...]:
        """The server hosts one query's tree combines."""
        pool = self.server_hosts
        count = qclass.num_servers or self.num_servers
        if count == len(pool):
            return pool
        rng = np.random.default_rng((self.seed, 5077, client_index, ordinal))
        picks = rng.choice(len(pool), size=count, replace=False)
        return tuple(pool[i] for i in sorted(picks))

    def query_spec(
        self,
        qclass: QueryClass,
        client_index: int,
        ordinal: int,
        links: Optional[Mapping[tuple[str, str], BandwidthTrace]] = None,
    ) -> SimulationSpec:
        """The full single-query spec for one (client, ordinal) slot.

        Per-query seeds derive from the workload seed and the slot, so
        two queries of the same class still draw distinct workloads;
        class ``overrides`` (e.g. a pinned ``workload_seed``) win.
        ``links`` is the run's :meth:`resolve_links` draw, when the
        caller already has it; every query of a run shares it.
        """
        base_seed = self.seed + 101 * client_index + ordinal
        kwargs = substrate_of(self)
        kwargs.update(
            algorithm=qclass.algorithm,
            num_servers=qclass.num_servers or self.num_servers,
            link_traces=self.resolve_links() if links is None else links,
            server_hosts=self.query_servers(qclass, client_index, ordinal),
            images_per_server=qclass.images_per_server or self.images_per_server,
            workload_seed=base_seed,
            control_seed=base_seed,
        )
        kwargs.update(qclass.overrides)
        return SimulationSpec(**kwargs)

    # ---- adapters -----------------------------------------------------
    @classmethod
    def from_simulation_spec(cls, spec: SimulationSpec) -> "WorkloadSpec":
        """Wrap a single-query spec as a one-client, one-query workload.

        Running the result through the workload engine is bit-identical
        to ``run_simulation(spec)`` (metrics, and trace events modulo the
        ``query_id`` tag) — the identity test pins this.
        """
        overrides = {
            f.name: getattr(spec, f.name)
            for f in fields(SimulationSpec)
            if f.name not in STRUCTURAL_FIELDS
        }
        qclass = QueryClass(
            name=spec.algorithm.value,
            algorithm=spec.algorithm,
            overrides=overrides,
        )
        return cls(
            classes=(qclass,),
            num_clients=1,
            queries_per_client=1,
            arrivals=ClosedLoop(think_time=0.0),
            seed=spec.workload_seed,
            link_traces=spec.link_traces,
            server_hosts_override=tuple(spec.server_hosts),
            **substrate_of(spec),
        )
