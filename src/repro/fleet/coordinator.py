"""The fleet coordinator: shared state for joint placement decisions.

One :class:`FleetCoordinator` serves a whole workload run.  It tracks
each active query's current placement (through the query's
:class:`~repro.engine.runtime.Runtime`), derives per-link *claims* —
how many queries currently move data over each canonical host pair —
and arbitrates relocation proposals through seeded, deterministic
token buckets so concurrent planners stop thrashing the same hot
links.

Determinism rules
-----------------

* The coordinator never reads wall clocks or global RNG state.  Time
  comes from an injected ``clock`` (the workload engine passes
  ``lambda: env.now``); tie-breaks hash ``(seed, query_id)`` through
  CRC32, which is stable across processes and Python hash seeds.
* Claims are recomputed from the registered runtimes' live placements
  on demand, iterating queries in sorted ``query_id`` order, so the
  residual view is a pure function of simulation state.  Each query's
  link set, and each summed claim map, is cached until the network's
  actor-registry epoch moves or a query launches or completes.
* Token buckets refill lazily (``tokens(t) = min(capacity, tokens +
  (t - t_last) / refill_seconds)``); no timers, no background
  processes, nothing the DES calendar could reorder.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.dataflow.cost import FrozenView
from repro.dataflow.placement import Placement
from repro.dataflow.tree import CombinationTree
from repro.obs import events as ev
from repro.obs.tracer import NULL_TRACER, record_event

#: Tokens the fair mode reserves for the worst-urgency query: it may dip
#: this far below one token, every other query must leave it untouched.
FAIRNESS_RESERVE = 0.5


def canonical_link(a: str, b: str) -> "tuple[str, str]":
    """The order-independent key for a host pair."""
    return (a, b) if a < b else (b, a)


def link_key(a: str, b: str) -> str:
    """The JSON-friendly ``"a|b"`` form of a canonical link."""
    x, y = canonical_link(a, b)
    return f"{x}|{y}"


def placement_links(
    tree: CombinationTree, placement: Placement
) -> "frozenset[tuple[str, str]]":
    """The canonical cross-host links a placement moves data over."""
    links = set()
    for node in tree.nodes():
        parent = node.parent
        if parent is None:
            continue
        src = placement.host_of(node.node_id)
        dst = placement.host_of(parent)
        if src != dst:
            links.add(canonical_link(src, dst))
    return frozenset(links)


def runtime_links(runtime) -> "frozenset[tuple[str, str]]":
    """A running query's cross-host links from network ground truth.

    Reads actual actor locations rather than the runtime's
    ``current_placement`` snapshot, which the local algorithm never
    updates (its moves go operator by operator, not through barriers).
    """
    links = set()
    for node in runtime.tree.nodes():
        parent = node.parent
        if parent is None:
            continue
        src = runtime.host_of(node.node_id)
        dst = runtime.host_of(parent)
        if src != dst:
            links.add(canonical_link(src, dst))
    return frozenset(links)


@dataclass(frozen=True)
class FleetPolicy:
    """Configuration of the fleet coordination layer.

    ``mode`` selects the planner family: ``"coordinated"`` arbitrates
    relocations through the token buckets alone; ``"fair"`` additionally
    biases grants toward the query with the worst latency-to-SLO ratio
    (the others must leave ``FAIRNESS_RESERVE`` tokens in every bucket
    they touch, while the worst-off query may dip into the reserve).
    """

    mode: str = "coordinated"
    #: Token-bucket capacity per link/host (relocations it can absorb
    #: back to back before refill gates further churn).
    link_tokens: float = 2.0
    #: Seconds to regenerate one token.
    token_refill_seconds: float = 120.0
    #: Seed for deterministic tie-breaking between equal-urgency queries.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("coordinated", "fair"):
            raise ValueError(
                f"fleet mode must be 'coordinated' or 'fair', got {self.mode!r}"
            )
        if self.link_tokens <= 0:
            raise ValueError("link_tokens must be positive")
        if self.token_refill_seconds <= 0:
            raise ValueError("token_refill_seconds must be positive")

    @property
    def fair(self) -> bool:
        return self.mode == "fair"

    @property
    def planner_name(self) -> str:
        return f"fleet-{self.mode}"


class _ActiveQuery:
    """Registration record for one in-flight query."""

    __slots__ = ("query_id", "runtime", "class_name", "slo", "issued_at",
                 "tracer", "_links", "_links_epoch")

    def __init__(self, query_id, runtime, class_name, slo, issued_at, tracer):
        self.query_id = query_id
        self.runtime = runtime
        self.class_name = class_name
        self.slo = slo
        self.issued_at = issued_at
        self.tracer = tracer
        self._links: "frozenset[tuple[str, str]]" = frozenset()
        self._links_epoch: Optional[int] = None

    def links(self) -> "frozenset[tuple[str, str]]":
        """:func:`runtime_links`, cached until an actor moves.

        The network's actor-registry epoch moves whenever any actor
        changes host or is unregistered; a runtime without a network (a
        test double) is re-read every time.
        """
        network = getattr(self.runtime, "network", None)
        epoch = None if network is None else network.actor_epoch
        if epoch is None or epoch != self._links_epoch:
            self._links = runtime_links(self.runtime)
            self._links_epoch = epoch
        return self._links


def _residual_view(
    raw: FrozenView, claims: "dict[tuple[str, str], int]"
) -> FrozenView:
    """``raw`` with each claimed link between two of its hosts divided
    by ``1 + claims``, in both directions."""
    index = raw.index
    source = raw.rows
    rows = None
    for (a, b), others in claims.items():
        i = index.get(a)
        j = index.get(b)
        if i is None or j is None:
            continue
        if rows is None:
            rows = [row[:] for row in source]
        rows[i][j] = source[i][j] / (1 + others)
        rows[j][i] = source[j][i] / (1 + others)
    return raw if rows is None else FrozenView(raw.hosts, index, rows)


def _shared_network(active: "dict[str, _ActiveQuery]"):
    """The one network every active query runs on, or None.

    None also when a runtime has no network (a test double, whose links
    are re-read on every call): claims are then never cached.
    """
    network = None
    for record in active.values():
        mine = getattr(record.runtime, "network", None)
        if mine is None or (network is not None and mine is not network):
            return None
        network = mine
    return network


class FleetCoordinator:
    """Tracks the active query set and arbitrates relocation budgets.

    The coordinator is passive: planners and the workload engine call
    into it; it never schedules events of its own.  ``sink`` is the
    workload's metrics sink, which counts every ``fleet.*`` event through
    its ``fleet_event`` method (``None`` counts nothing); ``clock``
    supplies simulation time for token refill.
    """

    def __init__(
        self,
        policy: FleetPolicy,
        sink: Any = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.policy = policy
        self.sink = sink
        self.clock = clock or (lambda: 0.0)
        self._active: dict[str, _ActiveQuery] = {}
        #: bucket key -> (tokens, last refill time)
        self._buckets: dict[str, tuple[float, float]] = {}
        #: query_id -> (moveset signature, granted, ruled at) of the last
        #: ruling, so a controller's dry run and final plan of the
        #: identical moveset charge the buckets once.
        self._last_ruling: dict[str, tuple[tuple, bool, float]] = {}
        #: Summed claim maps per excluded query, valid while the active
        #: set is unchanged and ``_claims_network``'s actor epoch equals
        #: ``_claims_epoch``.  A cached map is never mutated.
        self._claims_memo: dict[Optional[str], dict[tuple[str, str], int]] = {}
        self._claims_network = None
        self._claims_epoch: Optional[int] = None

    def wrapper_for(self, query_id: str):
        """A ``(planner, stage) -> FleetPlanner`` hook for ``build_query``."""
        def wrap(planner, stage):
            from repro.fleet.planner import FleetPlanner

            return FleetPlanner(planner, self, query_id, stage=stage)

        return wrap

    # -- registration -------------------------------------------------------
    def query_launched(
        self,
        query_id: str,
        runtime,
        class_name: Optional[str] = None,
        slo: Optional[float] = None,
    ) -> None:
        """Register a launched query and claim its initial links."""
        now = self.clock()
        record = _ActiveQuery(
            query_id, runtime, class_name, slo, now, runtime.tracer
        )
        self._active[query_id] = record
        self._active_changed()
        record_event(
            record.tracer,
            self.sink,
            ev.FLEET_CLAIM,
            now,
            {"query_class": class_name, "links": len(record.links())},
        )

    def query_done(self, query_id: str) -> None:
        """Release a finished query's claims."""
        self._active.pop(query_id, None)
        self._last_ruling.pop(query_id, None)
        self._active_changed()

    def _active_changed(self) -> None:
        self._claims_memo = {}
        self._claims_network = _shared_network(self._active)

    # -- claims & residual bandwidth ---------------------------------------
    def _claims(
        self, exclude: Optional[str] = None
    ) -> "dict[tuple[str, str], int]":
        """Active queries per canonical link, skipping query ``exclude``.

        The map is a function of the active set and the actor epoch, so
        it is summed once per ``exclude`` between changes of either.
        """
        network = self._claims_network
        if network is None:
            return self._sum_claims(exclude)
        if network.actor_epoch != self._claims_epoch:
            self._claims_memo = {}
            self._claims_epoch = network.actor_epoch
        claims = self._claims_memo.get(exclude)
        if claims is None:
            claims = self._claims_memo[exclude] = self._sum_claims(exclude)
        return claims

    def _sum_claims(
        self, exclude: Optional[str]
    ) -> "dict[tuple[str, str], int]":
        claims: dict[tuple[str, str], int] = {}
        for query_id in sorted(self._active):
            if query_id == exclude:
                continue
            for link in self._active[query_id].links():
                claims[link] = claims.get(link, 0) + 1
        return claims

    def residual_estimator(self, query_id: str, raw) -> Callable[[str, str], float]:
        """Wrap a bandwidth estimator with the contention-adjusted view.

        A link claimed by ``n`` *other* active queries reports
        ``raw / (1 + n)``: the fair share the planner's transfers would
        actually get once everyone's streams contend.  The claim map is
        snapshotted once per wrap (one planning run), keeping the search
        internally consistent; a query's own links never discount its
        own view.

        Over a :class:`~repro.dataflow.cost.FrozenView` the residual is
        itself a view: it shares ``raw``'s hosts and index, copies the
        rows and divides only the claimed links (it is ``raw`` itself
        when no claimed link joins two of its hosts).  Any other
        estimator, such as the local rules' live one, is wrapped in a
        closure that divides on every read.
        """
        claims = self._claims(exclude=query_id)
        if isinstance(raw, FrozenView):
            return _residual_view(raw, claims)

        def estimate(a: str, b: str) -> float:
            bandwidth = raw(a, b)
            if a == b:
                return bandwidth
            others = claims.get(canonical_link(a, b), 0)
            return bandwidth / (1 + others) if others else bandwidth

        return estimate

    # -- the relocation-budget arbiter --------------------------------------
    def _bucket_tokens(self, key: str, now: float) -> float:
        state = self._buckets.get(key)
        if state is None:
            return self.policy.link_tokens
        tokens, last = state
        refill = (now - last) / self.policy.token_refill_seconds
        return min(self.policy.link_tokens, tokens + max(refill, 0.0))

    def _charge(self, key: str, now: float) -> None:
        self._buckets[key] = (self._bucket_tokens(key, now) - 1.0, now)

    def _tie(self, query_id: str) -> int:
        return zlib.crc32(f"{self.policy.seed}:{query_id}".encode())

    def _urgency(self, record: _ActiveQuery, now: float) -> float:
        elapsed = max(now - record.issued_at, 0.0)
        if record.slo:
            return elapsed / record.slo
        return elapsed

    def _is_worst_off(self, query_id: str, now: float) -> bool:
        """Does this query have the worst latency-to-SLO ratio right now?"""
        if query_id not in self._active:
            return False
        worst = max(
            self._active,
            key=lambda qid: (
                self._urgency(self._active[qid], now),
                self._tie(qid),
            ),
        )
        return worst == query_id

    def _need(self, query_id: str, now: float) -> float:
        """Tokens each bucket a move of ``query_id`` touches must hold."""
        if not self.policy.fair:
            return 1.0
        if self._is_worst_off(query_id, now):
            return 1.0 - FAIRNESS_RESERVE
        return 1.0 + FAIRNESS_RESERVE

    @staticmethod
    def moveset(current: Placement, proposed: Placement) -> "tuple[tuple[str, str, str], ...]":
        """The ``(node, old_host, new_host)`` moves a proposal implies."""
        return tuple(proposed.moves_from(current))

    def arbitrate(
        self,
        query_id: str,
        current: Placement,
        proposed: Placement,
        now: float,
        tracer=None,
    ) -> bool:
        """Grant or deny a proposed placement change.

        Each move charges one token from the state-transfer link's
        bucket and the destination host's bucket.  In fair mode the
        worst-urgency query may dip ``FAIRNESS_RESERVE`` below one
        token; every other query must leave the reserve untouched.
        Identical back-to-back proposals by the same query (the global
        controller's dry run then final plan) reuse the first ruling
        without charging twice.
        """
        moves = self.moveset(current, proposed)
        if not moves:
            return True
        signature = moves
        last = self._last_ruling.get(query_id)
        if (
            last is not None
            and last[0] == signature
            and now - last[2] < self.policy.token_refill_seconds
        ):
            # Same proposal within one refill window (the dry run and
            # final plan of one controller round): one ruling, one charge.
            return last[1]

        record = self._active.get(query_id)
        class_name = record.class_name if record else None
        if tracer is None:
            tracer = record.tracer if record else NULL_TRACER

        keys = sorted(
            {link_key(old, new) for _, old, new in moves}
            | {new for _, _, new in moves}
        )
        urgency = self._urgency(record, now) if record else 0.0
        need = self._need(query_id, now)

        granted = self._rule(
            keys, len(moves), need, urgency, now, tracer, class_name
        )
        self._last_ruling[query_id] = (signature, granted, now)
        if granted:
            self._note_rebalance(record, current, proposed, now, tracer)
        return granted

    def _rule(
        self,
        keys: "list[str]",
        n_moves: int,
        need: float,
        urgency: float,
        now: float,
        tracer,
        class_name: Optional[str],
    ) -> bool:
        """Apply the token threshold to a key set; charge and emit."""
        bottleneck = None
        for key in keys:
            if self._bucket_tokens(key, now) < need:
                bottleneck = key
                break
        granted = bottleneck is None
        if granted:
            for key in keys:
                self._charge(key, now)
            record_event(
                tracer,
                self.sink,
                ev.FLEET_GRANT,
                now,
                {
                    "query_class": class_name,
                    "moves": n_moves,
                    "links": len(keys),
                    "urgency": urgency,
                },
            )
        else:
            record_event(
                tracer,
                self.sink,
                ev.FLEET_DENY,
                now,
                {
                    "query_class": class_name,
                    "moves": n_moves,
                    "bottleneck": bottleneck,
                    "urgency": urgency,
                },
            )
        return granted

    def arbitrate_operator_move(
        self, query_id: str, old_host: str, new_host: str
    ) -> bool:
        """Single-operator arbitration for the local algorithm's decisions.

        The local rule fires per operator per epoch with no placement
        object in hand, so this path charges the state-transfer link and
        destination host directly.  Denies are free (the operator just
        stays), so repeated denied epochs never drain the buckets.
        """
        if old_host == new_host:
            return True
        now = self.clock()
        record = self._active.get(query_id)
        class_name = record.class_name if record else None
        tracer = record.tracer if record else NULL_TRACER
        keys = sorted({link_key(old_host, new_host), new_host})
        urgency = self._urgency(record, now) if record else 0.0
        need = self._need(query_id, now)
        return self._rule(keys, 1, need, urgency, now, tracer, class_name)

    def _note_rebalance(
        self, record, current: Placement, proposed: Placement, now: float, tracer
    ) -> None:
        if record is None:
            return
        before = placement_links(record.runtime.tree, current)
        after = placement_links(record.runtime.tree, proposed)
        if before == after:
            return
        record_event(
            tracer,
            self.sink,
            ev.FLEET_REBALANCE,
            now,
            {
                "query_class": record.class_name,
                "links_before": len(before),
                "links_after": len(after),
            },
        )
