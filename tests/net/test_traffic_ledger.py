"""The traffic ledger: one counter row per query, each event counted once.

``Network.query_stats`` holds one ``RunMetrics`` row per query tag, with
``None`` for untagged traffic; the monitor counts into the same rows.  Network-level
tests check every counting site against a hand count; the fleet-level
test checks that the per-query rows partition the wire traffic the
fleet sink's per-link view sees.
"""

import math

import pytest

import repro.workload.engine as workload_engine
from repro.engine.config import Algorithm
from repro.faults import FaultPlan, LinkLoss, LinkOutage, RetryPolicy
from repro.faults.injector import FaultInjector
from repro.net.message import Message, MessageKind
from repro.obs.metrics import RunMetrics
from repro.workload import ClosedLoop, QueryClass, WorkloadSpec
from repro.workload.engine import WorkloadEngine
from tests.net.test_network import build_network

WIRE = 1000.0  # every message below is 744 payload bytes + 256 header


def tagged(src, dst, query_id):
    return Message(MessageKind.DATA, src, dst, WIRE - 256, query_id=query_id)


def rows(net) -> dict:
    """The network's ledger rows, without the all-zero ones."""
    zero = RunMetrics()
    return {qid: row for qid, row in net.query_stats.items() if row != zero}


class TestNetworkLedger:
    def test_tagged_and_untagged_land_in_separate_rows(self, env):
        net = build_network(env, rate=1000.0)
        for actor, host in (("s", "a"), ("d", "b"), ("loc", "a")):
            net.register_actor(actor, host)
        net.post(tagged("s", "d", "q1"))
        net.post(tagged("s", "d", None))
        net.post(tagged("s", "loc", "q2"))
        env.run()
        assert rows(net) == {
            "q1": RunMetrics(transfers=1, bytes_on_wire=WIRE),
            None: RunMetrics(transfers=1, bytes_on_wire=WIRE),
            "q2": RunMetrics(local_deliveries=1),
        }

    def test_local_delivery_counted_once(self, env):
        net = build_network(env)
        net.register_actor("s", "a")
        net.register_actor("d", "a")
        net.send(tagged("s", "d", "q"))
        env.run()
        assert rows(net) == {"q": RunMetrics(local_deliveries=1)}

    def test_transfer_counted_once(self, env):
        net = build_network(env, rate=1000.0)
        seen = []
        net.observers.append(seen.append)
        net.register_actor("s", "a")
        net.register_actor("d", "b")
        for _ in range(3):
            net.post(tagged("s", "d", "q"))
        env.run()
        assert len(seen) == 3
        assert rows(net) == {"q": RunMetrics(transfers=3, bytes_on_wire=3 * WIRE)}

    def test_forward_counted_once(self, env):
        net = build_network(env, rate=1000.0)
        net.register_actor("s", "a")
        net.register_actor("d", "b")

        def mover(env):
            yield env.timeout(0.5)  # mid-flight
            net.move_actor("d", "c")

        net.send(tagged("s", "d", "q"))
        env.process(mover(env))
        env.run()
        # The hop to b and the forward b -> c are two transfers.
        assert rows(net) == {
            "q": RunMetrics(
                transfers=2, forwarded_messages=1, bytes_on_wire=2 * WIRE
            )
        }

    def test_drop_retransmit_abandon_counted_once(self, env):
        net = build_network(env, rate=1000.0)
        plan = FaultPlan(
            link_loss=(LinkLoss("a", "c", 1.0),),
            retry=RetryPolicy(timeout=5.0, max_attempts=3),
        )
        net.install_faults(FaultInjector(plan, env))
        for actor, host in (("s", "a"), ("d", "b"), ("lost", "c")):
            net.register_actor(actor, host)
        net.post(tagged("s", "lost", "q1"))
        net.post(tagged("s", "d", "q2"))
        env.run()
        # Three attempts, all lost: two retransmissions, one abandonment.
        # The clean pair is counted in its own row, under the injector.
        assert rows(net) == {
            "q1": RunMetrics(
                dropped_bytes=3 * WIRE, retransmissions=2, abandoned_messages=1
            ),
            "q2": RunMetrics(transfers=1, bytes_on_wire=WIRE),
        }


class TestFleetLedger:
    def test_rows_partition_the_fleet_link_view(self, monkeypatch):
        """Per-query rows sum to the fleet sink's per-link totals under
        an outage, a lossy pair and bounded retries."""
        substrates = []
        build = workload_engine.build_substrate

        def capture(*args):
            built = build(*args)
            substrates.append(built)
            return built

        monkeypatch.setattr(workload_engine, "build_substrate", capture)
        spec = WorkloadSpec(
            classes=(
                QueryClass(name="global", algorithm=Algorithm.GLOBAL),
                QueryClass(name="local", algorithm=Algorithm.LOCAL),
                QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
            ),
            num_clients=5,
            queries_per_client=2,
            arrivals=ClosedLoop(think_time=1.0),
            seed=5,
            num_servers=3,
            images_per_server=4,
            fault_plan=FaultPlan(
                seed=2,
                link_outages=(LinkOutage("client", "h0", 20.0, 80.0),),
                link_loss=(LinkLoss("h1", "client", 0.2),),
                retry=RetryPolicy(max_attempts=3),
            ),
        )
        result = WorkloadEngine(spec).run()
        (network, _monitoring), = substrates

        metrics = [q.metrics for q in result.queries]
        assert len(metrics) == 10
        assert {q.class_name for q in result.queries} == {
            "global", "local", "one-shot"
        }
        assert sum(m.retransmissions for m in metrics) > 0
        links = result.fleet["links"].values()
        assert sum(m.transfers for m in metrics) == sum(
            link["transfers"] for link in links
        )
        assert math.fsum(m.bytes_on_wire for m in metrics) == pytest.approx(
            result.fleet["bytes_on_wire"], rel=1e-12
        )
        # Every message of a workload run carries its query's tag.
        assert None not in network.query_stats
