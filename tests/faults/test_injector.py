"""FaultInjector: window queries, loss streams, the fault timeline."""

import pytest

from repro.faults import (
    FaultInjector,
    FaultPlan,
    HostCrash,
    LinkLoss,
    LinkOutage,
    ProbeBlackout,
)
from repro.obs import Tracer
from repro.obs.events import (
    FAULT_HOST_DOWN,
    FAULT_HOST_UP,
    FAULT_LINK_DOWN,
    FAULT_LINK_UP,
)
from repro.sim import SimulationError


def make_plan(**kwargs):
    defaults = dict(
        link_outages=(LinkOutage("a", "b", 10.0, 20.0),),
        host_crashes=(HostCrash("c", 15.0, 40.0),),
        probe_blackouts=(ProbeBlackout(5.0, 8.0),),
    )
    defaults.update(kwargs)
    return FaultPlan(**defaults)


class TestQueries:
    def test_link_blocked_windows(self, env):
        injector = FaultInjector(make_plan(), env)
        assert injector.link_blocked("a", "b", 9.9) is None
        assert injector.link_blocked("a", "b", 10.0) == "outage"
        assert injector.link_blocked("b", "a", 15.0) == "outage"  # symmetric
        assert injector.link_blocked("a", "b", 20.0) is None  # half-open

    def test_host_down_blocks_every_link(self, env):
        injector = FaultInjector(make_plan(), env)
        assert injector.host_down("c", 20.0)
        assert not injector.host_down("c", 40.0)
        assert injector.link_blocked("a", "c", 20.0) == "host-down"
        assert injector.link_blocked("c", "b", 20.0) == "host-down"

    def test_host_down_outranks_outage(self, env):
        plan = make_plan(
            link_outages=(LinkOutage("a", "c", 10.0, 30.0),),
        )
        injector = FaultInjector(plan, env)
        assert injector.link_blocked("a", "c", 20.0) == "host-down"

    def test_probe_blackout(self, env):
        injector = FaultInjector(make_plan(), env)
        assert not injector.probe_blackout(4.9)
        assert injector.probe_blackout(5.0)
        assert not injector.probe_blackout(8.0)

    def test_has_loss(self, env):
        plan = make_plan(link_loss=(LinkLoss("a", "b", 0.5),))
        injector = FaultInjector(plan, env)
        assert injector.has_loss("a", "b")
        assert injector.has_loss("b", "a")  # canonical pair
        assert not injector.has_loss("a", "c")

    def test_zero_probability_is_not_loss(self, env):
        plan = make_plan(link_loss=(LinkLoss("a", "b", 0.0),))
        assert not FaultInjector(plan, env).has_loss("a", "b")


class TestNextBoundary:
    # make_plan: outage a-b [10, 20), crash c [15, 40).

    def test_finds_outage_edges(self, env):
        injector = FaultInjector(make_plan(), env)
        assert injector.next_boundary(("a", "b"), (), 0.0, 100.0) == 10.0
        assert injector.next_boundary(("a", "b"), (), 12.0, 100.0) == 20.0

    def test_finds_crash_edges(self, env):
        injector = FaultInjector(make_plan(), env)
        assert injector.next_boundary(("a", "c"), ("a", "c"), 0.0, 100.0) == 15.0
        assert injector.next_boundary(("a", "c"), ("a", "c"), 16.0, 100.0) == 40.0

    def test_earliest_across_outage_and_crash(self, env):
        injector = FaultInjector(make_plan(), env)
        # Outage start 10 beats crash start 15 when both windows apply.
        assert injector.next_boundary(("a", "b"), ("c",), 0.0, 100.0) == 10.0

    def test_interval_is_open(self, env):
        injector = FaultInjector(make_plan(), env)
        # Boundaries at exactly t0 or t1 do not count: a transfer that
        # starts at a window edge sees constant fault state.
        assert injector.next_boundary(("a", "b"), (), 10.0, 20.0) is None
        assert injector.next_boundary(("a", "b"), (), 5.0, 10.0) is None

    def test_clear_window_returns_none(self, env):
        injector = FaultInjector(make_plan(), env)
        assert injector.next_boundary(("a", "b"), ("a", "b"), 20.0, 100.0) is None
        assert injector.next_boundary(("x", "y"), ("x", "y"), 0.0, 1e9) is None


class TestLossStreams:
    PLAN = FaultPlan(seed=11, link_loss=(LinkLoss("a", "b", 0.5),))

    def test_stream_deterministic(self, env):
        draws = [
            FaultInjector(self.PLAN, env).drop_message("a", "b")
            for _ in range(2)
        ]
        # Fresh injectors replay the identical stream.
        seq1 = [FaultInjector(self.PLAN, env).drop_message("a", "b")
                for _ in range(1)]
        injector = FaultInjector(self.PLAN, env)
        seq = [injector.drop_message("a", "b") for _ in range(64)]
        again = FaultInjector(self.PLAN, env)
        assert seq == [again.drop_message("a", "b") for _ in range(64)]
        assert draws[0] == draws[1] == seq1[0] == seq[0]

    def test_stream_independent_of_other_pairs(self, env):
        plan = FaultPlan(
            seed=11,
            link_loss=(LinkLoss("a", "b", 0.5), LinkLoss("a", "c", 0.5)),
        )
        lone = FaultInjector(self.PLAN, env)
        expected = [lone.drop_message("a", "b") for _ in range(32)]
        mixed = FaultInjector(plan, env)
        observed = []
        for _ in range(32):
            observed.append(mixed.drop_message("a", "b"))
            mixed.drop_message("a", "c")  # interleaved other-pair traffic
        assert observed == expected

    def test_direction_does_not_matter(self, env):
        fwd = FaultInjector(self.PLAN, env)
        rev = FaultInjector(self.PLAN, env)
        assert [fwd.drop_message("a", "b") for _ in range(32)] == [
            rev.drop_message("b", "a") for _ in range(32)
        ]

    def test_zero_probability_never_draws(self, env):
        plan = FaultPlan(link_loss=(LinkLoss("a", "b", 0.0),))
        injector = FaultInjector(plan, env)
        assert not injector.drop_message("a", "b")
        assert not injector._loss_rngs  # no RNG was even created


class TestTimeline:
    def test_emits_boundaries_and_accumulates_downtime(self, env):
        tracer = Tracer()
        injector = FaultInjector(make_plan(), env, tracer=tracer)
        injector.start()
        env.run(until=100.0)
        kinds = [e["type"] for e in tracer.events
                 if e["type"].startswith("fault.")]
        assert kinds == [
            FAULT_LINK_DOWN, FAULT_HOST_DOWN, FAULT_LINK_UP, FAULT_HOST_UP,
        ]
        assert injector.total_downtime == pytest.approx(25.0)
        assert injector.host_downtime == {"c": pytest.approx(25.0)}

    def test_unreached_recovery_not_counted(self, env):
        injector = FaultInjector(make_plan(), env)
        injector.start()
        env.run(until=30.0)  # crash ends at 40: recovery never happened
        assert injector.total_downtime == 0.0

    def test_no_boundaries_no_process(self, env):
        plan = FaultPlan(link_loss=(LinkLoss("a", "b", 0.1),))
        injector = FaultInjector(plan, env)
        injector.start()
        with pytest.raises(SimulationError):  # empty calendar
            env.step()
