"""FaultPlan: validation, serialization, the reference chaos plan."""

import pytest

from repro.faults import (
    FaultPlan,
    HostCrash,
    LinkLoss,
    LinkOutage,
    ProbeBlackout,
    RetryPolicy,
    reference_chaos_plan,
)


class TestWindows:
    def test_outage_needs_distinct_hosts(self):
        with pytest.raises(ValueError, match="distinct"):
            LinkOutage("a", "a", 0.0, 10.0)

    def test_outage_rejects_empty_window(self):
        with pytest.raises(ValueError, match="empty"):
            LinkOutage("a", "b", 10.0, 10.0)

    def test_outage_rejects_negative_start(self):
        with pytest.raises(ValueError, match="negative"):
            LinkOutage("a", "b", -1.0, 10.0)

    def test_outage_pair_is_canonical(self):
        assert LinkOutage("z", "a", 0.0, 1.0).pair == ("a", "z")

    def test_loss_probability_bounds(self):
        LinkLoss("a", "b", 0.0)
        LinkLoss("a", "b", 1.0)
        with pytest.raises(ValueError, match="probability"):
            LinkLoss("a", "b", 1.5)

    def test_crash_rejects_inverted_window(self):
        with pytest.raises(ValueError, match="empty"):
            HostCrash("a", 20.0, 10.0)

    def test_blackout_rejects_negative_start(self):
        with pytest.raises(ValueError, match="negative"):
            ProbeBlackout(-5.0, 5.0)


class TestRetryPolicy:
    def test_backoff_delay_grows_and_caps(self):
        policy = RetryPolicy(timeout=10.0, backoff=2.0, max_backoff=35.0)
        assert policy.backoff_delay(1) == 10.0
        assert policy.backoff_delay(2) == 20.0
        assert policy.backoff_delay(3) == 35.0  # capped
        assert policy.backoff_delay(10) == 35.0

    def test_backoff_delay_past_float_range(self):
        # backoff ** (attempt - 1) leaves float range at attempt 1,025;
        # the delay stays at the ceiling instead of raising.
        policy = RetryPolicy()
        assert policy.backoff_delay(5000) == 240.0
        assert policy.backoff_delay(1025) == 240.0
        assert policy.backoff_delay(3) == 120.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=30.0, max_backoff=10.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestFaultPlan:
    def test_empty_plan(self):
        plan = FaultPlan()
        assert plan.is_empty()
        assert plan.hosts_mentioned() == set()
        plan.validate_hosts(["a"])  # nothing to complain about

    def test_lists_coerced_to_tuples(self):
        plan = FaultPlan(link_outages=[LinkOutage("a", "b", 0.0, 1.0)])
        assert isinstance(plan.link_outages, tuple)
        assert not plan.is_empty()

    def test_duplicate_loss_pair_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(
                link_loss=(LinkLoss("a", "b", 0.1), LinkLoss("b", "a", 0.2))
            )

    def test_validate_hosts_rejects_unknown(self):
        plan = FaultPlan(host_crashes=(HostCrash("ghost", 0.0, 1.0),))
        with pytest.raises(ValueError, match="ghost"):
            plan.validate_hosts(["a", "b"])

    def test_json_roundtrip(self, tmp_path):
        plan = FaultPlan(
            seed=7,
            link_outages=(LinkOutage("a", "b", 10.0, 20.0),),
            link_loss=(LinkLoss("a", "c", 0.25),),
            host_crashes=(HostCrash("b", 5.0, 9.0),),
            probe_blackouts=(ProbeBlackout(1.0, 2.0),),
            retry=RetryPolicy(timeout=5.0, max_attempts=3),
        )
        path = tmp_path / "plan.json"
        plan.to_json(path)
        assert FaultPlan.from_json(path) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 0, "typo_key": []})

    def test_from_dict_defaults(self):
        plan = FaultPlan.from_dict({})
        assert plan == FaultPlan()


class TestReferenceChaosPlan:
    def test_deterministic_and_complete(self):
        hosts = ["h0", "h1", "h2", "client"]
        plan = reference_chaos_plan(hosts, seed=3)
        assert plan == reference_chaos_plan(hosts, seed=3)
        assert not plan.is_empty()
        assert plan.link_outages
        assert plan.host_crashes
        assert plan.probe_blackouts
        # Loss on every pair of the complete graph.
        assert len(plan.link_loss) == len(hosts) * (len(hosts) - 1) // 2
        plan.validate_hosts(hosts)

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError, match="two hosts"):
            reference_chaos_plan(["only"])
