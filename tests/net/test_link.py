"""Link transmission timing."""

import pytest

from repro.net.link import DEFAULT_STARTUP_COST, Link
from repro.traces import BandwidthTrace, constant_trace


class TestLink:
    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "a", constant_trace(10))

    def test_negative_startup_rejected(self):
        with pytest.raises(ValueError):
            Link("a", "b", constant_trace(10), startup_cost=-1)

    def test_key_canonical(self):
        link = Link("z", "a", constant_trace(10))
        assert link.key == ("a", "z")

    def test_default_startup_is_50ms(self):
        assert DEFAULT_STARTUP_COST == pytest.approx(0.050)

    def test_transmission_time_adds_startup(self):
        link = Link("a", "b", constant_trace(100), startup_cost=0.05)
        assert link.transmission_time(1000, 0) == pytest.approx(10.05)

    def test_zero_bytes_costs_startup_only(self):
        link = Link("a", "b", constant_trace(100), startup_cost=0.05)
        assert link.transmission_time(0, 0) == pytest.approx(0.05)

    def test_negative_bytes_rejected(self):
        link = Link("a", "b", constant_trace(100))
        with pytest.raises(ValueError):
            link.transmission_time(-1, 0)

    def test_negative_start_time_rejected(self):
        # A negative start would silently integrate the trace before t=0
        # (clamped rates), producing a plausible-looking wrong duration.
        link = Link("a", "b", constant_trace(100))
        with pytest.raises(ValueError, match="negative start time"):
            link.transmission_time(1000, -0.5)

    def test_transmission_integrates_trace(self):
        trace = BandwidthTrace([0, 10], [100, 50])
        link = Link("a", "b", trace, startup_cost=0.0)
        # 1000 bytes in first 10 s, 500 more at 50 B/s = 10 s.
        assert link.transmission_time(1500, 0) == pytest.approx(20.0)

    def test_startup_shifts_integration_window(self):
        trace = BandwidthTrace([0, 10], [100, 50])
        link = Link("a", "b", trace, startup_cost=10.0)
        # Bytes only start flowing at t=10, when the rate is 50.
        assert link.transmission_time(500, 0) == pytest.approx(10.0 + 10.0)
