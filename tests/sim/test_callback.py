"""Callback one-shots, the events-processed counter, try_acquire."""

import pytest

from repro.sim import Callback, Environment, Resource, Timeout, URGENT
from repro.sim.errors import SimulationError


class TestScheduleCallback:
    def test_fires_at_delay(self, env):
        fired = []
        env.schedule_callback(2.5, lambda: fired.append(env.now))
        env.run()
        assert fired == [2.5]

    def test_returns_callback_event(self, env):
        event = env.schedule_callback(1.0, lambda: None)
        assert isinstance(event, Callback)
        assert event.triggered  # pre-succeeded, like a Timeout

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.schedule_callback(-1.0, lambda: None)

    def test_fires_exactly_once(self, env):
        count = []
        env.schedule_callback(0.0, lambda: count.append(1))
        env.run()
        assert count == [1]

    def test_single_calendar_event(self, env):
        env.schedule_callback(1.0, lambda: None)
        env.run()
        assert env.events_processed == 1

    def test_urgent_beats_same_time_normal(self, env):
        order = []
        env.schedule_callback(1.0, lambda: order.append("normal"))
        env.schedule_callback(1.0, lambda: order.append("urgent"), priority=URGENT)
        env.run()
        assert order == ["urgent", "normal"]

    def test_same_priority_ties_fire_in_schedule_order(self, env):
        order = []
        env.schedule_callback(1.0, lambda: order.append("first"))
        env.schedule_callback(1.0, lambda: order.append("second"))
        env.run()
        assert order == ["first", "second"]

    def test_callback_may_schedule_callbacks(self, env):
        fired = []
        env.schedule_callback(
            1.0,
            lambda: env.schedule_callback(1.0, lambda: fired.append(env.now)),
        )
        env.run()
        assert fired == [2.0]

    def test_repr_names_function(self, env):
        def completion():
            pass  # pragma: no cover

        assert "completion" in repr(env.schedule_callback(1.0, completion))


class TestEventsProcessed:
    def test_starts_at_zero(self):
        assert Environment().events_processed == 0

    def test_run_counts_every_event(self, env):
        def proc():
            yield env.timeout(1.0)  # init event + timeout
            yield env.timeout(1.0)

        env.process(proc())
        env.run()
        # init + 2 timeouts + process-completion event
        assert env.events_processed == 4

    def test_step_counts(self, env):
        env.schedule_callback(1.0, lambda: None)
        env.step()
        assert env.events_processed == 1

    def test_counts_accumulate_across_runs(self, env):
        env.schedule_callback(1.0, lambda: None)
        env.run()
        env.schedule_callback(1.0, lambda: None)
        env.run()
        assert env.events_processed == 2

    def test_counts_with_trace_hook_installed(self, env):
        seen = []
        env.trace_hook = lambda now, event: seen.append(type(event).__name__)
        env.schedule_callback(1.0, lambda: None)
        env.run()
        assert env.events_processed == 1
        assert seen == ["Callback"]

    def test_process_path_costs_more_than_callback(self):
        des, fluid = Environment(), Environment()

        def transfer():
            yield des.timeout(1.0)

        des.process(transfer())
        des.run()
        fluid.schedule_callback(1.0, lambda: None)
        fluid.run()
        assert des.events_processed == 3  # init, timeout, completion
        assert fluid.events_processed == 1


class TestTryAcquire:
    def test_grants_free_slot_without_event(self, env):
        disk = Resource(env, capacity=1)
        hold = disk.try_acquire()
        assert hold is not None and hold.granted
        assert disk.count == 1
        with pytest.raises(SimulationError):  # nothing on the calendar
            env.step()

    def test_none_when_full(self, env):
        disk = Resource(env, capacity=1)
        assert disk.try_acquire() is not None
        assert disk.try_acquire() is None

    def test_release_wakes_queued_request(self, env):
        disk = Resource(env, capacity=1)
        hold = disk.try_acquire()
        order = []

        def waiter():
            with disk.request() as req:
                yield req
                order.append(env.now)

        env.process(waiter())

        def releaser():
            yield env.timeout(5.0)
            disk.release(hold)

        env.process(releaser())
        env.run()
        assert order == [5.0]

    def test_mixed_protocols_queue_behind_each_other(self, env):
        disk = Resource(env, capacity=2)
        a = disk.try_acquire()

        def holder():
            with disk.request() as req:
                yield req
                yield env.timeout(3.0)

        env.process(holder())
        env.run(until=1.0)
        assert disk.count == 2
        assert disk.try_acquire() is None
        disk.release(a)
        assert disk.count == 1

    def test_double_release_is_harmless(self, env):
        disk = Resource(env, capacity=1)
        hold = disk.try_acquire()
        disk.release(hold)
        disk.release(hold)
        assert disk.count == 0
