"""Event lifecycle and condition events."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, Event, Timeout
from repro.sim.errors import SimulationError


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_value_unavailable_before_trigger(self, env):
        with pytest.raises(SimulationError):
            env.event().value

    def test_ok_unavailable_before_trigger(self, env):
        with pytest.raises(SimulationError):
            env.event().ok

    def test_succeed_sets_value(self, env):
        event = env.event().succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_succeed_twice_raises(self, env):
        event = env.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self, env):
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_fail_stores_exception(self, env):
        exc = RuntimeError("boom")
        event = env.event().fail(exc)
        event.defused = True
        assert not event.ok
        assert event.value is exc

    def test_callbacks_run_on_processing(self, env):
        event = env.event()
        seen = []
        event.callbacks.append(lambda e: seen.append(e.value))
        event.succeed("hello")
        env.run()
        assert seen == ["hello"]
        assert event.processed

    def test_unhandled_failure_raises_from_run(self, env):
        env.event().fail(ValueError("unnoticed"))
        with pytest.raises(Exception):
            env.run()

    def test_defused_failure_does_not_raise(self, env):
        event = env.event()
        event.fail(ValueError("noticed"))
        event.defused = True
        env.run()  # no exception


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            Timeout(env, -1.0)

    def test_timeout_fires_at_right_time(self, env):
        fired = []

        def proc(env):
            yield env.timeout(3.5)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [3.5]

    def test_timeout_carries_value(self, env):
        result = []

        def proc(env):
            value = yield env.timeout(1, value="payload")
            result.append(value)

        env.process(proc(env))
        env.run()
        assert result == ["payload"]

    def test_zero_delay_allowed(self, env):
        t = env.timeout(0)
        env.run()
        assert t.processed


class TestConditions:
    def test_all_of_waits_for_all(self, env):
        t1, t2 = env.timeout(1), env.timeout(5)
        done = []

        def proc(env):
            yield AllOf(env, [t1, t2])
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [5]

    def test_any_of_fires_on_first(self, env):
        t1, t2 = env.timeout(1), env.timeout(5)
        done = []

        def proc(env):
            yield AnyOf(env, [t1, t2])
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [1]

    def test_all_of_empty_fires_immediately(self, env):
        done = []

        def proc(env):
            yield AllOf(env, [])
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [0]

    def test_any_of_empty_fires_immediately(self, env):
        done = []

        def proc(env):
            yield AnyOf(env, [])
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [0]

    def test_condition_propagates_failure(self, env):
        bad = env.event()
        caught = []

        def failer(env):
            yield env.timeout(1)
            bad.fail(RuntimeError("inner"))

        def waiter(env):
            try:
                yield AllOf(env, [bad, env.timeout(10)])
            except RuntimeError as exc:
                caught.append(str(exc))

        env.process(failer(env))
        env.process(waiter(env))
        env.run()
        assert caught == ["inner"]

    def test_cross_environment_events_rejected(self, env):
        other = Environment()
        t = other.timeout(1)
        with pytest.raises(ValueError):
            AllOf(env, [t])

    def test_already_processed_subevent(self, env):
        t = env.timeout(1)
        done = []

        def late(env):
            yield env.timeout(2)
            yield AllOf(env, [t])  # t fired at 1 already
            done.append(env.now)

        env.process(late(env))
        env.run()
        assert done == [2]
