"""Environment and process semantics."""

import pytest

from repro.sim import Environment
from repro.sim.errors import EventFailed, SimulationError


class TestEnvironmentRun:
    def test_run_until_time_stops_clock(self, env):
        def ticker(env):
            while True:
                yield env.timeout(1)

        env.process(ticker(env))
        env.run(until=10.5)
        assert env.now == 10.5

    def test_run_until_past_time_rejected(self, env):
        env.process(iter_timeout(env, 5))
        env.run(until=5)
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_run_until_event_returns_value(self, env):
        def proc(env):
            yield env.timeout(2)
            return "answer"

        p = env.process(proc(env))
        assert env.run(until=p) == "answer"

    def test_run_until_already_processed_event(self, env):
        def proc(env):
            yield env.timeout(1)
            return 7

        p = env.process(proc(env))
        env.run()
        assert env.run(until=p) == 7

    def test_run_until_unreachable_event_raises(self, env):
        never = env.event()
        env.process(iter_timeout(env, 1))
        with pytest.raises(SimulationError):
            env.run(until=never)

    def test_run_drains_calendar(self, env):
        done = []

        def proc(env):
            yield env.timeout(3)
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [3]
        with pytest.raises(SimulationError):  # the calendar is drained
            env.step()

    def test_step_with_empty_calendar_raises(self, env):
        with pytest.raises(SimulationError):
            env.step()

    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []

        def proc(env, tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]

    def test_initial_time(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        fired = []

        def proc(env):
            yield env.timeout(5)
            fired.append(env.now)

        env.process(proc(env))
        env.run()
        assert fired == [105.0]


class TestProcess:
    def test_process_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_return_value_becomes_event_value(self, env):
        def child(env):
            yield env.timeout(1)
            return {"status": "ok"}

        collected = []

        def parent(env):
            value = yield env.process(child(env))
            collected.append(value)

        env.process(parent(env))
        env.run()
        assert collected == [{"status": "ok"}]

    def test_yield_non_event_is_error(self, env):
        def proc(env):
            yield 42

        env.process(proc(env))
        with pytest.raises(Exception):
            env.run()

    def test_exception_propagates_to_waiter(self, env):
        def child(env):
            yield env.timeout(1)
            raise KeyError("lost")

        caught = []

        def parent(env):
            try:
                yield env.process(child(env))
            except KeyError as exc:
                caught.append(exc.args[0])

        env.process(parent(env))
        env.run()
        assert caught == ["lost"]

    def test_unwaited_crash_surfaces_from_run(self, env):
        def child(env):
            yield env.timeout(1)
            raise RuntimeError("unobserved")

        env.process(child(env))
        with pytest.raises(EventFailed):
            env.run()

    def test_is_alive_transitions(self, env):
        def proc(env):
            yield env.timeout(5)

        p = env.process(proc(env))
        assert p.is_alive
        env.run()
        assert not p.is_alive

    def test_yield_already_processed_event_resumes(self, env):
        t = env.timeout(1, value="early")
        got = []

        def late(env):
            yield env.timeout(3)
            value = yield t
            got.append((env.now, value))

        env.process(late(env))
        env.run()
        assert got == [(3.0, "early")]

    def test_processes_can_chain(self, env):
        def grandchild(env):
            yield env.timeout(2)
            return 2

        def child(env):
            inner = yield env.process(grandchild(env))
            yield env.timeout(1)
            return inner + 1

        def parent(env):
            value = yield env.process(child(env))
            return value + 1

        p = env.process(parent(env))
        assert env.run(until=p) == 4
        assert env.now == 3


def iter_timeout(env, delay):
    yield env.timeout(delay)
