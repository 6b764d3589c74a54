"""Kernel edge cases beyond the basic semantics suite."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, SimulationError


class TestNestedConditions:
    def test_all_of_any_of(self, env):
        done = []

        def proc(env):
            first_pair = AnyOf(env, [env.timeout(5), env.timeout(9)])
            second_pair = AnyOf(env, [env.timeout(7), env.timeout(20)])
            yield AllOf(env, [first_pair, second_pair])
            done.append(env.now)

        env.process(proc(env))
        env.run()
        assert done == [7]

    def test_condition_over_processes(self, env):
        def worker(env, delay, value):
            yield env.timeout(delay)
            return value

        results = []

        def coordinator(env):
            a = env.process(worker(env, 2, "a"))
            b = env.process(worker(env, 4, "b"))
            yield AllOf(env, [a, b])
            results.append((a.value, b.value, env.now))

        env.process(coordinator(env))
        env.run()
        assert results == [("a", "b", 4)]


class TestRunSemantics:
    def test_run_until_failed_process_raises(self, env):
        def crasher(env):
            yield env.timeout(1)
            raise RuntimeError("expected")

        p = env.process(crasher(env))
        with pytest.raises(RuntimeError, match="expected"):
            env.run(until=p)

    def test_environment_isolated(self):
        env_a, env_b = Environment(), Environment()

        def proc(env):
            yield env.timeout(5)

        env_a.process(proc(env_a))
        env_b.process(proc(env_b))
        env_a.run()
        assert env_a.now == 5
        assert env_b.now == 0  # untouched

    def test_stop_from_callback(self, env):
        t = env.timeout(3)
        t.callbacks.append(lambda event: env.stop("early"))
        env.timeout(100)
        assert env.run() == "early"
        assert env.now == 3

    def test_step_advances_to_the_next_event(self, env):
        with pytest.raises(SimulationError):
            env.step()
        env.timeout(7)
        env.step()
        assert env.now == 7
