"""Resource semantics."""

import pytest

from repro.sim import Environment, Resource


def hold(env, resource, log, tag, duration):
    with resource.request() as req:
        yield req
        log.append((env.now, tag))
        yield env.timeout(duration)


class TestResource:
    def test_capacity_must_be_positive(self, env):
        with pytest.raises(ValueError):
            Resource(env, capacity=0)

    def test_immediate_grant_when_free(self, env):
        res = Resource(env)
        log = []
        env.process(hold(env, res, log, "a", 1))
        env.run()
        assert log == [(0.0, "a")]

    def test_fifo_order(self, env):
        res = Resource(env)
        log = []

        def spawn(env):
            env.process(hold(env, res, log, "a", 10))
            yield env.timeout(1)
            env.process(hold(env, res, log, "b", 10))
            yield env.timeout(1)
            env.process(hold(env, res, log, "c", 10))

        env.process(spawn(env))
        env.run()
        assert log == [(0.0, "a"), (10.0, "b"), (20.0, "c")]

    def test_capacity_two_runs_concurrently(self, env):
        res = Resource(env, capacity=2)
        log = []
        env.process(hold(env, res, log, "a", 10))
        env.process(hold(env, res, log, "b", 10))
        env.process(hold(env, res, log, "c", 10))
        env.run()
        assert log == [(0.0, "a"), (0.0, "b"), (10.0, "c")]

    def test_count_and_queue_length(self, env):
        # A queued request is one not yet triggered.
        res = Resource(env)
        requests = [res.request() for _ in range(3)]
        assert res.count == 1
        assert [r.triggered for r in requests] == [True, False, False]
        res.release(requests[0])
        assert res.count == 1
        assert [r.triggered for r in requests[1:]] == [True, False]

    def test_release_without_grant_is_noop(self, env):
        res = Resource(env)
        req = res.request()
        res.release(req)
        res.release(req)  # double release tolerated

    def test_context_manager_releases_on_exception(self, env):
        res = Resource(env)
        log = []

        def crasher(env):
            with res.request() as req:
                yield req
                raise RuntimeError("die")

        def follower(env):
            yield env.timeout(1)
            yield from hold(env, res, log, "next", 1)

        p = env.process(crasher(env))

        def supervisor(env):
            try:
                yield p
            except RuntimeError:
                pass

        env.process(supervisor(env))
        env.process(follower(env))
        env.run()
        assert log == [(1.0, "next")]

    def test_queued_request_can_be_cancelled(self, env):
        res = Resource(env)
        log = []

        def canceller(env):
            req = res.request()
            yield env.timeout(1)  # still queued behind holder
            res.release(req)

        env.process(hold(env, res, log, "holder", 10))
        env.process(canceller(env))
        env.process(hold(env, res, log, "after", 1))
        env.run()
        # "after" was queued third but runs second because the middle
        # request withdrew.
        assert log == [(0.0, "holder"), (10.0, "after")]
