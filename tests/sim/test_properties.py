"""Property-based tests of the simulation kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.host import Mailbox
from repro.net.message import Message, MessageKind
from repro.sim import Environment, Process, Resource


@given(delays=st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_timeouts_fire_in_nondecreasing_time_order(delays):
    env = Environment()
    fired = []

    def proc(env, delay):
        yield env.timeout(delay)
        fired.append(env.now)

    for delay in delays:
        env.process(proc(env, delay))
    env.run()
    assert fired == sorted(fired)
    assert len(fired) == len(delays)
    assert env.now == max(delays)


@given(
    capacity=st.integers(min_value=1, max_value=5),
    holds=st.lists(
        st.floats(min_value=0.1, max_value=10), min_size=1, max_size=25
    ),
)
@settings(max_examples=50, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    concurrency = []

    def user(env, duration):
        with resource.request() as req:
            yield req
            concurrency.append(resource.count)
            yield env.timeout(duration)

    for duration in holds:
        env.process(user(env, duration))
    env.run()
    assert len(concurrency) == len(holds)  # everyone was eventually served
    assert max(concurrency) <= capacity


# -- random process programs over every kept primitive ------------------------

STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("timeout"), st.floats(min_value=0, max_value=5)),
        st.tuples(st.just("again"), st.just(0.0)),
        st.tuples(st.just("all_of"), st.floats(min_value=0, max_value=5)),
        st.tuples(st.just("any_of"), st.floats(min_value=0, max_value=5)),
        st.tuples(st.just("hold"), st.floats(min_value=0, max_value=5)),
        st.tuples(st.just("grab"), st.floats(min_value=0, max_value=5)),
        st.tuples(st.just("get"), st.just(0.0)),
        st.tuples(st.just("deliver"), st.integers(min_value=-1, max_value=3)),
    ),
    max_size=8,
)


class _LoggedProcess(Process):
    """A process that logs ``(process, now)`` whenever the kernel resumes it."""

    def __init__(self, env, generator, log):
        self.log = log
        super().__init__(env, generator)

    def _resume(self, event):
        assert self.is_alive, f"{self!r} resumed after it returned"
        self.log.append((self, self.env.now))
        super()._resume(event)


def _message(priority=0):
    return Message(MessageKind.DATA, "src", "dst", 1, priority=priority)


def _program(env, resource, mailbox, steps, yielded, occupancy):
    """Run ``steps``, appending every event yielded to ``yielded``."""

    def wait(event):
        yielded.append(event)
        return event

    for op, arg in steps:
        # The last event yielded has been processed by the time we run.
        last = yielded[-1:]
        if op == "timeout":
            yield wait(env.timeout(arg))
        elif op == "again":
            yield wait(last[0] if last else env.timeout(0))
        elif op in ("all_of", "any_of"):
            events = [env.timeout(arg), env.timeout(arg / 2), *last]
            yield wait(env.all_of(events) if op == "all_of" else env.any_of(events))
        elif op in ("hold", "grab"):
            request = resource.try_acquire() if op == "grab" else None
            if request is None:
                request = resource.request()
                yield wait(request)
            occupancy.append(resource.count)
            yield wait(env.timeout(arg))
            resource.release(request)
        elif op == "get":
            yield wait(mailbox.get())
        else:
            mailbox.deliver(_message(arg))


@given(
    programs=st.lists(STEPS, min_size=1, max_size=5),
    capacity=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=80, deadline=None)
def test_random_programs_resume_once_per_yield(programs, capacity):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    mailbox = Mailbox(env)
    log: list = []
    occupancy: list[int] = []
    gets = sum(op == "get" for steps in programs for op, _ in steps)

    def feeder(env):
        # One message per get on top of the programs' own deliveries, so
        # no getter waits forever.
        for _ in range(gets):
            yield env.timeout(7.0)
            mailbox.deliver(_message())

    env.process(feeder(env))
    processes = []
    for steps in programs:
        yielded: list = []
        generator = _program(env, resource, mailbox, steps, yielded, occupancy)
        processes.append((_LoggedProcess(env, generator, log), yielded))
    env.run()

    times = [now for _, now in log]
    assert times == sorted(times)  # the clock never goes backwards
    for process, yielded in processes:
        assert not process.is_alive
        # Started once, then resumed exactly once per yielded event.
        assert sum(owner is process for owner, _ in log) == len(yielded) + 1
    assert all(count <= capacity for count in occupancy)
