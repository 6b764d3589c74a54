"""Direct-handoff mailboxes vs the store-backed reference: bit-identical.

:class:`repro.net.host.Mailbox` hands a delivery straight to a waiting
getter and schedules nothing when none waits; the reference
(:func:`tests.oracles.store_mailbox.store_mailbox`) behaves like the
generic priority store it replaced, whose every put succeeds a
``StorePut`` event with no callbacks.  Dropping a no-callback event
keeps the relative order of every other calendar entry, so getters must
receive the same messages and resume in the same order, whole runs must
agree on every metric, arrival time and obs record, and the kernel
event counts must differ by exactly one per delivery.
"""

import hashlib
import json
from contextlib import contextmanager

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.net import host as host_module
from repro.net.host import Mailbox
from repro.net.message import Message, MessageKind
from repro.obs import Tracer
from repro.sim import Environment
from tests.oracles.store_mailbox import StoreMailbox, StorePut, store_mailbox

SETUP = ExperimentConfig(num_servers=4, images_per_server=12)

# -- interleaved operations on one mailbox -----------------------------------

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.integers(min_value=-1, max_value=3)),
        st.tuples(st.just("get"), st.just(0)),
        st.tuples(st.just("drain"), st.just(0)),
        st.tuples(st.just("step"), st.just(0)),
    ),
    max_size=40,
)


def _step(env: Environment) -> None:
    """Process the next calendar entry that is not a reference ``StorePut``.

    The reference schedules one extra no-callback ``StorePut`` per
    delivery; skipping those makes one step mean the same on both sides.
    """
    while env._queue:
        puts = isinstance(env._queue[0][3], StorePut)
        env.step()
        if not puts:
            return


def _replay(box_type, ops):
    """Run ``ops`` on a fresh mailbox; return everything observable."""
    env = Environment()
    box = box_type(env)
    waiting: list = []
    log: list = []
    for serial, (op, arg) in enumerate(ops):
        if op == "deliver":
            box.deliver(
                Message(MessageKind.DATA, f"m{serial}", "dst", 1, priority=arg)
            )
        elif op == "get":
            if len(waiting) >= 3:
                continue
            event = box.get()
            tag = f"g{serial}"
            log.append((tag, "ready" if event.triggered else "waits"))
            if not event.triggered:
                waiting.append(event)
            event.callbacks.append(
                lambda e, tag=tag: log.append((tag, "resumes", e.value.src_actor))
            )
        elif op == "drain":
            log.append(("drain", [(m.src_actor, m.priority) for m in box.drain()]))
        else:
            _step(env)
        waiting = [event for event in waiting if not event.triggered]
        log.append(("len", len(box)))
    while env._queue:
        _step(env)
    return log, len(waiting), env.events_processed


@settings(max_examples=200, deadline=None)
@given(OPS)
def test_interleaved_operations_match_store_reference(ops):
    """Same values, same resume order, same drains and lengths; the
    reference costs exactly one extra kernel event per delivery."""
    direct = _replay(Mailbox, ops)
    reference = _replay(StoreMailbox, ops)
    assert direct[:2] == reference[:2]
    deliveries = sum(op == "deliver" for op, _ in ops)
    assert reference[2] - direct[2] == deliveries


# -- whole runs ---------------------------------------------------------------


def _stream_digest(tracer: Tracer) -> str:
    """Content hash of the obs stream with run-relative message uids."""
    uids = sorted({e["uid"] for e in tracer.events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    events = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e
        for e in tracer.events
    ]
    return hashlib.sha256(json.dumps(events, sort_keys=True).encode()).hexdigest()


@contextmanager
def _counting_deliveries(box_type):
    """Build mailboxes of ``box_type`` and count their deliveries."""
    calls = [0]

    class Counting(box_type):
        __slots__ = ()

        def deliver(self, message):
            calls[0] += 1
            super().deliver(message)

    original = host_module.Mailbox
    host_module.Mailbox = Counting
    try:
        yield calls
    finally:
        host_module.Mailbox = original


def _pair(setup, algorithm, index=0, **overrides):
    direct_tracer, store_tracer = Tracer(), Tracer()
    with _counting_deliveries(Mailbox) as deliveries:
        direct = run_configuration(
            setup, index, algorithm, tracer=direct_tracer, **overrides
        )
    with store_mailbox():
        store = run_configuration(
            setup, index, algorithm, tracer=store_tracer, **overrides
        )
    assert direct.summary() == store.summary()
    assert direct.arrival_times == store.arrival_times
    assert _stream_digest(direct_tracer) == _stream_digest(store_tracer)
    extra = deliveries[0]
    assert extra > 0
    assert store.kernel_events - direct.kernel_events == extra
    # The traced kernel counters lose the reference's StorePut events only.
    counters = set(direct_tracer.counters) | set(store_tracer.counters)
    changed = {
        key: store_tracer.counters.get(key, 0) - direct_tracer.counters.get(key, 0)
        for key in counters
    }
    assert {key: n for key, n in changed.items() if n} == {
        "sim.events": extra,
        "sim.events.StorePut": extra,
    }
    return direct


def test_every_algorithm_matches_store_reference():
    for algorithm in Algorithm:
        _pair(SETUP, algorithm)


def test_faulted_run_matches_store_reference():
    hosts = (*SETUP.server_hosts, SETUP.client_host)
    setup = ExperimentConfig(
        num_servers=4,
        images_per_server=12,
        fault_plan=reference_chaos_plan(hosts, seed=1),
    )
    _pair(setup, Algorithm.GLOBAL)


def test_relocation_heavy_run_matches_store_reference():
    # Relocations drain the moving actor's mailbox and redeliver it.
    metrics = _pair(SETUP, Algorithm.GLOBAL, index=5, relocation_period=20.0)
    assert metrics.relocations >= 3


def test_small_workload_matches_store_reference():
    from repro.workload import ClosedLoop, QueryClass, WorkloadSpec, run_workload

    spec = WorkloadSpec(
        classes=(
            QueryClass(name="global", algorithm=Algorithm.GLOBAL),
            QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
        ),
        num_clients=2,
        queries_per_client=1,
        arrivals=ClosedLoop(think_time=2.0),
        seed=11,
        num_servers=4,
        images_per_server=4,
    )
    direct_tracer, store_tracer = Tracer(), Tracer()
    direct = run_workload(spec, tracer=direct_tracer)
    with store_mailbox():
        store = run_workload(spec, tracer=store_tracer)
    assert direct.to_dict() == store.to_dict()
    assert _stream_digest(direct_tracer) == _stream_digest(store_tracer)
