"""Callback-chained fault attempts vs the generator-process reference.

Under a fault plan every transfer runs as a chain of callbacks — an
URGENT launch, one step per attempt, the completion — scheduled exactly
where the classic generator process scheduled its init event and its
``Timeout`` s.  :func:`tests.oracles.full_des.process_transfers` swaps
the process back in for ``Network._start_transfer`` alone, so any
difference between the two runs is the attempt engine's.

At tiny scale, over arbitrary loss, outage, crash, retry and NIC
settings on all four algorithms, both runs must agree on ``summary()``,
the arrival times and the uid-normalized obs stream.  The only
difference allowed is the one event per transfer the chain removes: the
process-completion event nobody waits on, once per completed
(``des_transfers``) or abandoned transfer.
"""

import itertools
import json
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults.plan import (
    FaultPlan,
    HostCrash,
    LinkLoss,
    LinkOutage,
    RetryPolicy,
)
from repro.obs import Tracer
from tests.oracles.full_des import process_transfers


def _normalized_events(tracer: Tracer) -> str:
    """The obs stream with run-relative message uids."""
    uids = sorted({e["uid"] for e in tracer.events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    return json.dumps(
        [
            {**e, "uid": rank[e["uid"]]} if "uid" in e else e
            for e in tracer.events
        ],
        sort_keys=True,
    )


def _summary_blob(metrics) -> str:
    """The summary as JSON: ``==`` fails on a truncated run's NaN fields."""
    return json.dumps(metrics.summary(), sort_keys=True)


@st.composite
def faulted_runs(draw):
    num_servers = draw(st.integers(2, 3))
    setup = ExperimentConfig(
        num_servers=num_servers, images_per_server=draw(st.integers(2, 4))
    )
    hosts = (*setup.server_hosts, setup.client_host)
    pairs = list(itertools.combinations(hosts, 2))
    # Every pair gets a loss entry (probability 0 included), so the
    # plan is never empty and the injector is always installed.
    loss = tuple(
        LinkLoss(a, b, draw(st.floats(0.0, 0.5))) for a, b in pairs
    )
    windows = st.tuples(st.floats(0.0, 400.0), st.floats(0.5, 150.0))
    outages = tuple(
        LinkOutage(*pair, start=start, end=start + length)
        for pair, (start, length) in draw(
            st.lists(st.tuples(st.sampled_from(pairs), windows), max_size=3)
        )
    )
    crashes = tuple(
        HostCrash(host, start=start, end=start + length)
        for host, (start, length) in draw(
            st.lists(st.tuples(st.sampled_from(hosts), windows), max_size=2)
        )
    )
    retry = RetryPolicy(
        timeout=draw(st.sampled_from([5.0, 30.0])),
        max_attempts=draw(st.one_of(st.none(), st.integers(1, 4))),
    )
    plan = FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        link_loss=loss,
        link_outages=outages,
        host_crashes=crashes,
        retry=retry,
    )
    setup = ExperimentConfig(
        num_servers=num_servers,
        images_per_server=setup.images_per_server,
        fault_plan=plan,
    )
    algorithm = draw(st.sampled_from(list(Algorithm)))
    nic_capacity = draw(st.integers(1, 2))
    return setup, algorithm, nic_capacity


def _run(setup, algorithm, nic_capacity):
    tracer = Tracer()
    metrics = run_configuration(
        replace(setup, nic_capacity=nic_capacity), 0, algorithm, tracer=tracer
    )
    return metrics, _normalized_events(tracer)


def _check_equivalent(setup, algorithm, nic_capacity):
    """Run both ways, assert equivalence, return the chain's metrics."""
    chain, chain_events = _run(setup, algorithm, nic_capacity)
    with process_transfers():
        reference, reference_events = _run(setup, algorithm, nic_capacity)

    assert _summary_blob(chain) == _summary_blob(reference)
    assert chain.arrival_times == reference.arrival_times
    assert chain_events == reference_events
    # Labels: the chain never runs a process, the reference always does.
    assert chain.fluid_transfers == chain.transfers
    assert chain.des_transfers == 0
    assert reference.des_transfers == reference.transfers
    # Exactly one process-completion event per process is gone.
    assert reference.kernel_events - chain.kernel_events == (
        reference.des_transfers + reference.abandoned_messages
    )
    return chain


@settings(max_examples=60, deadline=None)
@given(faulted_runs())
def test_attempt_chain_matches_process_reference(case):
    _check_equivalent(*case)


def test_abandonment_is_exercised():
    """A one-attempt budget on lossy pairs abandons messages, and the
    chain still matches the reference through the abandonment."""
    setup = ExperimentConfig(num_servers=3, images_per_server=3)
    hosts = (*setup.server_hosts, setup.client_host)
    plan = FaultPlan(
        seed=1,
        link_loss=tuple(
            LinkLoss(a, b, 0.5) for a, b in itertools.combinations(hosts, 2)
        ),
        retry=RetryPolicy(max_attempts=1),
    )
    setup = ExperimentConfig(num_servers=3, images_per_server=3, fault_plan=plan)
    chain = _check_equivalent(setup, Algorithm.GLOBAL, 1)
    assert chain.abandoned_messages > 0
    assert chain.truncated
