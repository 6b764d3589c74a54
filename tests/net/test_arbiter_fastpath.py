"""The send() fast path must be order-identical to always-full-scanning.

``Network.send`` skips the queue rescan when no NIC capacity has been
released since the last full dispatch (``_scan_needed`` clear).  Forcing
the flag permanently on makes every send take the slow full-scan path;
whole simulations run both ways must produce identical metrics and obs
event streams.

The waiting queue itself is a list kept sorted by ``(priority,
sequence)`` and walked in place by the full scan.  After every scan it
must be sorted and hold only blocked entries, and random send/finish
scripts must start transfers in exactly a heap-draining arbiter's order.
"""

import hashlib
import heapq
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.net.network as network_module
from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.net.host import Host
from repro.net.link import Link
from repro.net.message import Message, MessageKind
from repro.net.network import Network
from repro.obs import Tracer
from repro.sim import Environment
from repro.traces import constant_trace


@pytest.fixture
def force_full_scans(monkeypatch):
    """Disable the fast path: every send sees _scan_needed=True."""
    original = network_module.Network.send

    def slow_send(self, message, src_host=None, dst_host=None):
        self._scan_needed = True
        return original(self, message, src_host=src_host, dst_host=dst_host)

    monkeypatch.setattr(network_module.Network, "send", slow_send)


def _fingerprint(setup, algorithm):
    tracer = Tracer()
    metrics = run_configuration(setup, 0, algorithm, tracer=tracer)
    uids = sorted({e["uid"] for e in tracer.events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    events = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e
        for e in tracer.events
    ]
    blob = json.dumps(events, sort_keys=True)
    return (
        dict(metrics.summary()),
        list(metrics.arrival_times),
        len(events),
        hashlib.sha256(blob.encode()).hexdigest(),
    )


SETUP = ExperimentConfig(num_servers=4, images_per_server=12)


#: Fast-path fingerprints, computed unpatched before the slow-path runs.
_FAST_RESULTS = {}


@pytest.fixture(scope="module", autouse=True)
def _capture_fast_results():
    for algorithm in (Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL):
        _FAST_RESULTS[algorithm] = _fingerprint(SETUP, algorithm)
    yield
    _FAST_RESULTS.clear()


@pytest.mark.parametrize(
    "algorithm",
    [Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL],
    ids=lambda a: a.value,
)
class TestFastPathEquivalence:
    def test_run_identical_with_and_without_fast_path(
        self, algorithm, force_full_scans
    ):
        slow = _fingerprint(SETUP, algorithm)
        assert slow == _FAST_RESULTS[algorithm]

    def test_faulted_run_identical(self, algorithm, force_full_scans):
        hosts = (*SETUP.server_hosts, SETUP.client_host)
        faulted = ExperimentConfig(
            num_servers=4,
            images_per_server=12,
            fault_plan=reference_chaos_plan(hosts, seed=1),
        )
        slow = _fingerprint(faulted, algorithm)
        assert slow == _FAULTED_FAST[algorithm]


_FAULTED_FAST = {}


@pytest.fixture(scope="module", autouse=True)
def _capture_faulted_fast():
    hosts = (*SETUP.server_hosts, SETUP.client_host)
    faulted = ExperimentConfig(
        num_servers=4,
        images_per_server=12,
        fault_plan=reference_chaos_plan(hosts, seed=1),
    )
    for algorithm in (Algorithm.DOWNLOAD_ALL, Algorithm.GLOBAL):
        _FAULTED_FAST[algorithm] = _fingerprint(faulted, algorithm)
    yield
    _FAULTED_FAST.clear()


class TestFlagBookkeeping:
    def test_flag_clear_after_full_scan(self):
        env = Environment()
        net = Network(env)
        for name in ("a", "b"):
            net.add_host(Host(env, name, nic_capacity=1))
        net.add_link(Link("a", "b", constant_trace(1000.0), startup_cost=0.0))
        net.register_actor("@a", "a")
        net.register_actor("@b", "b")

        assert net._scan_needed is False
        message = Message(MessageKind.DATA, "@a", "@b", 744)
        net.send(message, src_host="a", dst_host="b")
        # Fast path started the transfer directly; nothing queued.
        assert net._waiting == []
        assert net._active_transfers == {"a": 1, "b": 1}
        env.run()
        # Completion released NICs and ran the trailing full scan.
        assert net._scan_needed is False
        assert net._active_transfers == {"a": 0, "b": 0}
        # 744 payload + 256 header bytes = 1000 wire bytes at 1000 B/s.
        assert message.delivered_at == pytest.approx(1.0)


def _assert_sorted_and_blocked(net):
    waiting = net._waiting
    keys = [entry[:2] for entry in waiting]
    assert keys == sorted(keys)
    active, caps = net._active_transfers, net._nic_caps
    for __, __, __, src, dst, __ in waiting:
        assert active[src] >= caps[src] or active[dst] >= caps[dst]


class TestSortedQueue:
    @pytest.mark.parametrize("faulted", [False, True], ids=["plain", "chaos"])
    def test_every_scan_leaves_sorted_blocked_entries(
        self, monkeypatch, faulted
    ):
        original = network_module.Network._dispatch_transfers
        visited = []

        def checked(self):
            visited.append(len(self._waiting))
            original(self)
            _assert_sorted_and_blocked(self)

        monkeypatch.setattr(
            network_module.Network, "_dispatch_transfers", checked
        )
        hosts = (*SETUP.server_hosts, SETUP.client_host)
        setup = ExperimentConfig(
            num_servers=4,
            images_per_server=12,
            fault_plan=reference_chaos_plan(hosts, seed=1) if faulted else None,
        )
        run_configuration(setup, 0, Algorithm.GLOBAL)
        # The scans did have queued transfers to walk.
        assert max(visited) > 1


def _arbiter_network(caps):
    env = Environment()
    net = Network(env)
    names = [f"n{i}" for i in range(len(caps))]
    for name, cap in zip(names, caps):
        net.add_host(Host(env, name, nic_capacity=cap))
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            net.add_link(Link(a, b, constant_trace(1000.0)))
    return net, names


class _HeapDrainArbiter:
    """Reference arbiter: a heap fully drained after every send/finish."""

    def __init__(self, caps):
        self.caps = caps
        self.active = [0] * len(caps)
        self.heap = []
        self.sequence = 0
        #: Every start, in order, and the ones not yet finished.
        self.started = []
        self.live = []

    def _drain(self):
        blocked = []
        while self.heap:
            entry = heapq.heappop(self.heap)
            __, __, ident, src, dst = entry
            if (
                self.active[src] >= self.caps[src]
                or self.active[dst] >= self.caps[dst]
            ):
                blocked.append(entry)
                continue
            self.active[src] += 1
            self.active[dst] += 1
            self.started.append((ident, src, dst))
            self.live.append((src, dst))
        for entry in blocked:
            heapq.heappush(self.heap, entry)

    def send(self, ident, src, dst, priority):
        self.sequence += 1
        heapq.heappush(self.heap, (priority, self.sequence, ident, src, dst))
        self._drain()

    def finish(self, pick):
        """Finish the ``pick``-th live transfer; returns its endpoints."""
        src, dst = self.live.pop(pick % len(self.live))
        self.active[src] -= 1
        self.active[dst] -= 1
        self._drain()
        return src, dst


@st.composite
def arbiter_scripts(draw):
    caps = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    hosts = st.integers(0, len(caps) - 1)
    send = st.tuples(st.just("send"), hosts, hosts, st.integers(0, 4))
    finish = st.tuples(st.just("finish"), st.integers(0, 10**6))
    script = draw(st.lists(st.one_of(send, finish), max_size=60))
    return caps, [op for op in script if op[0] != "send" or op[1] != op[2]]


@settings(max_examples=200, deadline=None)
@given(arbiter_scripts())
def test_sorted_scan_matches_heap_drain(case):
    """Random send/finish sequences start transfers in exactly the
    order a heap-draining arbiter would, and leave the same queue."""
    caps, script = case
    net, names = _arbiter_network(caps)
    started = []
    # Record starts instead of simulating them: NICs stay held until
    # the script finishes the transfer.
    net._start_transfer = lambda message, src, dst, done: started.append(
        (message.payload["ident"], names.index(src), names.index(dst))
    )
    reference = _HeapDrainArbiter(caps)
    for ident, op in enumerate(script):
        if op[0] == "send":
            __, src, dst, priority = op
            message = Message(
                MessageKind.DATA, "@x", "@y", 0.0,
                payload={"ident": ident}, priority=priority,
            )
            net.post(message, src_host=names[src], dst_host=names[dst])
            reference.send(ident, src, dst, priority)
        elif reference.live:
            # Release the NICs exactly as _finish_transfer does.
            src, dst = reference.finish(op[1])
            net._active_transfers[names[src]] -= 1
            net._active_transfers[names[dst]] -= 1
            net._scan_needed = True
            net._dispatch_transfers()
        assert started == reference.started
        _assert_sorted_and_blocked(net)
    assert [entry[2].payload["ident"] for entry in net._waiting] == [
        entry[2] for entry in sorted(reference.heap)
    ]
