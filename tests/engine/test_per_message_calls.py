"""Call-count guard for the per-message path.

Actors resolve their registry address once per move and read their
mailbox from a cache, so the registry's checked lookup
(``Network.actor_host``) runs per planning decision, not per message.
Only the local algorithm's messages carry location vectors, so only its
receivers ingest them.  Counting calls on a small run catches a change
that puts either back on the per-message path.
"""

import pytest

from repro.engine.config import Algorithm
from repro.engine.runtime import Runtime
from repro.engine.simulation import run_simulation
from repro.net.network import Network
from repro.traces import BandwidthTrace
from tests.conftest import complete_links, tiny_spec


def spec_for(algorithm):
    # Links touching h1 collapse at t=200, so the adaptive algorithms
    # have a reason to move an operator mid-run.
    hosts = [f"h{i}" for i in range(4)] + ["client"]
    links = complete_links(hosts, rate=60 * 1024.0)
    for key in list(links):
        if "h1" in key:
            links[key] = BandwidthTrace([0.0, 200.0], [80 * 1024.0, 0.5 * 1024.0])
    return tiny_spec(
        algorithm, images=20, link_traces=links, relocation_period=60.0
    )


def counted(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("algorithm", list(Algorithm), ids=lambda a: a.value)
def test_per_message_registry_and_vector_calls(monkeypatch, algorithm):
    counts: dict[str, int] = {}
    counted(monkeypatch, Network, "actor_host", counts)
    counted(monkeypatch, Runtime, "ingest_vectors", counts)
    metrics = run_simulation(spec_for(algorithm))
    assert not metrics.truncated
    delivered = metrics.transfers + metrics.local_deliveries
    assert delivered >= 200
    assert counts.get("actor_host", 0) < 0.1 * delivered
    if algorithm is Algorithm.LOCAL:
        # Actors still merge the vectors on (nearly) every receipt; the
        # rest are state transfers and probes no actor reads.
        assert counts["ingest_vectors"] > 0.9 * delivered
        assert metrics.relocations >= 1
    else:
        assert counts.get("ingest_vectors", 0) == 0
