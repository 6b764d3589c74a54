"""Whole-cache piggybacks: insertion order is as good as freshest-first.

When no cache on the network can hold more pairs than the piggyback
budget carries (``whole_cache_fits``), every payload is the whole cache
and the sort in ``BandwidthCache.freshest`` only picks an order.  The
property below runs the same random measure/update/send sequence on
two worlds of caches, one fed insertion-order payloads
(``whole=True``) and one fed ``freshest()`` payloads, and requires the
same payload sizes, the same merge counts and the same entry object per
pair everywhere.  Networks with more pairs than the budget keep
``freshest(limit)``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.monitor.cache import BandwidthCache, CacheEntry
from repro.monitor.piggyback import (
    ENTRY_BYTES,
    PIGGYBACK_BUDGET_BYTES,
    decode_piggyback,
    encode_piggyback,
    whole_cache_fits,
)
from repro.monitor.system import MonitoringSystem
from repro.net.host import Host
from repro.net.network import Network
from repro.sim import Environment


@st.composite
def scenarios(draw):
    """A host count of at most 9 and a sequence of cache operations."""
    n = draw(st.integers(min_value=2, max_value=9))
    hosts = [f"h{i}" for i in range(n)]
    pairs = st.tuples(st.sampled_from(hosts), st.sampled_from(hosts)).filter(
        lambda pair: pair[0] != pair[1]
    )
    # Few distinct timestamps, so freshest() has ties to break.
    stamps = st.integers(min_value=0, max_value=12).map(float)
    op = st.one_of(
        st.tuples(st.just("measure"), st.integers(0, n - 1), pairs, stamps),
        st.tuples(st.just("update"), st.integers(0, n - 1), pairs, stamps),
        st.tuples(st.just("send"), st.integers(0, n - 1), st.integers(0, n - 1)),
    )
    return n, draw(st.lists(op, max_size=120))


def token(entry, pool_ids):
    """The entry object itself when it came from the shared pool, else
    its value (an update builds a fresh entry in each world)."""
    if id(entry) in pool_ids:
        return entry
    return (entry.pair, entry.bandwidth, entry.measured_at)


@given(scenarios())
@settings(max_examples=150, deadline=None)
def test_insertion_order_payloads_match_freshest(scenario):
    n, ops = scenario
    assert whole_cache_fits(n, PIGGYBACK_BUDGET_BYTES)
    whole = [BandwidthCache() for _ in range(n)]
    fresh = [BandwidthCache() for _ in range(n)]
    pool = []
    for step, op in enumerate(ops):
        kind = op[0]
        if kind == "measure":
            _, host, (a, b), stamp = op
            entry = CacheEntry(tuple(sorted((a, b))), 1000.0 + step, stamp)
            pool.append(entry)
            assert whole[host].merge_entry(entry) == fresh[host].merge_entry(entry)
        elif kind == "update":
            _, host, (a, b), stamp = op
            assert whole[host].update(a, b, 2000.0 + step, stamp) == (
                fresh[host].update(a, b, 2000.0 + step, stamp)
            )
        else:
            _, src, dst = op
            sent = encode_piggyback(whole[src], whole=True)
            reference = encode_piggyback(fresh[src])
            if reference is None:
                assert sent is None
                continue
            assert sent["bytes"] == reference["bytes"]
            assert sent["entries"] == list(whole[src])
            assert decode_piggyback(whole[dst], sent) == (
                decode_piggyback(fresh[dst], reference)
            )
    pool_ids = {id(entry) for entry in pool}
    for mine, theirs in zip(whole, fresh):
        assert {p: token(e, pool_ids) for p, e in mine._entries.items()} == {
            p: token(e, pool_ids) for p, e in theirs._entries.items()
        }
        assert (encode_piggyback(mine, whole=True) or {}).get("bytes") == (
            (encode_piggyback(theirs) or {}).get("bytes")
        )


def test_fits_counts_pairs_against_the_budget():
    limit = PIGGYBACK_BUDGET_BYTES // ENTRY_BYTES
    assert limit == 42
    assert whole_cache_fits(9, PIGGYBACK_BUDGET_BYTES)  # 36 pairs
    assert not whole_cache_fits(10, PIGGYBACK_BUDGET_BYTES)  # 45 pairs
    assert whole_cache_fits(5, 10 * ENTRY_BYTES)
    assert not whole_cache_fits(6, 10 * ENTRY_BYTES)


def monitored(num_hosts):
    env = Environment()
    network = Network(env)
    hosts = [f"h{i}" for i in range(num_hosts)]
    for name in hosts:
        network.add_host(Host(env, name))
    return hosts, MonitoringSystem(network)


def fill(monitoring, hosts):
    """Every pair of ``hosts`` into ``hosts[0]``'s cache, with tied and
    out-of-order timestamps."""
    cache = monitoring.cache_for(hosts[0])
    for i, a in enumerate(hosts):
        for j, b in enumerate(hosts[i + 1 :], start=i + 1):
            cache.update(a, b, 1000.0 + i + j, float((7 * i + j) % 5))
    return cache


def test_paper_scale_network_sends_insertion_order():
    hosts, monitoring = monitored(9)
    cache = fill(monitoring, hosts)
    payload = monitoring._piggyback_source(hosts[0], hosts[1])
    assert payload["entries"] == list(cache)
    assert payload["bytes"] == 36 * ENTRY_BYTES


def test_network_over_budget_still_sends_freshest():
    hosts, monitoring = monitored(10)
    cache = fill(monitoring, hosts)
    limit = PIGGYBACK_BUDGET_BYTES // ENTRY_BYTES
    payload = monitoring._piggyback_source(hosts[0], hosts[1])
    assert payload["entries"] == cache.freshest(limit)
    assert len(payload["entries"]) == limit < len(cache)


def test_host_joining_later_re_decides():
    hosts, monitoring = monitored(9)
    network = monitoring.network
    network.add_host(Host(network.env, "late"))
    cache = fill(monitoring, hosts + ["late"])
    payload = monitoring._piggyback_source(hosts[0], "late")
    assert payload["entries"] == cache.freshest(PIGGYBACK_BUDGET_BYTES // ENTRY_BYTES)
