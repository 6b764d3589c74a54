"""Piggyback encode/decode memoization: every memo hit is a no-op replay.

The encoder memoizes per cache version+budget; the decoder skips replays
of the same payload against an unchanged cache.  Both must be invisible:
identical payloads, identical merge outcomes, identical hook firings.
"""

import pytest

from repro.monitor.cache import BandwidthCache, CacheEntry
from repro.monitor.piggyback import (
    ENTRY_BYTES,
    decode_piggyback,
    encode_piggyback,
)


def _filled_cache(n: int = 5, t0: float = 0.0) -> BandwidthCache:
    cache = BandwidthCache()
    for i in range(n):
        cache.update("a", f"h{i}", 1000.0 + i, t0 + i)
    return cache


class TestEncodeMemo:
    def test_unchanged_cache_returns_same_payload_object(self):
        cache = _filled_cache()
        assert encode_piggyback(cache) is encode_piggyback(cache)

    def test_update_invalidates_memo(self):
        cache = _filled_cache()
        first = encode_piggyback(cache)
        cache.update("a", "h0", 999.0, 100.0)
        second = encode_piggyback(cache)
        assert second is not first
        newest = max(e.measured_at for e in second["entries"])
        assert newest == 100.0

    def test_budget_is_part_of_the_key(self):
        cache = _filled_cache()
        small = encode_piggyback(cache, budget=2 * ENTRY_BYTES)
        full = encode_piggyback(cache)
        assert len(small["entries"]) == 2
        assert len(full["entries"]) == 5
        # Re-asking with the small budget rebuilds (single-slot memo) but
        # yields the same selection.
        again = encode_piggyback(cache, budget=2 * ENTRY_BYTES)
        assert [e.pair for e in again["entries"]] == [
            e.pair for e in small["entries"]
        ]

    def test_empty_and_tiny_budget_memoized_none(self):
        cache = BandwidthCache()
        assert encode_piggyback(cache) is None
        assert encode_piggyback(cache) is None
        filled = _filled_cache()
        assert encode_piggyback(filled, budget=ENTRY_BYTES - 1) is None

    def test_payload_contents_match_freshest(self):
        cache = _filled_cache()
        payload = encode_piggyback(cache)
        assert payload["bytes"] == 5 * ENTRY_BYTES
        assert payload["entries"] == cache.freshest(5)


class TestDecodeMemo:
    def test_replay_of_same_payload_is_skipped_identically(self):
        sender = _filled_cache()
        payload = encode_piggyback(sender)
        receiver = BandwidthCache()
        first = decode_piggyback(receiver, payload)
        assert first == 5
        entries_after = dict(receiver._entries)
        hook_calls = []
        receiver.on_new_value = lambda *args: hook_calls.append(args)
        assert decode_piggyback(receiver, payload) == 0
        assert receiver._entries == entries_after
        assert hook_calls == []

    def test_intervening_update_reruns_decode(self):
        sender = _filled_cache()
        payload = encode_piggyback(sender)
        receiver = BandwidthCache()
        decode_piggyback(receiver, payload)
        # A *newer* local measurement changes the version; the re-decode
        # runs the merge loop (and still merges nothing new).
        receiver.update("a", "h0", 5.0, 50.0)
        assert decode_piggyback(receiver, payload) == 0

    def test_merge_semantics_match_merge_entry(self):
        sender = _filled_cache()
        payload = encode_piggyback(sender)
        inline = BandwidthCache()
        reference = BandwidthCache()
        # Pre-populate both with one newer and one older entry.
        inline.update("a", "h0", 1.0, 99.0)
        reference.update("a", "h0", 1.0, 99.0)
        inline.update("a", "h1", 2.0, -5.0)
        reference.update("a", "h1", 2.0, -5.0)
        merged = decode_piggyback(inline, payload)
        ref_merged = sum(
            reference.merge_entry(e) for e in payload["entries"]
        )
        assert merged == ref_merged
        assert inline._entries == reference._entries

    def test_hook_fires_per_merged_entry(self):
        sender = _filled_cache()
        payload = encode_piggyback(sender)
        receiver = BandwidthCache()
        calls = []
        receiver.on_new_value = lambda pair, bw, t: calls.append(pair)
        decode_piggyback(receiver, payload)
        assert sorted(calls) == sorted(e.pair for e in payload["entries"])

    def test_non_entry_payload_still_raises(self):
        receiver = BandwidthCache()
        with pytest.raises(TypeError):
            decode_piggyback(receiver, {"bytes": 24, "entries": ["junk"]})


class TestVersionCounter:
    def test_every_mutation_bumps_version(self):
        cache = BandwidthCache()
        v0 = cache._version
        cache.update("a", "b", 10.0, 1.0)
        v1 = cache._version
        assert v1 > v0
        # Rejected (older) update leaves the version alone.
        cache.update("a", "b", 20.0, 0.5)
        assert cache._version == v1
        cache.update("a", "b", 30.0, 2.0)
        v2 = cache._version
        assert v2 > v1
        assert cache.merge_entry(CacheEntry(("a", "b"), 40.0, 3.0))
        v3 = cache._version
        assert v3 > v2
        assert not cache.merge_entry(CacheEntry(("a", "b"), 50.0, 2.5))
        assert cache._version == v3
