"""Piggybacking recent bandwidth measurements on outgoing messages.

Paper §4: "when a message is sent between two nodes, the most recent
bandwidth values (those that fit within 1KB) are piggybacked onto the
message".  Each serialised entry carries a host pair, a bandwidth and a
timestamp; we charge 24 bytes per entry (two 2-byte host indices hardly
matter — we round up to named pairs), so 1 KB carries up to 42 entries.

Both directions are memoized against the cache's content version
(:attr:`~repro.monitor.cache.BandwidthCache._version`): a host sending a
burst of messages between cache updates encodes its freshest entries once
and attaches the same (immutable-by-convention) payload to each, and a
host receiving the same payload twice with no intervening cache change
skips the merge loop entirely.  Every memo hit is provably a no-op
replay, so results are bit-identical to the unmemoized code.
"""

from __future__ import annotations

from typing import Optional

from repro.monitor.cache import BandwidthCache, CacheEntry

#: The paper's piggyback budget.
PIGGYBACK_BUDGET_BYTES = 1024
#: Serialized size of one measurement entry (pair ids + float + timestamp).
ENTRY_BYTES = 24


def encode_piggyback(
    cache: BandwidthCache,
    budget: int = PIGGYBACK_BUDGET_BYTES,
    whole: bool = False,
) -> Optional[dict]:
    """Select the freshest cache entries that fit in ``budget`` bytes.

    Returns ``None`` when the cache is empty (no piggyback overhead is
    charged in that case), otherwise a dict with ``bytes`` (wire overhead)
    and ``entries``.  The result is a pure function of the cache contents
    and the budget, so it is memoized per cache version; consumers must
    treat the payload as immutable (the transfer engine and decoder do).

    ``whole=True`` promises that no cache on the network can hold more
    entries than fit (see :func:`whole_cache_fits`).  Every payload is
    then the whole cache, the freshest-first order only decides ties
    that no truncation ever breaks, and the entries go out in the
    cache's insertion order without a sort.
    """
    memo = cache._encode_memo
    version = cache._version
    if (
        memo is not None
        and memo[0] == version
        and memo[1] == budget
        and memo[2] == whole
    ):
        return memo[3]
    if budget < ENTRY_BYTES:
        payload = None
    else:
        if whole:
            entries = list(cache._entries.values())
        else:
            entries = cache.freshest(budget // ENTRY_BYTES)
        if not entries:
            payload = None
        else:
            payload = {"bytes": len(entries) * ENTRY_BYTES, "entries": entries}
    cache._encode_memo = (version, budget, whole, payload)
    return payload


def whole_cache_fits(num_hosts: int, budget: int) -> bool:
    """Does every cache of a ``num_hosts``-host network fit in ``budget``?

    A cache holds at most one entry per unordered host pair.
    """
    return num_hosts * (num_hosts - 1) // 2 <= budget // ENTRY_BYTES


def decode_piggyback(cache: BandwidthCache, piggyback: dict) -> int:
    """Merge piggybacked entries into ``cache``; returns how many were new.

    The merge loop is inlined (newest measurement wins, exactly
    :meth:`~repro.monitor.cache.BandwidthCache.merge_entry`) and the
    outcome is memoized: decoding a payload leaves the cache at least as
    fresh as every entry in it, so decoding the *same* payload again with
    no intervening cache change merges nothing — that replay is skipped.
    """
    memo = cache._decode_memo
    if (
        memo is not None
        and memo[0] is piggyback
        and memo[1] == cache._version
    ):
        return 0
    entries_map = cache._entries
    hook = cache.on_new_value
    merged = 0
    for entry in piggyback.get("entries", ()):
        if entry.__class__ is not CacheEntry and not isinstance(
            entry, CacheEntry
        ):
            raise TypeError(f"piggyback entry {entry!r} is not a CacheEntry")
        existing = entries_map.get(entry.pair)
        if existing is not None and existing.measured_at >= entry.measured_at:
            continue
        entries_map[entry.pair] = entry
        merged += 1
        if hook is not None:
            hook(entry.pair, entry.bandwidth, entry.measured_at)
    if merged:
        cache._version += 1
    cache._decode_memo = (piggyback, cache._version)
    return merged
