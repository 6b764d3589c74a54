"""Per-host bandwidth measurement caches."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.traces.study import pair_key


@dataclass(frozen=True)
class CacheEntry:
    """One bandwidth measurement for an unordered host pair."""

    pair: tuple[str, str]
    #: Measured application-level bandwidth, bytes/second.
    bandwidth: float
    #: Simulation time the measurement was taken.
    measured_at: float

    def age(self, now: float) -> float:
        """Seconds since the measurement was taken."""
        return now - self.measured_at


class BandwidthCache:
    """A host's cache of pairwise bandwidth measurements.

    Keeps the newest measurement per pair.  Entries are never dropped:
    the monitor judges an entry older than ``T_THRES`` stale (see
    :mod:`repro.monitor.system`), and the placement algorithms may fall
    back to it as a best guess but know it is stale.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple[str, str], CacheEntry] = {}
        #: Content version: bumped on every mutation of ``_entries``.  The
        #: piggyback layer memoizes encode/decode work against it — any
        #: two observations of the same version saw identical contents.
        self._version = 0
        #: Piggyback memo slots (owned by :mod:`repro.monitor.piggyback`):
        #: the last encode result as ``(version, budget, whole, payload)``
        #: and the last no-op decode as ``(payload, version)``.
        self._encode_memo: Optional[tuple] = None
        self._decode_memo: Optional[tuple] = None
        #: Optional hook fired whenever a strictly newer measurement is
        #: stored: ``on_new_value(pair, bandwidth, measured_at)``.  The
        #: monitoring system uses it to feed forecasters.
        self.on_new_value = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[CacheEntry]:
        return iter(self._entries.values())

    def update(self, a: str, b: str, bandwidth: float, now: float) -> bool:
        """Record a measurement; keeps only the newest per pair.

        Returns True if the cache changed.
        """
        if bandwidth < 0:
            raise ValueError(f"negative bandwidth {bandwidth!r}")
        key = pair_key(a, b)
        existing = self._entries.get(key)
        if existing is not None and existing.measured_at >= now:
            return False
        self._entries[key] = CacheEntry(key, bandwidth, now)
        self._version += 1
        if self.on_new_value is not None:
            self.on_new_value(key, bandwidth, now)
        return True

    def merge_entry(self, entry: CacheEntry) -> bool:
        """Merge a (possibly piggybacked) entry; newest measurement wins."""
        existing = self._entries.get(entry.pair)
        if existing is not None and existing.measured_at >= entry.measured_at:
            return False
        self._entries[entry.pair] = entry
        self._version += 1
        if self.on_new_value is not None:
            self.on_new_value(entry.pair, entry.bandwidth, entry.measured_at)
        return True

    def lookup_any(self, a: str, b: str) -> Optional[CacheEntry]:
        """The entry for the pair regardless of age, or None."""
        return self._entries.get(pair_key(a, b))

    def freshest(self, limit: int) -> list[CacheEntry]:
        """Up to ``limit`` entries, most recently measured first."""
        ordered = sorted(
            self._entries.values(), key=lambda e: e.measured_at, reverse=True
        )
        return ordered[:limit]
