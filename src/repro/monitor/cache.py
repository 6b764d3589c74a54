"""Per-host bandwidth measurement caches with timeout semantics."""

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

    ``lookup`` distinguishes *fresh* entries (younger than ``t_thres``)
    from stale ones; the placement algorithms may fall back to stale
    entries as a best guess but know they are stale.

    ``smoothing`` exponentially averages successive measurements of the
    same pair (NWS-style forecasting): the stored value is
    ``alpha * measured + (1 - alpha) * previous``.  ``smoothing=1``
    disables it (keep raw last measurements).
    """

    def __init__(self, t_thres: float = 40.0, smoothing: float = 1.0) -> None:
        if t_thres <= 0:
            raise ValueError(f"t_thres must be positive, got {t_thres!r}")
        if not 0 < smoothing <= 1:
            raise ValueError(f"smoothing must be in (0, 1], got {smoothing!r}")
        self.t_thres = t_thres
        self.smoothing = smoothing
        #: Smoothing only blends measurements taken close together; a new
        #: measurement replaces (rather than averages with) one older than
        #: this horizon, so stale history cannot drag estimates around.
        self.smoothing_horizon = 4.0 * t_thres
        self._entries: dict[tuple[str, str], CacheEntry] = {}
        #: Content version: bumped on every mutation of ``_entries``.  The
        #: piggyback layer memoizes encode/decode work against it — any
        #: two observations of the same version saw identical contents.
        self._version = 0
        #: Piggyback memo slots (owned by :mod:`repro.monitor.piggyback`):
        #: the last encode result as ``(version, budget, payload)`` and the
        #: last no-op decode as ``(payload, version)``.
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
        if (
            existing is not None
            and self.smoothing < 1.0
            and now - existing.measured_at <= self.smoothing_horizon
        ):
            bandwidth = (
                self.smoothing * bandwidth
                + (1.0 - self.smoothing) * existing.bandwidth
            )
        self._entries[key] = CacheEntry(key, bandwidth, now)
        self._version += 1
        if self.on_new_value is not None:
            self.on_new_value(key, bandwidth, now)
        return True

    def force_set(self, a: str, b: str, bandwidth: float, now: float) -> None:
        """Overwrite the pair's entry, bypassing smoothing.

        Used by multi-sample probes, which compute their own average.
        """
        if bandwidth < 0:
            raise ValueError(f"negative bandwidth {bandwidth!r}")
        key = pair_key(a, b)
        self._entries[key] = CacheEntry(key, bandwidth, now)
        self._version += 1
        if self.on_new_value is not None:
            self.on_new_value(key, bandwidth, now)

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

    def lookup(self, a: str, b: str, now: float) -> Optional[CacheEntry]:
        """The *fresh* entry for the pair, or None if absent/timed out."""
        entry = self._entries.get(pair_key(a, b))
        if entry is None or now - entry.measured_at > self.t_thres:
            return None
        return entry

    def lookup_any(self, a: str, b: str) -> Optional[CacheEntry]:
        """The entry for the pair regardless of age (stale fallback)."""
        return self._entries.get(pair_key(a, b))

    def is_fresh(self, a: str, b: str, now: float) -> bool:
        """True if a non-timed-out measurement exists for the pair."""
        return self.lookup(a, b, now) is not None

    def freshest(self, limit: int) -> list[CacheEntry]:
        """Up to ``limit`` entries, most recently measured first."""
        ordered = sorted(
            self._entries.values(), key=lambda e: e.measured_at, reverse=True
        )
        return ordered[:limit]

    def evict_older_than(self, cutoff: float) -> int:
        """Drop entries measured before ``cutoff``; returns the count dropped."""
        victims = [k for k, e in self._entries.items() if e.measured_at < cutoff]
        for key in victims:
            del self._entries[key]
        if victims:
            self._version += 1
        return len(victims)
