"""Declarative, JSON-loadable fault plans.

A :class:`FaultPlan` is a *schedule* of adverse wide-area conditions that
one simulation replays deterministically:

* :class:`LinkOutage` — a host pair cannot exchange messages during a
  time window; transfers retry with bounded exponential backoff;
* :class:`LinkLoss` — each transfer attempt on a pair is lost with a
  fixed probability (drawn from a per-pair seeded stream, so the same
  plan produces the same losses regardless of sweep order);
* :class:`HostCrash` — a host is unreachable during a window (every link
  touching it behaves as in an outage);
* :class:`ProbeBlackout` — active probes fail during a window (the
  monitoring system records a probe timeout instead of a measurement).

The plan also carries the :class:`RetryPolicy` the network applies to
transfers it could not complete.  An empty plan (``FaultPlan()``) is
equivalent to no plan at all: the simulation takes the exact same code
paths and produces bit-identical metrics and traces.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Union

PathLike = Union[str, Path]


class TransferAbandoned(Exception):
    """A transfer exhausted its retry budget and was dropped.

    Raised *into* processes waiting on the delivery event; fire-and-forget
    sends defuse the failure instead (the message is simply lost).
    """


def _canonical(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class LinkOutage:
    """The pair ``(a, b)`` cannot communicate during ``[start, end)``."""

    a: str
    b: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"outage needs two distinct hosts, got {self.a!r}")
        if self.start < 0:
            raise ValueError(f"negative outage start {self.start!r}")
        if self.end <= self.start:
            raise ValueError(
                f"outage window [{self.start!r}, {self.end!r}) is empty"
            )

    @property
    def pair(self) -> tuple[str, str]:
        """Canonical (sorted) host-pair key."""
        return _canonical(self.a, self.b)


@dataclass(frozen=True)
class LinkLoss:
    """Each transfer attempt on ``(a, b)`` is lost with ``probability``."""

    a: str
    b: str
    probability: float

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError(f"loss needs two distinct hosts, got {self.a!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"loss probability must be in [0, 1], got {self.probability!r}"
            )

    @property
    def pair(self) -> tuple[str, str]:
        """Canonical (sorted) host-pair key."""
        return _canonical(self.a, self.b)


@dataclass(frozen=True)
class HostCrash:
    """``host`` is down (unreachable) during ``[start, end)``."""

    host: str
    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"negative crash start {self.start!r}")
        if self.end <= self.start:
            raise ValueError(
                f"crash window [{self.start!r}, {self.end!r}) is empty"
            )


@dataclass(frozen=True)
class ProbeBlackout:
    """Active probes fail during ``[start, end)``."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"negative blackout start {self.start!r}")
        if self.end <= self.start:
            raise ValueError(
                f"blackout window [{self.start!r}, {self.end!r}) is empty"
            )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for failed transfer attempts.

    Attempt ``n`` (1-based) that fails waits
    ``min(timeout * backoff**(n-1), max_backoff)`` seconds before the
    next attempt.  ``max_attempts=None`` retries forever — the default,
    because a lost *data* message would otherwise deadlock the
    demand-driven pipeline; bound it only for experiments that study
    abandonment.
    """

    #: Base delay before the first retransmission, seconds.
    timeout: float = 30.0
    #: Multiplier applied per failed attempt.
    backoff: float = 2.0
    #: Ceiling on the per-attempt delay, seconds.
    max_backoff: float = 240.0
    #: Attempts before the transfer is abandoned (None: never abandon).
    max_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError(f"retry timeout must be positive, got {self.timeout!r}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff factor must be >= 1, got {self.backoff!r}")
        if self.max_backoff < self.timeout:
            raise ValueError("max_backoff must be >= timeout")
        if self.max_attempts is not None and self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts!r}")

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        try:
            delay = self.timeout * self.backoff ** (attempt - 1)
        except OverflowError:
            # The power left float range (attempt 1,025 at backoff 2):
            # the ceiling applied long before.
            return self.max_backoff
        return min(delay, self.max_backoff)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, deterministic fault schedule for one simulation."""

    #: Seed of the per-pair message-loss streams.
    seed: int = 0
    link_outages: tuple[LinkOutage, ...] = ()
    link_loss: tuple[LinkLoss, ...] = ()
    host_crashes: tuple[HostCrash, ...] = ()
    probe_blackouts: tuple[ProbeBlackout, ...] = ()
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        # Accept lists from hand-built plans; store canonical tuples.
        for name in ("link_outages", "link_loss", "host_crashes", "probe_blackouts"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        seen: set[tuple[str, str]] = set()
        for loss in self.link_loss:
            if loss.pair in seen:
                raise ValueError(f"duplicate loss entry for pair {loss.pair!r}")
            seen.add(loss.pair)

    def is_empty(self) -> bool:
        """True if the plan injects nothing (the sim behaves as unfaulted)."""
        return not (
            self.link_outages
            or self.link_loss
            or self.host_crashes
            or self.probe_blackouts
        )

    def hosts_mentioned(self) -> set[str]:
        """Every host name the plan refers to."""
        hosts: set[str] = set()
        for outage in self.link_outages:
            hosts.update(outage.pair)
        for loss in self.link_loss:
            hosts.update(loss.pair)
        for crash in self.host_crashes:
            hosts.add(crash.host)
        return hosts

    def validate_hosts(self, known_hosts: Iterable[str]) -> None:
        """Raise if the plan names a host the simulation does not have."""
        unknown = sorted(self.hosts_mentioned() - set(known_hosts))
        if unknown:
            raise ValueError(f"fault plan references unknown hosts: {unknown}")

    # -- serialization ------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or hand-written JSON)."""
        known = {
            "seed",
            "retry",
            "link_outages",
            "link_loss",
            "host_crashes",
            "probe_blackouts",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown fault-plan keys: {unknown}")
        return cls(
            seed=int(payload.get("seed", 0)),
            link_outages=tuple(
                LinkOutage(**entry) for entry in payload.get("link_outages", [])
            ),
            link_loss=tuple(
                LinkLoss(**entry) for entry in payload.get("link_loss", [])
            ),
            host_crashes=tuple(
                HostCrash(**entry) for entry in payload.get("host_crashes", [])
            ),
            probe_blackouts=tuple(
                ProbeBlackout(**entry)
                for entry in payload.get("probe_blackouts", [])
            ),
            retry=RetryPolicy(**payload.get("retry", {})),
        )

    def to_json(self, path: PathLike) -> None:
        """Write the plan to a JSON file."""
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_json(cls, path: PathLike) -> "FaultPlan":
        """Load a plan from a JSON file."""
        return cls.from_dict(json.loads(Path(path).read_text()))


def reference_chaos_plan(
    hosts: "Iterable[str]", seed: int = 0, scale: int = 1
) -> FaultPlan:
    """The canonical chaos scenario over ``hosts`` (CI and ``repro chaos``).

    Deterministic given the host list and seed: an early outage and a
    later one on the first links, moderate loss on every link, one host
    crash, and a probe blackout.  Windows sit in the first half hour of
    simulated time so even small runs exercise every fault path, and
    message loss guarantees retransmissions on runs of any length.

    ``scale`` grows the scenario for fleet-level runs: ``scale=1`` is
    the plan above, bit-identical to what this function has always
    produced.  Each extra unit adds one more staggered outage wave over
    the next link pairs (round-robin) and one more host-crash window on
    the next host, pushing the chaos deeper into the run so long fleet
    workloads keep hitting fresh fault windows instead of a quiet tail.
    """
    hosts = list(hosts)
    if len(hosts) < 2:
        raise ValueError("a chaos plan needs at least two hosts")
    if scale < 1:
        raise ValueError(f"chaos scale must be >= 1, got {scale!r}")
    pairs = [
        _canonical(a, b)
        for i, a in enumerate(hosts)
        for b in hosts[i + 1 :]
    ]
    outages = [LinkOutage(*pairs[0], start=120.0, end=360.0)]
    if len(pairs) > 1:
        outages.append(LinkOutage(*pairs[1], start=900.0, end=1200.0))
    crashes = [HostCrash(hosts[0], start=600.0, end=840.0)]
    for wave in range(1, scale):
        # Staggered waves: each pushes 30 simulated minutes deeper and
        # walks round-robin through the link pairs and hosts.
        base = 1800.0 * wave
        pair = pairs[(2 * wave) % len(pairs)]
        outages.append(LinkOutage(*pair, start=base + 120.0, end=base + 420.0))
        if len(pairs) > 1:
            pair = pairs[(2 * wave + 1) % len(pairs)]
            outages.append(
                LinkOutage(*pair, start=base + 900.0, end=base + 1260.0)
            )
        crashes.append(
            HostCrash(hosts[wave % len(hosts)], start=base + 600.0, end=base + 870.0)
        )
    return FaultPlan(
        seed=seed,
        link_outages=tuple(outages),
        link_loss=tuple(LinkLoss(a, b, probability=0.08) for a, b in pairs),
        host_crashes=tuple(crashes),
        probe_blackouts=(ProbeBlackout(start=60.0, end=300.0),),
        retry=RetryPolicy(timeout=30.0, backoff=2.0, max_backoff=240.0),
    )
