"""Point-to-point links with trace-driven, time-varying bandwidth."""

from __future__ import annotations

from repro.traces.trace import BandwidthTrace, TraceCursor

#: The paper's per-message startup cost: 50 milliseconds.
DEFAULT_STARTUP_COST = 0.050


class Link:
    """The (symmetric) network path between two hosts.

    Transmission of ``n`` bytes starting at time ``t`` takes
    ``startup_cost + T`` where ``T`` integrates the bandwidth trace from
    ``t + startup_cost`` until ``n`` bytes have flowed.
    """

    def __init__(
        self,
        a: str,
        b: str,
        trace: BandwidthTrace,
        startup_cost: float = DEFAULT_STARTUP_COST,
    ) -> None:
        if a == b:
            raise ValueError(f"a link needs two distinct hosts, got {a!r} twice")
        if startup_cost < 0:
            raise ValueError(f"negative startup cost {startup_cost!r}")
        self.a, self.b = (a, b) if a < b else (b, a)
        self.trace = trace
        self.startup_cost = startup_cost
        #: Amortized segment cursor for this link's queries.  Simulation
        #: time is (mostly) monotone per link, so successive transfer-time
        #: lookups advance this pointer a step or two instead of paying a
        #: binary search; out-of-order queries fall back transparently.
        #: Lives on the link — traces are shared read-only across links,
        #: runs and workers, so they must stay stateless.
        self._cursor = TraceCursor()

    @property
    def key(self) -> tuple[str, str]:
        """Canonical (sorted) host-pair key."""
        return (self.a, self.b)

    def transmission_time(self, nbytes: float, start_time: float) -> float:
        """Seconds to push ``nbytes`` onto the wire starting at ``start_time``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes!r}")
        if start_time < 0:
            raise ValueError(f"negative start time {start_time!r}")
        if nbytes == 0:
            return self.startup_cost
        return self.startup_cost + self.trace.transfer_time(
            nbytes, start_time + self.startup_cost, hint=self._cursor
        )

    def __repr__(self) -> str:
        return f"<Link {self.a}~{self.b} trace={self.trace.name!r}>"
