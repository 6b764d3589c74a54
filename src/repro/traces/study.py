"""The synthetic stand-in for the paper's multi-day Internet bandwidth study.

The paper collected two-day bandwidth traces between "US hosts (east coast,
west coast, midwest and south), European hosts (in Spain, France and
Austria) and one host in Brazil" and assigned those traces uniformly at
random to the links of a complete graph for each experiment configuration.

:class:`InternetStudy` reproduces the study: it defines a comparable host
roster, derives a base rate for every host pair from a region-pair rate
table (late-1990s application-level TCP rates), and synthesises a two-day
trace per pair with :class:`~repro.traces.synthetic.SyntheticTraceModel`.
The result is a :class:`TraceLibrary` from which experiment configurations
draw random link assignments, exactly as in §4 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from repro.traces.synthetic import KB, SyntheticTraceModel, TraceGenParams
from repro.traces.trace import BandwidthTrace


@dataclass(frozen=True)
class StudyHost:
    """A host participating in the bandwidth study."""

    name: str
    #: Coarse region key used to look up pairwise base rates.
    region: str
    #: Hours ahead of UTC (eastern US is -5, central Europe +1, ...).
    tz_offset_hours: float

    def __str__(self) -> str:
        return self.name


#: The default roster, mirroring the paper's geography (12 hosts ⇒ 66 pairs,
#: "a large number of host-pairs").
DEFAULT_HOSTS: tuple[StudyHost, ...] = (
    StudyHost("umd", "us-east", -5.0),
    StudyHost("rutgers", "us-east", -5.0),
    StudyHost("ucla", "us-west", -8.0),
    StudyHost("ucsb", "us-west", -8.0),
    StudyHost("wisc", "us-midwest", -6.0),
    StudyHost("uiuc", "us-midwest", -6.0),
    StudyHost("utexas", "us-south", -6.0),
    StudyHost("gatech", "us-south", -5.0),
    StudyHost("upm-es", "eu", 1.0),
    StudyHost("inria-fr", "eu", 1.0),
    StudyHost("tuwien-at", "eu", 1.0),
    StudyHost("ufrj-br", "br", -3.0),
)

#: Median application-level TCP bandwidth (bytes/s) by region pair,
#: late-1990s levels (16 KB messages over shared transit links).  Keys are
#: frozensets of region names; same-region pairs use the singleton set.
REGION_PAIR_BASE_RATES: dict[frozenset[str], float] = {
    frozenset({"us-east"}): 55 * KB,
    frozenset({"us-west"}): 55 * KB,
    frozenset({"us-midwest"}): 55 * KB,
    frozenset({"us-south"}): 55 * KB,
    frozenset({"us-east", "us-west"}): 30 * KB,
    frozenset({"us-east", "us-midwest"}): 40 * KB,
    frozenset({"us-east", "us-south"}): 40 * KB,
    frozenset({"us-west", "us-midwest"}): 35 * KB,
    frozenset({"us-west", "us-south"}): 30 * KB,
    frozenset({"us-midwest", "us-south"}): 40 * KB,
    frozenset({"eu"}): 35 * KB,
    frozenset({"us-east", "eu"}): 12 * KB,
    frozenset({"us-west", "eu"}): 9 * KB,
    frozenset({"us-midwest", "eu"}): 10 * KB,
    frozenset({"us-south", "eu"}): 10 * KB,
    frozenset({"br"}): 12 * KB,
    frozenset({"us-east", "br"}): 6 * KB,
    frozenset({"us-west", "br"}): 5 * KB,
    frozenset({"us-midwest", "br"}): 5 * KB,
    frozenset({"us-south", "br"}): 6 * KB,
    frozenset({"eu", "br"}): 3 * KB,
}

#: Lognormal sigma applied to the base rate per pair (path diversity).
#: Late-1990s application-level rates spanned orders of magnitude between
#: pairs; this default reproduces that spread.
DEFAULT_PAIR_RATE_SIGMA = 0.85


def pair_key(a: str, b: str) -> tuple[str, str]:
    """Canonical (sorted) key for an unordered host pair."""
    if a == b:
        raise ValueError(f"a host has no trace to itself: {a!r}")
    return (a, b) if a < b else (b, a)


class TraceLibrary:
    """A collection of per-host-pair bandwidth traces.

    The library is what the experiment harness samples from: each network
    configuration assigns one library trace to every link of the complete
    graph, uniformly at random (with replacement), as in the paper.
    """

    def __init__(
        self,
        hosts: Sequence[StudyHost],
        traces: dict[tuple[str, str], BandwidthTrace],
        tz_offsets: Optional[dict[tuple[str, str], float]] = None,
    ) -> None:
        self.hosts = tuple(hosts)
        self._traces = dict(traces)
        #: Effective timezone (hours from UTC) of each pair's path; used to
        #: extract the "experiments start at noon" segments (§4).
        self.tz_offsets = dict(tz_offsets or {})
        host_names = {h.name for h in hosts}
        for a, b in self._traces:
            if a not in host_names or b not in host_names:
                raise ValueError(f"trace for unknown host pair ({a!r}, {b!r})")
        #: Sorted key tuple, computed once: :meth:`sample_noon_segments`
        #: draws by index into this tuple, so sampling is O(1) per draw
        #: instead of re-sorting all pair keys — and the draw order is
        #: frozen at construction, immune to any later mutation of
        #: ``_traces``.
        self._sorted_keys: tuple[tuple[str, str], ...] = tuple(
            sorted(self._traces)
        )
        #: Per-pair noon segments, built once on first use (or eagerly by
        #: :meth:`warm_noon_segments`).  A noon segment depends only on the
        #: pair's trace and timezone — both frozen — so every draw of a
        #: pair returns the *same* immutable segment object, prefix sums
        #: precomputed and shared read-only across configurations, runs
        #: and sweep workers.
        self._noon_segments: dict[tuple[str, str], BandwidthTrace] = {}

    def __len__(self) -> int:
        return len(self._traces)

    def pairs(self) -> Iterator[tuple[str, str]]:
        """Iterate over the host pairs with traces, in sorted order."""
        return iter(self._sorted_keys)

    def trace(self, a: str, b: str) -> BandwidthTrace:
        """The trace for the unordered pair ``{a, b}``."""
        return self._traces[pair_key(a, b)]

    def all_traces(self) -> list[BandwidthTrace]:
        """All traces, ordered by their (sorted) pair key."""
        return [self._traces[key] for key in self._sorted_keys]

    def noon_segment_for(self, key: tuple[str, str]) -> BandwidthTrace:
        """The (cached) noon-rebased segment of one pair's trace."""
        segment = self._noon_segments.get(key)
        if segment is None:
            tz = self.tz_offsets.get(key, 0.0)
            segment = noon_segment(self._traces[key], tz).ensure_cum()
            self._noon_segments[key] = segment
        return segment

    def warm_noon_segments(self) -> "TraceLibrary":
        """Precompute every pair's noon segment (and its prefix sums).

        Sweep drivers and pool workers call this once so that configuration
        sampling never builds a segment inside a timed/simulated region;
        returns ``self`` for chaining.
        """
        for key in self._sorted_keys:
            self.noon_segment_for(key)
        return self

    def sample_noon_segments(
        self, rng: np.random.Generator, n: int
    ) -> list[BandwidthTrace]:
        """Draw ``n`` traces uniformly at random (with replacement), each
        rebased to start at its path's local noon, with one vectorized
        index draw.

        This is how experiment configurations consume the library: "all
        experiments were run as if they started at noon" (§4).  Segments
        are cached per pair, so repeated draws of one pair return the same
        immutable object (bit-identical values to rebuilding it).  The
        PCG64 ``integers`` stream is identical drawn one at a time or as
        a batch, so this is exactly ``n`` scalar draws (the reference in
        ``tests/oracles/library_draws.py``).
        """
        keys = self._sorted_keys
        indices = rng.integers(len(keys), size=n)
        return [self.noon_segment_for(keys[i]) for i in indices]


class InternetStudy:
    """Synthesises the paper's multi-day bandwidth study.

    Parameters
    ----------
    hosts:
        Host roster; defaults to :data:`DEFAULT_HOSTS`.
    params:
        Trace-model knobs.
    seed:
        Master seed; the same seed always yields the same library.
    """

    def __init__(
        self,
        hosts: Sequence[StudyHost] = DEFAULT_HOSTS,
        params: Optional[TraceGenParams] = None,
        seed: int = 1998,
        pair_rate_sigma: float = DEFAULT_PAIR_RATE_SIGMA,
    ) -> None:
        if len(hosts) < 2:
            raise ValueError("the study needs at least two hosts")
        if pair_rate_sigma < 0:
            raise ValueError("pair_rate_sigma must be non-negative")
        names = [h.name for h in hosts]
        if len(set(names)) != len(names):
            raise ValueError("host names must be unique")
        self.hosts = tuple(hosts)
        self.params = params or TraceGenParams()
        self.seed = seed
        self.pair_rate_sigma = pair_rate_sigma
        self._model = SyntheticTraceModel(self.params)

    def base_rate(self, a: StudyHost, b: StudyHost) -> float:
        """Region-table base rate (bytes/s) for a host pair."""
        key = frozenset({a.region, b.region})
        try:
            return REGION_PAIR_BASE_RATES[key]
        except KeyError:
            raise KeyError(
                f"no base rate for region pair {sorted(key)!r}"
            ) from None

    def run(self) -> TraceLibrary:
        """Collect the study: one two-day trace per host pair."""
        rng = np.random.default_rng(self.seed)
        traces: dict[tuple[str, str], BandwidthTrace] = {}
        tz_offsets: dict[tuple[str, str], float] = {}
        for i, a in enumerate(self.hosts):
            for b in self.hosts[i + 1 :]:
                key = pair_key(a.name, b.name)
                base = self.base_rate(a, b)
                # Path diversity: individual pairs deviate from the
                # regional median by a lognormal factor.
                base *= float(np.exp(rng.normal(0.0, self.pair_rate_sigma)))
                tz = (a.tz_offset_hours + b.tz_offset_hours) / 2.0
                tz_offsets[key] = tz
                traces[key] = self._model.generate(
                    base_rate=base,
                    rng=rng,
                    tz_offset_hours=tz,
                    name=f"{key[0]}~{key[1]}",
                )
        return TraceLibrary(self.hosts, traces, tz_offsets)


def noon_segment(trace: BandwidthTrace, tz_offset_hours: float = 0.0) -> BandwidthTrace:
    """The trace from the first local noon onward, rebased to t=0.

    The paper ran every experiment "as if it started at noon"; trace time 0
    is midnight UTC, so local noon is ``(12 - tz) * 3600`` UTC seconds.
    """
    noon_utc = ((12.0 - tz_offset_hours) % 24.0) * 3600.0
    segment = trace.segment(noon_utc, trace.end)
    return segment.rebased(0.0)
