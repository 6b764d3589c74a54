"""Persistence for traces and trace libraries (CSV and JSON).

CSV holds one ``time,rate`` row per sample (the natural interchange format
for a single trace); JSON serialises full libraries including the host
roster, so an experiment's exact network inputs can be archived alongside
its results.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Union

import numpy as np

from repro.traces.study import StudyHost, TraceLibrary, pair_key
from repro.traces.trace import BandwidthTrace

PathLike = Union[str, Path]


# -- single traces -----------------------------------------------------------
def save_trace_csv(trace: BandwidthTrace, path: PathLike) -> None:
    """Write ``trace`` as a two-column ``time,rate`` CSV with a header."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "rate_bytes_per_s"])
        for t, r in zip(trace.times, trace.rates):
            writer.writerow([repr(float(t)), repr(float(r))])


def load_trace_csv(path: PathLike, name: str = "") -> BandwidthTrace:
    """Read a trace written by :func:`save_trace_csv`."""
    times: list[float] = []
    rates: list[float] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty trace file")
        for row in reader:
            if len(row) != 2:
                raise ValueError(f"{path}: malformed row {row!r}")
            times.append(float(row[0]))
            rates.append(float(row[1]))
    return BandwidthTrace(times, rates, name=name or str(path))


def _trace_to_dict(trace: BandwidthTrace) -> dict:
    return {
        "name": trace.name,
        "times": [float(t) for t in trace.times],
        "rates": [float(r) for r in trace.rates],
    }


def _trace_from_dict(data: dict) -> BandwidthTrace:
    return BandwidthTrace(
        np.asarray(data["times"]), np.asarray(data["rates"]), name=data.get("name", "")
    )


# -- libraries ----------------------------------------------------------------
def save_library_json(library: TraceLibrary, path: PathLike) -> None:
    """Serialise a full :class:`TraceLibrary` (hosts + all pair traces)."""
    payload = {
        "hosts": [
            {"name": h.name, "region": h.region, "tz_offset_hours": h.tz_offset_hours}
            for h in library.hosts
        ],
        "traces": {
            f"{a}|{b}": _trace_to_dict(library.trace(a, b))
            for a, b in library.pairs()
        },
        "tz_offsets": {
            f"{a}|{b}": tz for (a, b), tz in sorted(library.tz_offsets.items())
        },
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_library_json(path: PathLike) -> TraceLibrary:
    """Read a library written by :func:`save_library_json`."""
    with open(path) as fh:
        payload = json.load(fh)
    hosts = [
        StudyHost(h["name"], h["region"], float(h["tz_offset_hours"]))
        for h in payload["hosts"]
    ]
    traces = {}
    for key, data in payload["traces"].items():
        a, _, b = key.partition("|")
        traces[pair_key(a, b)] = _trace_from_dict(data)
    tz_offsets = {}
    for key, tz in payload.get("tz_offsets", {}).items():
        a, _, b = key.partition("|")
        tz_offsets[pair_key(a, b)] = float(tz)
    return TraceLibrary(hosts, traces, tz_offsets)
