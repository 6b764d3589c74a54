"""Persisting experiment results (JSON and CSV).

Sweeps over hundreds of configurations are expensive; these helpers
archive per-run metrics so analyses can be re-done without re-simulating.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields
from pathlib import Path
from typing import Iterable, Sequence, Union

from repro.obs.metrics import SUMMARY_SCHEMA, RelocationEvent, RunMetrics

PathLike = Union[str, Path]

_SUMMARY_KEYS = tuple(RunMetrics().summary())
#: The :class:`RunMetrics` fields a summary persists, in field order.
_PERSISTED = [f.name for f in fields(RunMetrics) if f.name in _SUMMARY_KEYS]


def metrics_to_dict(metrics: RunMetrics, include_arrivals: bool = True) -> dict:
    """JSON-serializable form of one run's metrics."""
    payload = metrics.summary()
    if include_arrivals:
        payload["arrival_times"] = list(metrics.arrival_times)
    payload["relocation_events"] = [
        {
            "time": event.time,
            "actor": event.actor,
            "old_host": event.old_host,
            "new_host": event.new_host,
            "state_bytes": event.state_bytes,
        }
        for event in metrics.relocation_events
    ]
    return payload


def metrics_from_dict(payload: dict) -> RunMetrics:
    """Rebuild :class:`RunMetrics` from :func:`metrics_to_dict` output.

    Only the current :data:`~repro.obs.metrics.SUMMARY_SCHEMA` is read;
    another ``"schema"`` raises ``ValueError`` and a payload missing a
    persisted field raises ``KeyError``.
    """
    schema = payload.get("schema")
    if schema != SUMMARY_SCHEMA:
        raise ValueError(f"unsupported metrics schema {schema!r}")
    counters = {name: payload[name] for name in _PERSISTED}
    metrics = RunMetrics(
        arrival_times=list(payload.get("arrival_times", [])), **counters
    )
    for event in payload.get("relocation_events", []):
        metrics.relocation_events.append(
            RelocationEvent(
                event["time"],
                event["actor"],
                event["old_host"],
                event["new_host"],
                event.get("state_bytes", 0.0),
            )
        )
    return metrics


def save_runs_json(runs: Iterable[RunMetrics], path: PathLike) -> None:
    """Archive a collection of runs as a JSON list."""
    payload = [metrics_to_dict(metrics) for metrics in runs]
    Path(path).write_text(json.dumps(payload, indent=2))


def load_runs_json(path: PathLike) -> list[RunMetrics]:
    """Load runs archived by :func:`save_runs_json`."""
    payload = json.loads(Path(path).read_text())
    return [metrics_from_dict(entry) for entry in payload]


#: Columns of the flat CSV export (one row per run): every summary key
#: but ``median_gap``, in summary order.
CSV_FIELDS = tuple(key for key in _SUMMARY_KEYS if key != "median_gap")


def save_runs_csv(runs: Sequence[RunMetrics], path: PathLike) -> None:
    """One row per run; columns are :data:`CSV_FIELDS`."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS)
        writer.writeheader()
        for metrics in runs:
            summary = metrics.summary()
            writer.writerow({key: summary[key] for key in CSV_FIELDS})
