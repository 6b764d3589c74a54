"""Run metrics, re-exported from their home in :mod:`repro.obs.metrics`."""

from repro.obs.metrics import SUMMARY_SCHEMA, RelocationEvent, RunMetrics

__all__ = ["SUMMARY_SCHEMA", "RelocationEvent", "RunMetrics"]
