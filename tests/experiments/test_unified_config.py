"""The unified ExperimentConfig (its deprecated aliases are gone)."""

from __future__ import annotations

import csv
import pickle
import warnings
from dataclasses import fields

import pytest

import repro.experiments
import repro.experiments.report
from repro.engine.metrics import SUMMARY_SCHEMA, RelocationEvent, RunMetrics
from repro.experiments import ExperimentConfig
from repro.experiments.persistence import (
    load_runs_json,
    metrics_from_dict,
    metrics_to_dict,
    save_runs_csv,
    save_runs_json,
)

#: The fields every summary payload has carried since schema 1.
SCHEMA1_FIELDS = (
    "algorithm", "num_servers", "images", "relocations", "planner_runs",
    "placements_installed", "barrier_rounds", "barrier_stall_seconds",
    "probes_sent", "probe_bytes", "forwarded_messages", "bytes_on_wire",
    "truncated",
)

#: The CSV header, one column per summary key but ``median_gap``.
CSV_HEADER = (
    "schema,algorithm,num_servers,images,completion_time,mean_interarrival,"
    "relocations,planner_runs,placements_installed,barrier_rounds,"
    "barrier_stall_seconds,probes_sent,probe_bytes,forwarded_messages,"
    "bytes_on_wire,truncated,transfers,local_deliveries,"
    "passive_measurements,piggyback_entries_merged,retransmissions,"
    "dropped_bytes,abandoned_messages,aborted_relocations,"
    "host_downtime_seconds,probe_timeouts,planner_fallbacks"
)


def distinct_metrics() -> RunMetrics:
    """A run whose every summarized counter is distinct and non-zero."""
    summarized = RunMetrics().summary()
    values = {}
    for i, f in enumerate(fields(RunMetrics), start=1):
        if f.name in summarized:
            values[f.name] = {
                "str": "global", "bool": True, "int": i, "float": i + 0.25
            }[f.type]
    return RunMetrics(
        arrival_times=[10.0, 25.0],
        relocation_events=[RelocationEvent(5.0, "op1", "h0", "h2")],
        **values,
    )


class TestExperimentConfig:
    def test_carries_workload_and_report_knobs(self):
        config = ExperimentConfig(num_servers=4, n_configs=12, workers=2)
        assert config.server_hosts == ("h0", "h1", "h2", "h3")
        assert config.n_configs == 12
        assert config.workers == 2

    def test_no_deprecation_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ExperimentConfig(num_servers=4)

    def test_configs_for_default_and_override(self):
        assert ExperimentConfig(n_configs=30).sweep_configs == 10
        assert ExperimentConfig(n_configs=3).sweep_configs == 2

    def test_pickles_without_warning(self):
        config = ExperimentConfig(num_servers=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            copy = pickle.loads(pickle.dumps(config))
        assert copy == config


class TestAliasesAreRemoved:
    """The PR-2 deprecation cycle is over: the aliases no longer exist."""

    def test_experiment_setup_is_gone(self):
        assert not hasattr(repro.experiments, "ExperimentSetup")
        with pytest.raises(ImportError):
            from repro.experiments import ExperimentSetup  # noqa: F401

    def test_report_options_is_gone(self):
        assert not hasattr(repro.experiments.report, "ReportOptions")
        with pytest.raises(ImportError):
            from repro.experiments.report import ReportOptions  # noqa: F401


class TestSummarySchemaVersions:
    def test_summary_declares_schema(self):
        assert RunMetrics().summary()["schema"] == SUMMARY_SCHEMA == 3

    def test_reader_accepts_v3(self):
        metrics = RunMetrics(algorithm="global", transfers=9,
                             local_deliveries=4, passive_measurements=2,
                             piggyback_entries_merged=7,
                             retransmissions=5, aborted_relocations=1)
        rebuilt = metrics_from_dict(metrics_to_dict(metrics))
        assert rebuilt.transfers == 9
        assert rebuilt.piggyback_entries_merged == 7
        assert rebuilt.retransmissions == 5
        assert rebuilt.aborted_relocations == 1

    @pytest.mark.parametrize("schema", [None, 1, 2])
    def test_reader_rejects_old_schemas(self, schema):
        payload = metrics_to_dict(RunMetrics(algorithm="local"))
        payload["schema"] = schema
        if schema is None:
            del payload["schema"]
        with pytest.raises(ValueError, match="schema"):
            metrics_from_dict(payload)

    def test_every_counter_round_trips(self, tmp_path):
        metrics = distinct_metrics()
        summary = metrics.summary()
        counters = [summary[f.name] for f in fields(RunMetrics)
                    if f.name in summary]
        assert len(counters) == 24 and all(counters)
        assert len({repr(value) for value in counters}) == len(counters)

        save_runs_json([metrics], tmp_path / "runs.json")
        assert load_runs_json(tmp_path / "runs.json") == [metrics]

        save_runs_csv([metrics], tmp_path / "runs.csv")
        with open(tmp_path / "runs.csv", newline="") as fh:
            assert fh.readline().strip() == CSV_HEADER
            fh.seek(0)
            (row,) = csv.DictReader(fh)
        assert row == {
            key: str(value)
            for key, value in summary.items() if key != "median_gap"
        }

    @pytest.mark.parametrize("key", SCHEMA1_FIELDS)
    def test_reader_rejects_missing_schema1_key(self, key):
        payload = metrics_to_dict(distinct_metrics())
        del payload[key]
        with pytest.raises(KeyError, match=key):
            metrics_from_dict(payload)

    def test_reader_rejects_unknown_schema(self):
        payload = metrics_to_dict(RunMetrics())
        payload["schema"] = 99
        with pytest.raises(ValueError, match="schema"):
            metrics_from_dict(payload)
