"""The ``repro workload`` JSON summary of a 4-query mixed-planner fleet."""

import json

from repro.cli import main
from repro.workload import LATENCY_KEYS, WORKLOAD_SCHEMA


def test_mixed_planner_fleet_summary(capsys):
    code = main(
        [
            "workload",
            "--clients", "4",
            "--queries", "1",
            "--mix", "global=1,one-shot=1",
            "--servers", "4",
            "--images", "6",
            "--seed", "7",
            "--json",
        ]
    )
    assert code == 0
    fleet = json.loads(capsys.readouterr().out)
    assert fleet["workload_schema"] == WORKLOAD_SCHEMA
    assert fleet["scheduled"] == fleet["completed"] == 4
    assert fleet["truncated"] == 0
    required = {
        "latency", "fairness_jain", "relocations", "links",
        "per_client", "queries", "elapsed",
    }
    assert required <= set(fleet)
    assert tuple(fleet["latency"]) == LATENCY_KEYS
    assert len({q["algorithm"] for q in fleet["queries"]}) >= 2
    assert 0.0 < fleet["fairness_jain"] <= 1.0
