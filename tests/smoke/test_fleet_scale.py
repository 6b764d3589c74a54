"""A sharded fleet without per-query records: counts and memory.

The fleet runs in a fresh interpreter so the peak-RSS bound measures
the fleet alone, not the rest of the test run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.workload import WORKLOAD_SCHEMA

ROOT = Path(__file__).resolve().parents[2]

#: Peak resident set of the whole smoke process, in MiB.
RSS_BOUND_MIB = 1024


def run_fleet() -> dict:
    """Run the fleet whole, sharded in parallel and sharded serially."""
    import resource

    from repro.engine.config import Algorithm
    from repro.workload import (
        ClosedLoop,
        QueryClass,
        WorkloadSpec,
        run_workload,
        run_workload_sharded,
    )

    spec = WorkloadSpec(
        classes=(
            QueryClass(name="global", algorithm=Algorithm.GLOBAL),
            QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
        ),
        num_clients=6,
        queries_per_client=2,
        arrivals=ClosedLoop(think_time=2.0),
        seed=7,
        num_servers=4,
        images_per_server=4,
        exact_metrics_threshold=0,
    )
    single = run_workload(spec)
    sharded = run_workload_sharded(spec, 3, workers=3)
    serial = run_workload_sharded(spec, 3, workers=1)
    return {
        "single": single.fleet,
        "sharded": sharded.fleet,
        "serial_equals_parallel": serial.fleet == sharded.fleet,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def test_sharded_fleet_without_records():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH", "")]
    )
    code = "import json, tests.smoke.test_fleet_scale as t; print(json.dumps(t.run_fleet()))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    single, sharded = result["single"], result["sharded"]
    # Per-shard substrates differ from the shared-network run, so counts
    # (not latencies) are the cross-check; the order invariance of the
    # merge itself is pinned by tests/workload/test_sink.py.
    assert sharded["workload_schema"] == WORKLOAD_SCHEMA
    assert sharded["mode"] == "streaming"
    assert "queries" not in sharded
    assert sharded["scheduled"] == single["scheduled"] == 12
    assert sharded["launched"] == 12
    assert sharded["clients"]["total"] == 6
    assert result["serial_equals_parallel"]
    assert result["rss_mib"] < RSS_BOUND_MIB, result["rss_mib"]
