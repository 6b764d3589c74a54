"""``repro workload --chaos`` with overload protection, end to end.

An open-loop Poisson fleet under the reference chaos plan, with
admission control tight enough (2 concurrent, queue depth 2) that it
must shed.  Every accounted outcome must reconcile back to the 12
scheduled queries.
"""

import json

from repro.cli import main


def test_admission_control_sheds_and_reconciles(capsys):
    main(
        [
            "workload",
            "--clients", "6",
            "--queries", "2",
            "--servers", "4",
            "--images", "4",
            "--seed", "7",
            "--arrivals", "open",
            "--rate", "0.02",
            "--process", "poisson",
            "--chaos",
            "--max-concurrent", "2",
            "--queue-depth", "2",
            "--deadline", "900",
            "--slo", "800",
            "--retry-budget", "1",
            "--breaker-threshold", "2",
            "--json",
        ]
    )
    fleet = json.loads(capsys.readouterr().out)
    res = fleet["resilience"]
    assert res["shed"] > 0, res
    assert res["queue_peak"] <= 2, res
    assert (
        res["shed"] + fleet["launched"] - res["retries"]
        == fleet["scheduled"]
        == 12
    ), (res, fleet["scheduled"])
    assert (
        fleet["completed"] + fleet["truncated"] + res["shed"]
        == fleet["scheduled"] + res["retries"]
    ), res
