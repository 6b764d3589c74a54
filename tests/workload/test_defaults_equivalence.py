"""Overload knobs at defaults leave the engine bit-identical.

The overload-protection layer (admission control, deadlines, retry
budgets, circuit breakers — :mod:`repro.workload.overload`) must be
*invisible* when nothing is configured: a workload spec with no
``overload`` policy and no per-class deadlines/SLOs takes exactly the
pre-overload code paths.  This module pins that with a golden generated
before the layer existed: the fleet summaries with and without
per-query records and a sha256 digest of the normalized obs stream, for
a chaos-faulted fleet whose mix covers all four placement algorithms.
(The summaries were re-recorded once, when the fleet-metrics sinks
folded into one summary schema; the obs digest is the original.)

Regenerate (only when an *intentional* engine change lands)::

    PYTHONPATH=src python tests/workload/test_defaults_equivalence.py --regen
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

from repro.engine.config import Algorithm
from repro.faults import reference_chaos_plan
from repro.obs import Tracer
from repro.workload import OpenLoop, QueryClass, WorkloadSpec, run_workload

GOLDEN_PATH = Path(__file__).parent / "data" / "defaults_equivalence.json"


def golden_spec() -> WorkloadSpec:
    """A small chaos-faulted fleet whose mix covers all four algorithms."""
    classes = tuple(
        QueryClass(name=algorithm.value, algorithm=algorithm)
        for algorithm in Algorithm
    )
    hosts = (*[f"h{i}" for i in range(4)], "client")
    return WorkloadSpec(
        classes=classes,
        num_clients=4,
        queries_per_client=2,
        arrivals=OpenLoop(rate=0.01, process="poisson"),
        seed=11,
        num_servers=4,
        images_per_server=3,
        fault_plan=reference_chaos_plan(hosts, seed=3),
    )


def stream_digest(events) -> str:
    """Content hash of an obs stream with run-relative message uids."""
    uids = sorted({e["uid"] for e in events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    normalized = [
        {**e, "uid": rank[e["uid"]]} if "uid" in e else e for e in events
    ]
    return hashlib.sha256(
        json.dumps(normalized, sort_keys=True).encode()
    ).hexdigest()


def compute_current() -> dict:
    """What the engine produces today for the golden spec."""
    spec = golden_spec()
    tracer = Tracer()
    exact = run_workload(spec, tracer=tracer)
    streaming = run_workload(replace(spec, exact_metrics_threshold=0))
    algorithms = sorted({q["algorithm"] for q in exact.fleet["queries"]})
    return {
        "algorithms": algorithms,
        "exact_summary": exact.fleet,
        "streaming_summary": streaming.fleet,
        "obs_digest": stream_digest(tracer.events),
    }


def test_defaults_are_bit_identical_to_pre_overload_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    current = compute_current()
    assert current["algorithms"] == golden["algorithms"]
    # The mix must genuinely exercise every algorithm, faults included.
    assert len(golden["algorithms"]) == len(Algorithm)
    assert current["exact_summary"] == golden["exact_summary"]
    assert current["streaming_summary"] == golden["streaming_summary"]
    assert current["obs_digest"] == golden["obs_digest"]


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        raise SystemExit("pass --regen to rewrite the golden")
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_current(), indent=2) + "\n")
    print(f"golden written to {GOLDEN_PATH}")
