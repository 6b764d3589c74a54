"""Pin the sweep pipeline to its pre-optimization behaviour, bit for bit.

The shared-configuration sweep engine (configuration draws through
cached noon segments, worker-resident state, amortized
transfer-time cursors, arbiter fast paths, piggyback memoization) promises
that every one of its layers is a pure reorganization: per-run
:class:`~repro.engine.metrics.RunMetrics` *and* the full obs event stream
must be identical to what the pre-change implementation produced.

The golden file was generated by running this module as a script against
the pre-change tree (``python -m tests.experiments.test_sweep_identity``)
and must **not** be regenerated alongside optimization changes — it is the
contract those changes are held to.  A change that alters the event
stream *by design* may re-record it once, with a reviewed diff in which
only ``events`` and ``events_sha256`` move: every ``summary`` and
``fleet`` field stays byte-identical.  (The last such change: each
initial plan reads one ``monitor.estimate`` per host pair from a frozen
snapshot, stamped at the query's launch time.)  The ``fleet`` summary
was re-recorded once on its own, with every event and run summary
unchanged, when the fleet-metrics sinks folded into one summary schema.
Covered: all four
algorithms, a faulted run (chaos plan), and a concurrent workload fleet.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.engine.config import Algorithm
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_configuration
from repro.faults import reference_chaos_plan
from repro.obs import Tracer

GOLDEN = Path(__file__).parent / "data" / "sweep_identity_golden.json"

ALGORITHMS = [
    Algorithm.DOWNLOAD_ALL,
    Algorithm.ONE_SHOT,
    Algorithm.LOCAL,
    Algorithm.GLOBAL,
]

#: Small but non-trivial scale: relocations and piggybacking both happen.
SETUP = ExperimentConfig(num_servers=4, images_per_server=12)
CONFIG_INDICES = (0, 1)


def _normalized_events(tracer: Tracer) -> list:
    """Events with per-run-relative message uids (the uid counter is
    process-global, so raw uids differ run to run by a constant offset)."""
    uids = sorted({e["uid"] for e in tracer.events if "uid" in e})
    rank = {uid: i for i, uid in enumerate(uids)}
    normalized = []
    for event in tracer.events:
        if "uid" in event:
            event = {**event, "uid": rank[event["uid"]]}
        normalized.append(event)
    return normalized


def _digest(payload) -> str:
    """Stable content hash of a JSON-serializable payload."""
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _run_fingerprint(setup: ExperimentConfig, index: int, algorithm: Algorithm):
    tracer = Tracer()
    metrics = run_configuration(setup, index, algorithm, tracer=tracer)
    summary = dict(metrics.summary())
    summary["arrival_times"] = list(metrics.arrival_times)
    return {
        "summary": summary,
        "events": len(tracer.events),
        "events_sha256": _digest(_normalized_events(tracer)),
    }


def _faulted_setup() -> ExperimentConfig:
    hosts = (*SETUP.server_hosts, SETUP.client_host)
    return ExperimentConfig(
        num_servers=4,
        images_per_server=12,
        fault_plan=reference_chaos_plan(hosts, seed=1),
    )


def _workload_fingerprint():
    from repro.workload import ClosedLoop, QueryClass, WorkloadSpec, run_workload

    spec = WorkloadSpec(
        classes=(
            QueryClass(name="global", algorithm=Algorithm.GLOBAL),
            QueryClass(name="one-shot", algorithm=Algorithm.ONE_SHOT),
        ),
        num_clients=2,
        queries_per_client=2,
        arrivals=ClosedLoop(think_time=2.0),
        seed=7,
        num_servers=4,
        images_per_server=6,
    )
    tracer = Tracer()
    result = run_workload(spec, tracer=tracer)
    return {
        "fleet": result.to_dict(),
        "events": len(tracer.events),
        "events_sha256": _digest(_normalized_events(tracer)),
    }


def generate_golden() -> dict:
    golden: dict = {"runs": {}, "faulted": {}, "workload": None}
    for algorithm in ALGORITHMS:
        for index in CONFIG_INDICES:
            key = f"{algorithm.value}/{index}"
            golden["runs"][key] = _run_fingerprint(SETUP, index, algorithm)
    faulted = _faulted_setup()
    for algorithm in ALGORITHMS:
        golden["faulted"][algorithm.value] = _run_fingerprint(
            faulted, 0, algorithm
        )
    golden["workload"] = _workload_fingerprint()
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
@pytest.mark.parametrize("index", CONFIG_INDICES)
class TestSweepIdentity:
    def test_metrics_and_events_bit_identical(self, algorithm, index, golden):
        got = _run_fingerprint(SETUP, index, algorithm)
        assert got == golden["runs"][f"{algorithm.value}/{index}"]


@pytest.mark.parametrize("algorithm", ALGORITHMS, ids=lambda a: a.value)
class TestFaultedSweepIdentity:
    def test_faulted_run_bit_identical(self, algorithm, golden):
        got = _run_fingerprint(_faulted_setup(), 0, algorithm)
        assert got == golden["faulted"][algorithm.value]


class TestWorkloadIdentity:
    def test_concurrent_fleet_bit_identical(self, golden):
        assert _workload_fingerprint() == golden["workload"]


class TestSweepMatchesDirectRuns:
    """run_sweep (the worker-resident path) must agree with
    per-run run_configuration for every task, serial or pooled."""

    def test_run_sweep_serial_matches(self):
        from repro.experiments.parallel import run_sweep

        tasks = [(i, a) for i in CONFIG_INDICES for a in ALGORITHMS]
        results = run_sweep(SETUP, tasks, workers=1)
        for index, algorithm in tasks:
            direct = run_configuration(SETUP, index, algorithm)
            swept = results[(index, algorithm.value)]
            assert swept.summary() == direct.summary()
            assert swept.arrival_times == direct.arrival_times


if __name__ == "__main__":
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(generate_golden(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
