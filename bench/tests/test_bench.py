"""Self-tests of the benchmark: ``PYTHONPATH=src python -m pytest bench/tests -q``."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from bench import drive, metrics, worker
from bench.__main__ import WORKLOADS
from bench.calib import SpeedSampler
from bench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


@pytest.fixture(scope="module")
def traces(tmp_path_factory) -> dict[str, dict]:
    """One traced report per workload, three ops each (plus the untraced twin)."""
    out = tmp_path_factory.mktemp("bench")
    reports = {}
    with SpeedSampler() as sampler:
        for name in WORKLOADS:
            workload = drive.WORKLOADS[name](7, out)
            reports[name] = worker.trace(workload, drive, sampler, out, count=3)
    return reports


def test_percentile_interpolates_between_ranks():
    assert metrics.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.5
    assert metrics.percentile([5.0], 90) == 5.0
    assert metrics.percentile(list(range(101)), 90) == 90
    assert metrics.percentile([0.0, 10.0], 25) == 2.5
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def test_workload_names_agree():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert declared == list(WORKLOADS) == list(drive.WORKLOADS)


def test_end_to_end_names_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == metrics.END_TO_END
    assert all(NAME.match(name) for name in declared)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_pass_is_correct(traces, name):
    report = traces[name]
    assert report["ops"] == 3
    assert report["failed"] == 0, report["problems"]
    assert report["checks"] == {
        "seams_restored": True,
        "traced_digest_matches": True,
    }


@pytest.mark.parametrize("name", WORKLOADS)
def test_layer_metric_names_match_benchmark_json(traces, name):
    report = traces[name]
    values = metrics.layer_metrics(report, drive.LAYERS)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in values.items()} == declared
    assert all(NAME.match(k) for k in values)
    shares = sum(values[f"{layer}.share"][0] for layer in drive.LAYERS)
    assert shares == pytest.approx(1.0, abs=0.01)


def test_obs_layer_only_works_on_traced_replay(traces):
    for name, report in traces.items():
        calls = metrics.layer_metrics(report, drive.LAYERS)["obs.calls_per_op"][0]
        assert (calls > 0) == (name == "traced-replay")


def test_seams_are_restored_to_the_same_objects():
    before = drive.seam_objects()
    seams = drive.InstalledSeams(SpanRecorder(drive.LAYERS))
    try:
        assert drive.seam_objects() != before
    finally:
        seams.restore()
    assert drive.seam_objects() == before


def test_calls_on_the_disabled_tracer_count_as_obs():
    from repro.obs import NULL_TRACER, ScopedTracer

    recorder = SpanRecorder(drive.LAYERS)
    seams = drive.InstalledSeams(recorder)
    try:
        recorder.begin_op(0)
        NULL_TRACER.emit("probe", 0.0)
        ScopedTracer(NULL_TRACER, query_id="q").span("probe", 0.0, 1.0)
        stats = recorder.end_op(1.0)
    finally:
        seams.restore()
    assert stats["calls"][recorder.index["obs"]] == 3


def test_missing_seam_fails_loudly():
    missing = drive.Seam("sim", drive.Environment, "no_such_method")
    with pytest.raises(AttributeError, match="no longer exists"):
        drive.InstalledSeams(SpanRecorder(drive.LAYERS), [missing])


def test_recorder_charges_nested_calls_to_their_parent():
    recorder = SpanRecorder(("outer", "inner"))
    inner = recorder.wrap(lambda: None, "inner", "inner")
    outer = recorder.wrap(lambda: [inner() for _ in range(3)], "outer", "outer")
    recorder.begin_op(0, keep=True)
    outer()
    stats = recorder.end_op(1.0)
    index = recorder.index
    assert stats["calls"][index["outer"]] == 1
    assert stats["calls"][index["inner"]] == 3
    assert stats["child_calls"][index["outer"]] == 3
    assert stats["child_calls"][0] == 1
    parents = [record[4] for record in recorder.kept]
    assert parents.count(-1) == 1 and len(recorder.kept) == 4


def test_paper_ordering_check(tmp_path):
    def result(pair, algorithm, completion):
        return drive.OpResult(
            "", "", [completion], 1, 1, 0.0, paired=(pair, algorithm, completion)
        )

    times = {"download-all": 100.0, "one-shot": 50.0, "local": 40.0, "global": 30.0}
    good = [result(c, a, t) for c in range(3) for a, t in times.items()]
    sweep = drive.PaperSweep(7, tmp_path)
    assert sweep.check(good) == {"paper_ordering": True}
    slow_global = [
        result(r.paired[0], "global", 60.0) if r.paired[1] == "global" else r
        for r in good
    ]
    assert sweep.check(slow_global) == {"paper_ordering": False}
