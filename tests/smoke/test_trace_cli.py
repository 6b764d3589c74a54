"""Record a traced run, summarize it and export it for Chrome/Perfetto."""

import json

from repro.cli import main


def test_record_summarize_and_chrome_export(tmp_path, capsys):
    trace = tmp_path / "run.jsonl"
    chrome = tmp_path / "run.chrome.json"
    code = main(
        [
            "run",
            "--servers", "4",
            "--images", "12",
            "--algorithm", "global",
            "--trace", str(trace),
            "--chrome-trace", str(chrome),
        ]
    )
    assert code == 0
    assert trace.stat().st_size > 0
    capsys.readouterr()

    assert main(["trace", str(trace)]) == 0
    summary = capsys.readouterr().out
    assert "arrivals: 12" in summary
    assert "kernel events processed:" in summary

    json.loads(chrome.read_text())


def summarize_workload(tmp_path, capsys, seed):
    trace = tmp_path / f"fleet-{seed}.jsonl"
    code = main(
        [
            "workload",
            "--clients", "2",
            "--queries", "1",
            "--mix", "global=1,one-shot=1",
            "--servers", "4",
            "--images", "6",
            "--seed", str(seed),
            "--trace", str(trace),
        ]
    )
    assert code == 0
    capsys.readouterr()

    assert main(["trace", str(trace)]) == 0
    return capsys.readouterr().out.splitlines()


def test_summarize_a_workload_trace(tmp_path, capsys):
    # Seed 7 draws two global queries, seed 1 one of each class.
    for seed, mix in ((7, "global=2"), (1, "global=1, one-shot=1")):
        lines = summarize_workload(tmp_path, capsys, seed)
        # The run line names every query, both queries' arrivals are
        # counted, and both runs are in the stream.
        assert lines[0] == f"run: 2 queries ({mix})"
        assert lines[1].startswith("arrivals: 12 ")
        assert ["run.meta", "2"] in [line.split() for line in lines]
        assert ["run.end", "2"] in [line.split() for line in lines]


def test_summarize_a_segment_directory(tmp_path, capsys):
    from repro.obs import format_trace_summary, read_segments, summarize_records

    segments = tmp_path / "segments"
    code = main(
        [
            "workload",
            "--clients", "2",
            "--queries", "1",
            "--mix", "global=1,one-shot=1",
            "--servers", "4",
            "--images", "6",
            "--seed", "1",
            "--trace-dir", str(segments),
            "--segment-bytes", "20000",
        ]
    )
    assert code == 0
    assert len(list(segments.iterdir())) > 1
    capsys.readouterr()

    assert main(["trace", str(segments)]) == 0
    report = capsys.readouterr().out.splitlines()
    # The same arrivals and event histogram as a replay of the segments.
    expected = summarize_records(read_segments(segments))
    assert len(expected.metrics.arrival_times) == 12
    assert report[1].startswith("arrivals: 12 ")
    assert expected.event_histogram["run.meta"] == 2
    for etype, count in expected.event_histogram.items():
        assert f"  {etype:<24} {count}" in report
    assert report == format_trace_summary(expected).splitlines()

    chrome = tmp_path / "segments.chrome.json"
    assert main(["trace", str(segments), "--chrome", str(chrome)]) == 0
    json.loads(chrome.read_text())
