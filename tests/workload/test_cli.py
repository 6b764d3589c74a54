"""The ``repro workload`` CLI subcommand."""

import json

from repro.cli import _print_fleet, main
from repro.workload import WORKLOAD_SCHEMA, fleet_from_trace

TINY = [
    "workload",
    "--clients", "2",
    "--queries", "1",
    "--servers", "4",
    "--images", "4",
    "--seed", "1",
]


class TestWorkloadSubcommand:
    def test_json_output_is_a_fleet_summary(self, capsys):
        assert main([*TINY, "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["workload_schema"] == WORKLOAD_SCHEMA
        assert fleet["completed"] == 2
        assert len(fleet["queries"]) == 2

    def test_human_output_mentions_every_query(self, capsys):
        assert main(TINY) == 0
        out = capsys.readouterr().out
        assert "2/2 queries completed" in out
        assert "c0:0" in out and "c1:0" in out
        assert "Jain fairness" in out
        assert "latency quantiles exact" in out

    def test_trace_export_replays_to_the_same_fleet(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        trace = tmp_path / "wl.jsonl"
        assert main([*TINY, "--json", "--trace", str(trace)]) == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet_from_trace(read_jsonl(trace)) == fleet

    def test_open_loop_arrivals(self, capsys):
        code = main(
            [*TINY, "--arrivals", "open", "--rate", "0.05", "--json"]
        )
        assert code == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["completed"] == 2

    def test_truncation_sets_exit_code(self, capsys):
        assert main([*TINY, "--max-time", "5", "--json"]) == 1
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["truncated"] >= 1

    def test_mix_weights_parse(self, capsys):
        code = main(
            [*TINY, "--mix", "global=2,one-shot=1", "--json"]
        )
        assert code == 0
        fleet = json.loads(capsys.readouterr().out)
        classes = {q["class"] for q in fleet["queries"]}
        assert classes <= {"global", "one-shot"}


class TestStreamingAndSharding:
    def test_streaming_human_output(self, capsys):
        # A fleet above the record threshold prints the same report,
        # with sketch quantiles and without per-query rows.
        from repro.engine.config import Algorithm
        from repro.workload import QueryClass, WorkloadSpec, run_workload

        spec = WorkloadSpec(
            classes=(QueryClass(name="os", algorithm=Algorithm.ONE_SHOT),),
            num_clients=2,
            num_servers=4,
            images_per_server=4,
            exact_metrics_threshold=0,
        )
        _print_fleet(run_workload(spec).fleet)
        out = capsys.readouterr().out
        assert "latency quantiles within ±1%" in out
        assert "2/2 clients active" in out
        assert "2/2 queries completed" in out
        assert "c0:0" not in out

    def test_sharded_run(self, capsys):
        code = main([*TINY, "--shards", "2", "--workers", "1", "--json"])
        assert code == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["scheduled"] == 2

    def test_trace_dir_segments_replay(self, capsys, tmp_path):
        from repro.obs import read_segments

        code = main(
            [*TINY, "--json", "--trace-dir", str(tmp_path / "seg")]
        )
        assert code == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet_from_trace(read_segments(tmp_path / "seg")) == fleet

    def test_shards_and_tracing_conflict(self):
        import pytest

        with pytest.raises(SystemExit):
            main([*TINY, "--shards", "2", "--trace", "x.jsonl"])
        with pytest.raises(SystemExit):
            main([*TINY, "--shards", "2", "--trace-dir", "segs"])

    def test_trace_and_trace_dir_conflict(self):
        import pytest

        with pytest.raises(SystemExit):
            main([*TINY, "--trace", "x.jsonl", "--trace-dir", "segs"])


class TestOverloadFlags:
    def test_defaults_leave_summary_unchanged(self, capsys):
        # All overload flags at their defaults: no policy is built and
        # the summary has no resilience block.
        assert main([*TINY, "--json"]) == 0
        fleet = json.loads(capsys.readouterr().out)
        assert "resilience" not in fleet

    def test_admission_flags_shed(self, capsys):
        code = main(
            [
                *TINY,
                "--clients", "4",
                "--max-concurrent", "1",
                "--json",
            ]
        )
        assert code == 0
        fleet = json.loads(capsys.readouterr().out)
        assert fleet["resilience"]["shed"] > 0

    def test_deadline_flag_aborts_and_reports(self, capsys):
        code = main([*TINY, "--deadline", "10", "--retry-budget", "1"])
        assert code == 1  # aborted queries finalize truncated
        out = capsys.readouterr().out
        assert "overload:" in out
        assert "deadline aborts 4" in out  # 2 slots + 2 retries

    def test_slo_flag_reports_attainment(self, capsys):
        assert main([*TINY, "--slo", "1e9"]) == 0
        out = capsys.readouterr().out
        # Both default-mix classes completed within the generous target.
        assert "SLO global: 100% of 1 completed queries" in out
        assert "SLO one-shot: 100% of 1 completed queries" in out

    def test_chaos_flag_injects_reference_plan(self, capsys):
        main([*TINY, "--chaos", "--json"])
        fleet = json.loads(capsys.readouterr().out)
        # The reference plan's 8% link loss guarantees retransmissions
        # show up as wire traffic beyond the fault-free run.
        assert fleet["scheduled"] == 2

    def test_chaos_and_faults_conflict(self, tmp_path):
        import pytest

        plan = tmp_path / "plan.json"
        plan.write_text("{}")
        with pytest.raises(SystemExit):
            main([*TINY, "--chaos", "--faults", str(plan)])
