"""Report generation and the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments import ExperimentConfig
from repro.experiments.report import ascii_curve, generate_report


class TestAsciiCurve:
    def test_renders_series(self):
        chart = ascii_curve(
            {"global": [1.0, 2.0, 4.0], "one-shot": [1.0, 1.5, 2.0]},
            title="demo",
        )
        assert "demo" in chart
        assert "configurations sorted by speedup (n=3)" in chart
        assert "=global" in chart and "=one-shot" in chart

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_curve({})
        with pytest.raises(ValueError):
            ascii_curve({"x": []})

    def test_flat_series_does_not_crash(self):
        chart = ascii_curve({"flat": [2.0, 2.0, 2.0]})
        assert "flat" in chart


class TestGenerateReport:
    def test_fig6_only_report(self, tmp_path):
        # The library entry point, without the CLI: the Figure 6 section
        # and its numbers land in the returned dict and in both files.
        config = ExperimentConfig(
            num_servers=4, images_per_server=6, n_configs=1
        )
        result = generate_report(
            config, out_dir=tmp_path, echo=lambda *a: None
        )
        assert "Figure 6" in result["markdown"]
        assert result["data"]["fig6"]["global"]["mean"] > 0
        assert (tmp_path / "report.md").read_text() == result["markdown"]
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["fig6"]["global"]["mean"] > 0

    def test_report_scale_knobs_on_config(self):
        assert ExperimentConfig(n_configs=30).sweep_configs == 10
        assert ExperimentConfig(n_configs=2).sweep_configs == 2


class TestCli:
    def test_run_json(self, capsys):
        code = main(
            [
                "run",
                "--servers", "4",
                "--images", "8",
                "--algorithm", "download-all",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "download-all"
        assert payload["images"] == 8

    def test_run_plain(self, capsys):
        assert main(["run", "--servers", "4", "--images", "6"]) == 0
        out = capsys.readouterr().out
        assert "completion_time" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--servers", "4", "--images", "6", "--configs", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "download-all" in out and "global" in out

    def test_figure_2(self, capsys):
        assert main(["figure", "2"]) == 0
        assert "change interval" in capsys.readouterr().out

    def test_figure_6_small(self, capsys):
        code = main(
            [
                "figure", "6",
                "--servers", "4",
                "--images", "6",
                "--configs", "1",
            ]
        )
        assert code == 0
        assert "speedup over download-all" in capsys.readouterr().out

    def test_study_export(self, tmp_path, capsys):
        assert main(["study", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "trace_library.json").exists()

    def test_report_command(self, tmp_path, capsys):
        code = main(
            [
                "report",
                "--servers", "4",
                "--images", "6",
                "--configs", "2",
                "--out", str(tmp_path),
            ]
        )
        assert code == 0
        markdown = (tmp_path / "report.md").read_text()
        for figure in range(6, 11):
            assert f"Figure {figure}" in markdown
        data = json.loads((tmp_path / "report.json").read_text())
        assert sorted(data) == [
            "fig10", "fig6", "fig7", "fig8", "fig9", "setup"
        ]
        assert data["fig6"]["global"]["mean"] > 0

    def test_run_with_trace_exports(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        chrome = tmp_path / "run.chrome.json"
        code = main(
            [
                "run",
                "--servers", "4",
                "--images", "6",
                "--algorithm", "global",
                "--trace", str(jsonl),
                "--chrome-trace", str(chrome),
            ]
        )
        assert code == 0
        records = [
            json.loads(line) for line in jsonl.read_text().splitlines()
        ]
        assert records[0]["type"] == "trace.header"
        assert records[-1]["type"] == "trace.footer"
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_trace_command_summarizes(self, tmp_path, capsys):
        jsonl = tmp_path / "run.jsonl"
        main(
            [
                "run",
                "--servers", "4",
                "--images", "6",
                "--algorithm", "global",
                "--trace", str(jsonl),
            ]
        )
        capsys.readouterr()
        assert main(["trace", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "relocation timeline" in out
        assert "per-link traffic" in out
        assert "barrier:" in out

    def test_compare_with_trace_dir(self, tmp_path, capsys):
        code = main(
            [
                "compare",
                "--servers", "4",
                "--images", "6",
                "--configs", "1",
                "--trace", str(tmp_path / "traces"),
            ]
        )
        assert code == 0
        written = sorted(p.name for p in (tmp_path / "traces").iterdir())
        assert written == [
            "config0-download-all.jsonl",
            "config0-global.jsonl",
            "config0-local.jsonl",
            "config0-one-shot.jsonl",
        ]

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
