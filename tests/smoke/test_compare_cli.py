"""``repro compare`` on the parallel sweep runner (two workers)."""

from repro.cli import main


def test_parallel_compare_exits_zero(capsys):
    code = main(
        [
            "compare",
            "--configs", "2",
            "--servers", "4",
            "--images", "12",
            "--workers", "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "download-all" in out and "global" in out
