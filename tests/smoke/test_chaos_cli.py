"""``repro chaos``: fault injection end to end on the four algorithms."""

import json

from repro.cli import main


def test_chaos_rows_recover_from_faults(capsys):
    code = main(["chaos", "--servers", "4", "--images", "12", "--json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(rows) == 4, rows
    assert not any(r["truncated"] for r in rows), rows
    assert sum(r["retransmissions"] for r in rows) > 0, rows
    assert sum(r["host_downtime_seconds"] for r in rows) > 0, rows
