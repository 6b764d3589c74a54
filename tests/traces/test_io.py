"""Trace and library persistence round-trips."""

import numpy as np
import pytest

from repro.traces import (
    BandwidthTrace,
    InternetStudy,
    load_library_json,
    load_trace_csv,
    save_library_json,
    save_trace_csv,
)


def sample_trace():
    return BandwidthTrace([0.0, 30.5, 61.0], [1000.25, 512.5, 99999.0], name="x")


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        path = tmp_path / "trace.csv"
        original = sample_trace()
        save_trace_csv(original, path)
        loaded = load_trace_csv(path, name="x")
        assert loaded == original
        assert loaded.name == "x"

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,rate_bytes_per_s\n1.0\n")
        with pytest.raises(ValueError):
            load_trace_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            load_trace_csv(path)


class TestLibraryJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "library.json"
        library = InternetStudy(seed=11).run()
        save_library_json(library, path)
        loaded = load_library_json(path)
        assert len(loaded) == len(library)
        assert [h.name for h in loaded.hosts] == [h.name for h in library.hosts]
        for pair in library.pairs():
            assert loaded.trace(*pair) == library.trace(*pair)
        assert loaded.tz_offsets == library.tz_offsets
