"""The JSONL record codec is pinned to ``json.dumps`` / ``json.loads``."""

from __future__ import annotations

import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    TRACE_SCHEMA,
    RotatingTraceWriter,
    Tracer,
    read_jsonl,
    read_segments,
    segment_paths,
    write_jsonl,
)
from repro.obs import codec

# Strings reach every escape the encoder has: controls, quotes,
# backslashes, non-ASCII and astral code points, lone surrogates.
texts = st.text(
    alphabet=st.one_of(
        st.characters(max_codepoint=0x7F),
        st.characters(min_codepoint=0x80),
        st.sampled_from("\x00\x1f\x7f\"\\ \ufeff\u2028\ud800\U0001f600"),
    ),
    max_size=12,
)
floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-320]),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    floats,
    texts,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(texts, st.integers()), inner, max_size=4),
    ),
    max_leaves=12,
)
records = st.lists(
    st.one_of(
        # Flat, event-shaped records...
        st.fixed_dictionaries(
            {"type": texts, "t": floats},
            optional={"dur": floats, "uid": st.integers(), "host": texts},
        ),
        # ...and arbitrarily nested ones.
        st.dictionaries(texts, values, max_size=5),
    ),
    max_size=6,
)


def same(a, b) -> bool:
    """Equality that tells NaN equal to NaN and -0.0 apart from 0.0."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        if math.isnan(a):
            return math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if isinstance(a, dict):
        return list(a) == list(b) and all(same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(same, a, b))
    return a == b


def stdlib_lines(items) -> str:
    return "".join(json.dumps(item) + "\n" for item in items)


def stdlib_reads(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def check_write_jsonl(directory: Path, items: list) -> None:
    tracer = Tracer()
    tracer.meta["label"] = "codec"
    tracer.events.extend(items)
    path = directory / "trace.jsonl"
    assert write_jsonl(tracer, path) == len(items) + 2
    header = {"type": "trace.header", "schema": TRACE_SCHEMA, "meta": tracer.meta}
    footer = {"type": "trace.footer", "counters": {}, "histograms": {}}
    assert path.read_text() == stdlib_lines([header, *items, footer])
    assert same(read_jsonl(path), stdlib_reads(path))


def check_rotating(directory: Path, items: list) -> None:
    # A 1-byte budget rotates before every record, so each segment holds
    # its header and exactly one record (the last one also the footer).
    with RotatingTraceWriter(directory, max_segment_bytes=1) as writer:
        for item in items:
            writer.write(item)
    paths = segment_paths(directory)
    assert len(paths) == max(len(items), 1)
    expected = []
    for index, path in enumerate(paths):
        header = {
            "type": "trace.segment",
            "schema": TRACE_SCHEMA,
            "segment": index,
            "meta": {},
        }
        lines = [header, *items[index : index + 1]]
        if index == len(paths) - 1:
            lines.append({"type": "trace.footer"})
        assert path.read_text() == stdlib_lines(lines)
        expected += stdlib_reads(path)
    assert same(list(read_segments(directory)), expected)


def check_round_trips(items: list) -> None:
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        check_write_jsonl(root, items)
        check_rotating(root / "segments", items)


@given(items=records)
@settings(max_examples=150, deadline=None)
def test_codec_matches_stdlib(items):
    assert codec.CODEC.accelerated == (json.encoder.c_make_encoder is not None)
    check_round_trips(items)


@given(items=records)
@settings(max_examples=40, deadline=None)
def test_fallback_without_c_encoder_matches_stdlib(items):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(json.encoder, "c_make_encoder", None)
        patch.setattr(codec, "CODEC", codec.JsonlCodec())
        assert not codec.CODEC.accelerated
        check_round_trips(items)


@given(
    line=st.one_of(
        st.text(max_size=12),
        st.builds(
            lambda item, suffix: json.dumps(item) + suffix,
            values,
            st.sampled_from(["", " ", "  ", "x", " 1", "{}", ",", "\t]"]),
        ),
    ).filter(lambda text: "\n" not in text and "\r" not in text)
)
@settings(max_examples=200, deadline=None)
def test_decoder_accepts_and_rejects_like_json_loads(line):
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "one.jsonl"
        path.write_text(line + "\n")
        stripped = line.strip()
        if not stripped:
            assert read_jsonl(path) == []
            return
        try:
            expected = json.loads(stripped)
        except ValueError:
            with pytest.raises(ValueError, match="one.jsonl, line 1"):
                read_jsonl(path)
        else:
            assert same(read_jsonl(path), [expected])


def test_encoder_recovers_after_a_failed_record():
    shared = {"x": object()}
    with pytest.raises(TypeError):
        codec.CODEC.encode({"shared": shared})
    shared["x"] = 1
    # A container left marked by the failure must not read as circular.
    assert codec.CODEC.encode([shared]) == json.dumps([shared])
    circular: dict = {}
    circular["self"] = circular
    with pytest.raises(ValueError, match="Circular"):
        codec.CODEC.encode(circular)


class TestMalformedLines:
    def test_read_jsonl_names_file_and_line(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"type": "a", "t": 0}\n\n{"type": "b", "t": \n')
        # The column is the one ``json.loads`` reports for the line.
        with pytest.raises(
            ValueError, match=r"broken\.jsonl, line 3, column 19: Expecting value"
        ):
            read_jsonl(path)

    def test_read_jsonl_rejects_trailing_data(self, tmp_path):
        path = tmp_path / "trailing.jsonl"
        path.write_text('{"type": "a", "t": 0}\n{"type": "b", "t": 1} {"c": 2}\n')
        with pytest.raises(
            ValueError, match=r"trailing\.jsonl, line 2, column 23: Extra data"
        ):
            read_jsonl(path)

    def test_read_segments_names_segment_and_line(self, tmp_path):
        with RotatingTraceWriter(tmp_path, max_segment_bytes=1) as writer:
            for i in range(3):
                writer.write({"type": "x", "t": float(i)})
        second = segment_paths(tmp_path)[1]
        with open(second, "a") as fh:
            fh.write("[1, 2]]\n")
        records = read_segments(tmp_path)
        assert [next(records)["type"] for _ in range(4)] == [
            "trace.segment", "x", "trace.segment", "x",
        ]
        with pytest.raises(
            ValueError, match=rf"{second.name}, line 3, column 7: Extra data"
        ):
            list(records)


class TestChunkedRead:
    """Chunks are parsed whole; a chunk that is not one record per line
    is read again line by line, with the same records and errors."""

    def test_many_chunks_read_back_in_order(self, tmp_path):
        items = [{"type": "x", "t": float(i), "pad": "y" * 200} for i in range(2000)]
        path = tmp_path / "long.jsonl"
        path.write_text(stdlib_lines(items))
        assert path.stat().st_size > 4 * codec._CHUNK_HINT
        assert read_jsonl(path) == items

    def test_blank_lines_inside_a_chunk_are_skipped(self, tmp_path):
        path = tmp_path / "blanks.jsonl"
        path.write_text('{"a": 1}\n\n  \n{"b": 2}\n\t\n')
        assert read_jsonl(path) == [{"a": 1}, {"b": 2}]

    def test_lines_that_merge_into_one_value_are_rejected(self, tmp_path):
        # Joined, the two halves would parse as one record.
        path = tmp_path / "merged.jsonl"
        path.write_text('{"a": 0}\n{"a": [1,\n2]}\n')
        with pytest.raises(
            ValueError, match=r"merged\.jsonl, line 2, column 10: Expecting value"
        ):
            read_jsonl(path)

    def test_a_line_with_two_values_is_rejected(self, tmp_path):
        path = tmp_path / "split.jsonl"
        path.write_text('{"a": 0}\n1, 2\n')
        with pytest.raises(
            ValueError, match=r"split\.jsonl, line 2, column 2: Extra data"
        ):
            read_jsonl(path)

    def test_error_in_a_later_chunk_names_its_line(self, tmp_path):
        items = [{"type": "x", "t": float(i), "pad": "y" * 200} for i in range(1000)]
        path = tmp_path / "late.jsonl"
        path.write_text(stdlib_lines(items) + '{"type": "x", "t": }\n')
        records = codec.CODEC.read(path)
        assert [next(records) for _ in items] == items
        with pytest.raises(
            ValueError, match=r"late\.jsonl, line 1001, column 20: Expecting value"
        ):
            next(records)
