"""The JSONL record codec behind every trace archive.

One record is one line: ``json.dumps(record) + "\\n"``, byte for byte,
and a line reads back exactly as ``json.loads`` would read it.  The
stdlib calls pay a fixed setup cost per record — ``json.dumps`` builds a
fresh C encoder on every call and ``json.loads`` re-scans the line for
whitespace on both ends — which dominates a trace of many small records.
:class:`JsonlCodec` builds its encoder and decoder once and reuses them,
so :func:`~repro.obs.exporters.write_jsonl`,
:func:`~repro.obs.exporters.read_jsonl`, the rotating segment writer and
:func:`~repro.obs.rotating.read_segments` share one fast path.

Writing streams one record at a time.  Reading takes bounded chunks of
lines and parses each chunk with one ``json.loads`` of the lines joined
into a JSON array, so the per-record setup is paid once per chunk;
nothing builds a whole-file string, so segment replay stays
constant-memory.
"""

from __future__ import annotations

import json
import json.encoder
from itertools import chain
from json.decoder import WHITESPACE
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Iterator, Union

PathLike = Union[str, Path]

#: Characters :meth:`JsonlCodec.read` asks ``readlines`` for per chunk:
#: a few hundred trace records, parsed in one call.
_CHUNK_HINT = 1 << 16


def _c_encoder() -> "Callable[[Any], str] | None":
    """``json.dumps`` with its default settings, built once; None without
    the C accelerator."""
    make_encoder = json.encoder.c_make_encoder
    if make_encoder is None:
        return None
    defaults = json.JSONEncoder()
    # ``check_circular`` (on by default) tracks the containers being
    # encoded here; a failed call can leave entries behind.
    markers: dict[int, Any] = {}
    encoder = make_encoder(
        markers,
        defaults.default,
        json.encoder.encode_basestring_ascii,
        defaults.indent,
        defaults.key_separator,
        defaults.item_separator,
        defaults.sort_keys,
        defaults.skipkeys,
        defaults.allow_nan,
    )

    def encode(record: Any) -> str:
        try:
            return "".join(encoder(record, 0))
        except BaseException:
            markers.clear()
            raise

    return encode


class JsonlCodec:
    """Reusable JSONL encoder and decoder, pinned to the stdlib's output."""

    __slots__ = ("encode", "accelerated", "_decode", "_raw_decode")

    def __init__(self) -> None:
        encode = _c_encoder()
        #: True when records go through the prebuilt C encoder.
        self.accelerated = encode is not None
        #: ``record -> str``, identical to ``json.dumps(record)``.
        self.encode: Callable[[Any], str] = encode or json.dumps
        decoder = json.JSONDecoder()
        self._decode = decoder.decode
        self._raw_decode = decoder.raw_decode

    def line(self, record: Any) -> str:
        """One record as a JSONL line, newline included."""
        return self.encode(record) + "\n"

    def write(self, fh: IO[str], records: Iterable[Any]) -> int:
        """Write ``records`` to ``fh``, one line each; returns the count."""
        encode = self.encode
        write = fh.write
        count = 0
        for record in records:
            write(encode(record) + "\n")
            count += 1
        return count

    def read(self, path: PathLike) -> Iterator[Any]:
        """Stream the records of the JSONL file at ``path``.

        Blank lines are skipped.  A line that is not exactly one JSON
        value raises :class:`ValueError` naming the file and the 1-based
        line number, after every record before it was yielded.

        Each chunk of lines is parsed as one JSON array.  When that fails,
        or yields another count than the chunk has lines (a blank line, a
        line holding two values, two lines holding one), the chunk is
        read again line by line, which skips the blanks and reports the
        first bad line.  Lines crafted so that one splits exactly where
        others merge would still parse; the writer never produces them.
        """
        return chain.from_iterable(self._chunks(path))

    def _chunks(self, path: PathLike) -> Iterator[Iterable[Any]]:
        """The records of ``path``, one iterable per chunk of lines."""
        decode = self._decode
        with open(path) as fh:
            number = 0
            while True:
                lines = fh.readlines(_CHUNK_HINT)
                if not lines:
                    return
                try:
                    records = decode("[" + ",".join(lines) + "]")
                except (ValueError, RecursionError):
                    records = None
                if records is None or len(records) != len(lines):
                    records = self._read_lines(path, lines, number)
                yield records
                number += len(lines)

    def _read_lines(
        self, path: PathLike, lines: list[str], before: int
    ) -> Iterator[Any]:
        """Decode ``lines`` one at a time, lazily, so the records before a
        bad line are yielded before its error; ``before`` lines precede
        them in the file."""
        raw_decode = self._raw_decode
        for number, line in enumerate(lines, before + 1):
            line = line.strip()
            if not line:
                continue
            try:
                record, end = raw_decode(line)
            except json.JSONDecodeError as error:
                raise _line_error(path, number, error) from error
            if end != len(line):
                # Where ``json.loads`` reports the same rejection.
                error = json.JSONDecodeError(
                    "Extra data", line, WHITESPACE.match(line, end).end()
                )
                raise _line_error(path, number, error) from error
            yield record


def _line_error(
    path: PathLike, number: int, error: json.JSONDecodeError
) -> ValueError:
    return ValueError(
        f"{path}, line {number}, column {error.colno}: {error.msg}"
    )


#: The codec the exporters and the rotating writer use.
CODEC = JsonlCodec()
