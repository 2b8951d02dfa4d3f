"""JSON-lines corpus records and streaming readers/writers.

One record per line: ``{"id": ..., "article": [...], "summary": [...]}`` with
optional ``noisy`` and ``provenance`` fields. A list value is taken as
pre-split sentences; a string value is running text, split into sentences on
read.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, NamedTuple

from .errors import (
    CorpusChangedError,
    DuplicateIdError,
    EmptySentenceError,
    MalformedRecordError,
    SumnoiseError,
)
from .text import SummaryDoc, make_document, split_sentences

_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class CorpusRecord(NamedTuple):
    """One corpus line. A ``typing.NamedTuple``: ``_replace`` gives a copy with other fields."""

    id: str
    article: list[str]
    summary: list[str]
    noisy: list[str] | None = None
    provenance: dict[str, Any] | None = None

    def article_doc(self) -> SummaryDoc:
        return self._document(self.article)

    def summary_doc(self) -> SummaryDoc:
        return self._document(self.summary)

    def working_doc(self) -> SummaryDoc:
        """The summary under study: the noisy text when present, else the clean one."""
        return self._document(self.summary if self.noisy is None else self.noisy)

    def _document(self, sentences: list[str]) -> SummaryDoc:
        """``make_document`` of one field; a sentence without tokens raises an error naming the record."""
        try:
            return make_document(sentences)
        except EmptySentenceError as error:
            raise EmptySentenceError(f"record {self.id!r}: {error}") from error


def read_corpus(path: str | Path) -> Iterator[CorpusRecord]:
    """Stream records from a JSON-lines corpus file, validating as it goes.

    Malformed lines (including bytes that are not UTF-8 and text that is not
    valid Unicode) raise MalformedRecordError with the line number; a
    repeated id raises DuplicateIdError. Iteration holds one record at a time
    (plus the set of seen ids).
    """
    with open(path, "rb") as handle:
        for _, record in _validated(handle):
            yield record


class CorpusIndex:
    """Records of a corpus file by id, holding only the byte offset of each line.

    Building the index reads the whole file once, through the same validation
    as ``read_corpus``, so a malformed line or a repeated id raises the same
    error. ``record`` then seeks to a line and parses it again. A source that
    cannot seek, such as a pipe, is copied into an unlinked temporary file as
    it is read, and the index seeks in that copy.
    """

    def __init__(self, path: str | Path) -> None:
        self._handle = source = open(path, "rb")
        try:
            if source.seekable():
                lines: Iterable[bytes] = source
            else:
                import tempfile  # only a pipe needs it

                self._handle = tempfile.TemporaryFile()
                lines = _copied(source, self._handle)
            self.offsets = {record.id: offset for offset, record in _validated(lines)}
        except BaseException:
            self._handle.close()
            raise
        finally:
            if self._handle is not source:
                source.close()

    def __enter__(self) -> CorpusIndex:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._handle.close()

    def record(self, record_id: str) -> CorpusRecord:
        """Parse the record with this id from its line again.

        Raises CorpusChangedError when that line no longer holds a valid
        record with this id.
        """
        self._handle.seek(self.offsets[record_id])
        line = self._handle.readline()
        try:
            record = _validate_record(json.loads(line), 0)
        except (ValueError, SumnoiseError):  # JSON and UTF-8 errors are ValueErrors
            record = None
        if record is None or record.id != record_id:
            raise CorpusChangedError(
                f"record {record_id!r} is no longer at byte {self.offsets[record_id]}; "
                "the file changed while it was read"
            )
        return record


def _copied(lines: Iterable[bytes], copy: IO[bytes]) -> Iterator[bytes]:
    """Yield each line after writing it to ``copy``, so offsets hold in the copy."""
    for raw in lines:
        copy.write(raw)
        yield raw


def _validated(lines: Iterable[bytes]) -> Iterator[tuple[int, CorpusRecord]]:
    """The one validating loop of every corpus read: each record with its line's byte offset."""
    seen: set[str] = set()
    offset = 0
    # Binary lines, decoded one by one, so a decode error names its own line.
    for line_number, raw in enumerate(lines, start=1):
        start = offset
        offset += len(raw)
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as error:
            raise MalformedRecordError(line_number, f"invalid UTF-8: {error}") from error
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            raise MalformedRecordError(line_number, f"invalid JSON: {error}") from error
        record = _validate_record(payload, line_number)
        # Strict UTF-8 holds no surrogates, so only a \uD800-\uDFFF escape
        # can leave a lone one; memchr for a backslash skips most lines.
        if "\\" in line and _SURROGATE_ESCAPE.search(line):
            try:
                record_to_line(record).encode("utf-8")
            except UnicodeEncodeError as error:
                surrogate = error.object[error.start]
                raise MalformedRecordError(line_number, f"lone surrogate {surrogate!r}") from error
        if record.id in seen:
            raise DuplicateIdError(f"line {line_number}: duplicate id {record.id!r}")
        seen.add(record.id)
        yield start, record


def write_corpus(records: Iterable[CorpusRecord], path: str | Path) -> None:
    """Write one record per line with a fixed field order."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record_to_line(record) + "\n")


def record_to_line(record: CorpusRecord) -> str:
    """One JSON line of the record's fields, in declared order, without those that are None."""
    payload = {name: value for name, value in zip(record._fields, record) if value is not None}
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


def _validate_record(payload: Any, line_number: int) -> CorpusRecord:
    if not isinstance(payload, dict):
        raise MalformedRecordError(line_number, "record is not an object")
    record_id = payload.get("id")
    if not isinstance(record_id, str) or not record_id:
        raise MalformedRecordError(line_number, "missing or empty 'id'")
    article = _sentence_list(payload, "article", line_number, required=True)
    summary = _sentence_list(payload, "summary", line_number, required=True)
    noisy = _sentence_list(payload, "noisy", line_number, required=False)
    provenance = payload.get("provenance")
    if provenance is not None and not isinstance(provenance, dict):
        raise MalformedRecordError(line_number, "'provenance' must be an object")
    return CorpusRecord(
        id=record_id, article=article, summary=summary, noisy=noisy, provenance=provenance
    )


def _sentence_list(
    payload: dict, field: str, line_number: int, required: bool
) -> list[str] | None:
    value = payload.get(field)
    if value is None:
        if required:
            raise MalformedRecordError(line_number, f"missing '{field}'")
        return None
    if isinstance(value, str):
        try:
            return split_sentences(value)
        except EmptySentenceError as error:
            raise MalformedRecordError(line_number, f"'{field}': {error}") from error
    if not isinstance(value, list) or not value:
        raise MalformedRecordError(line_number, f"'{field}' must be a non-empty list")
    try:
        valid = all(map(str.strip, value))  # str.strip refuses anything but a str
    except TypeError:
        valid = False
    if not valid:
        raise MalformedRecordError(
            line_number, f"'{field}' contains an empty or non-string sentence"
        )
    return value
