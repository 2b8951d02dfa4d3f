"""JSON-lines corpus records: the streaming reader, the line writer and the summary index.

One record per line: ``{"id": ..., "article": [...], "summary": [...]}`` with
optional ``noisy`` and ``provenance`` fields. A list value is taken as
pre-split sentences; a string value is running text, split into sentences on
read.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, Iterator, NamedTuple

from .errors import DuplicateIdError, EmptySentenceError, MalformedRecordError
from .text import SummaryDoc, has_tokens, make_document, split_sentences

_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class CorpusRecord(NamedTuple):
    """One corpus line. A ``typing.NamedTuple``: ``_replace`` gives a copy with other fields."""

    id: str
    article: list[str]
    summary: list[str]
    noisy: list[str] | None = None
    provenance: dict[str, Any] | None = None

    def article_doc(self) -> SummaryDoc:
        return _document(self.id, self.article)

    def summary_doc(self) -> SummaryDoc:
        return _document(self.id, self.summary)

    def working_sentences(self) -> list[str]:
        """The sentences of the summary under study: the noisy text when present, else the clean one."""
        return self.summary if self.noisy is None else self.noisy

    def working_doc(self) -> SummaryDoc:
        """The document of ``working_sentences()``."""
        return _document(self.id, self.working_sentences())


def _document(record_id: str, sentences: list[str]) -> SummaryDoc:
    """``make_document`` of one field; a sentence without tokens raises an error naming the record."""
    try:
        return make_document(sentences)
    except EmptySentenceError as error:
        raise EmptySentenceError(f"record {record_id!r}: {error}") from error


def check_tokens(record_id: str, sentences: list[str]) -> None:
    """Raise the error ``_document`` raises for the first sentence without a token, tokenizing no other."""
    for raw in sentences:
        if not has_tokens(raw):
            _document(record_id, [raw])  # raises EmptySentenceError naming the record


def read_corpus(path: str | Path) -> Iterator[CorpusRecord]:
    """Stream records from a JSON-lines corpus file, validating as it goes.

    The one validating loop of every corpus read. Malformed lines (including
    bytes that are not UTF-8 and text that is not valid Unicode) raise
    MalformedRecordError with the line number; a repeated id raises
    DuplicateIdError. Iteration holds one record at a time (plus the set of
    seen ids).
    """
    seen: set[str] = set()
    with open(path, "rb") as handle:
        # Binary lines, decoded one by one, so a decode error names its own line.
        for line_number, raw in enumerate(handle, start=1):
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
            yield record


class CorpusIndex:
    """The summaries of a corpus file by id, kept in a copy of their own.

    A mapping as ``eval_report`` reads references: ``id in index`` and
    ``index[id]``, the summary document as ``CorpusRecord.summary_doc``
    builds it. Building the index reads the file once through
    ``read_corpus``, so a malformed line or a repeated id raises the same
    error. Each record's summary goes, as one JSON line, to an unlinked
    temporary file, and ``offsets`` maps the record's id to that line. A pipe
    is read like a file, and a later change to the file does not reach the
    copy. ``index[id]`` keeps the last document it built, so consecutive
    lookups of one id, such as a record's noise variants, share one object.
    """

    def __init__(self, path: str | Path) -> None:
        import tempfile  # only eval -r needs it

        self._last: tuple[str, SummaryDoc] | None = None
        self._copy = tempfile.TemporaryFile()
        try:
            self.offsets: dict[str, int] = {}
            for record in read_corpus(path):
                self.offsets[record.id] = self._copy.tell()
                self._copy.write(json.dumps(record.summary, ensure_ascii=False).encode("utf-8") + b"\n")
        except BaseException:
            self._copy.close()
            raise

    def __enter__(self) -> CorpusIndex:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._copy.close()

    def __contains__(self, record_id: object) -> bool:
        return record_id in self.offsets

    def __getitem__(self, record_id: str) -> SummaryDoc:
        if self._last is None or self._last[0] != record_id:
            self._copy.seek(self.offsets[record_id])
            self._last = record_id, _document(record_id, json.loads(self._copy.readline()))
        return self._last[1]


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
