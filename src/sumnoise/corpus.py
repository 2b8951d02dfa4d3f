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
from typing import Any, Iterable, Iterator

from .errors import DuplicateIdError, EmptySentenceError, MalformedRecordError
from .text import SummaryDoc, Value, make_document, split_sentences

_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


class CorpusRecord(Value):
    """One corpus line. Mutable: denoise rewrites ``noisy`` and ``provenance`` in place."""

    __slots__ = _fields = ("id", "article", "summary", "noisy", "provenance")
    __hash__ = None  # mutable, so unhashable

    def __init__(
        self,
        id: str,
        article: list[str],
        summary: list[str],
        noisy: list[str] | None = None,
        provenance: dict[str, Any] | None = None,
    ) -> None:
        self.id = id
        self.article = article
        self.summary = summary
        self.noisy = noisy
        self.provenance = provenance

    def article_doc(self) -> SummaryDoc:
        return make_document(self.article, source_id=self.id)

    def summary_doc(self) -> SummaryDoc:
        return make_document(self.summary, source_id=self.id)

    def working_doc(self) -> SummaryDoc:
        """The summary under study: the noisy text when present, else the clean one."""
        sentences = self.noisy if self.noisy is not None else self.summary
        return make_document(sentences, source_id=self.id)


def read_corpus(path: str | Path) -> Iterator[CorpusRecord]:
    """Stream records from a JSON-lines corpus file, validating as it goes.

    Malformed lines (including bytes that are not UTF-8 and text that is not
    valid Unicode) raise MalformedRecordError with the line number; a
    repeated id raises DuplicateIdError. Iteration holds one record at a time
    (plus the set of seen ids).
    """
    seen: set[str] = set()
    # Binary lines, decoded one by one, so a decode error names its own line.
    with open(path, "rb") as handle:
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


def write_corpus(records: Iterable[CorpusRecord], path: str | Path) -> None:
    """Write one record per line with a fixed field order."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(record_to_line(record) + "\n")


def record_to_line(record: CorpusRecord) -> str:
    payload: dict[str, Any] = {
        "id": record.id,
        "article": record.article,
        "summary": record.summary,
    }
    if record.noisy is not None:
        payload["noisy"] = record.noisy
    if record.provenance is not None:
        payload["provenance"] = record.provenance
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
    return list(value)
