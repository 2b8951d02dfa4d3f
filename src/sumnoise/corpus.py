"""JSON-lines corpus records: the streaming reader and the line writer.

One record per line: ``{"id": ..., "article": [...], "summary": [...]}`` with
optional ``noisy`` and ``provenance`` fields. A list value is taken as
pre-split sentences; a string value is running text, split into sentences on
read.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Any, BinaryIO, Iterator, NamedTuple

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
    DuplicateIdError. Iteration holds one record at a time, plus 12 to 24
    bytes per id read: the table of their hashes. A hash that is already
    there is checked against the ids of the earlier lines, read again, so
    only a true repeat is an error. An input that cannot seek, such as a
    pipe, keeps the ids themselves instead.
    """
    with open(path, "rb") as handle:
        exact: set[str] | None = None if handle.seekable() else set()
        hashes, used = _free_slots(64), 0
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
            if exact is not None:
                duplicate = record.id in exact
                exact.add(record.id)
            else:
                # One walk finds the id's hash or the free slot for it.
                key_hash = _id_hash(record.id)
                mask = len(hashes) - 1
                at = key_hash & mask
                while (held := hashes[at]) != _FREE and not (
                    held == key_hash and _id_before(handle, handle.tell() - len(raw), record.id)
                ):
                    at = (at + 1) & mask
                duplicate = held != _FREE
                if not duplicate:
                    hashes[at] = key_hash
                    used += 1
                    if 3 * used > 2 * len(hashes):
                        hashes = _grown(hashes, 1)
            if duplicate:
                raise DuplicateIdError(f"line {line_number}: duplicate id {record.id!r}")
            yield record


def _id_before(handle: BinaryIO, end: int, record_id: str) -> bool:
    """Whether a line of ``handle`` before byte ``end`` holds ``record_id``; the position is kept.

    Every such line was read and validated already, so each blank one is
    skipped and each other one is a record object with an id.
    """
    resume = handle.tell()
    handle.seek(0)
    try:
        offset = 0
        for raw in handle:
            offset += len(raw)
            if offset > end:
                return False
            line = raw.decode("utf-8")
            if line.strip() and json.loads(line)["id"] == record_id:
                return True
        return False
    finally:
        handle.seek(resume)


# An id-hash table, here and in references.CorpusIndex, is open addressing
# with linear probing: entries of one or more signed 64-bit slots in one
# bytearray, each entry an id's hash and then its values. It holds no id, so
# a caller confirms each entry whose hash matches. Its owner doubles it,
# through _grown, once it is 2/3 full.
_id_hash = hash
_FREE = -1  # hash() never returns -1, so it marks a free entry


def _free_slots(count: int) -> memoryview:
    return memoryview(bytearray(b"\xff") * (8 * count)).cast("q")


def _grown(slots: memoryview, width: int) -> memoryview:
    """The table in twice the slots, each entry rehashed straight from the old buffer."""
    grown = _free_slots(2 * len(slots))
    mask = len(grown) // width - 1
    for start in range(0, len(slots), width):
        if (key_hash := slots[start]) != _FREE:
            at = key_hash & mask
            while grown[at * width] != _FREE:
                at = (at + 1) & mask
            grown[at * width:(at + 1) * width] = slots[start:start + width]
    return grown


_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))
# record_to_line's one-entry memo: the last article and summary whose
# sentences were all str, as tuples, and their encoded members.
_last_segment: tuple = (None, "")


def record_to_line(record: CorpusRecord) -> str:
    """One JSON line of the record's fields, in declared order, without those that are None.

    The noise variants of a source share its article and summary, so the
    encoding of those two is kept from one call to the next while their
    values stay the same.
    """
    global _last_segment
    record_id, article, summary, noisy, provenance = record
    sentences = (tuple(article), tuple(summary)) if type(article) is list and type(summary) is list else None
    memo_sentences, segment = _last_segment  # one read, so another thread's entry is never half used
    if sentences is None or sentences != memo_sentences:
        segment = _members({"article": article, "summary": summary})
        if sentences is not None and all(type(sentence) is str for sentence in sentences[0] + sentences[1]):
            _last_segment = sentences, segment
    head = "" if record_id is None else '"id":' + _ENCODER.encode(record_id)
    tail = _members({"noisy": noisy, "provenance": provenance})
    return "{" + ",".join(filter(None, (head, segment, tail))) + "}"


def _members(fields: dict[str, Any]) -> str:
    """The encoded members of the fields that are not None, as ``"a":1,"b":2``, without braces."""
    return _ENCODER.encode({name: value for name, value in fields.items() if value is not None})[1:-1]


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
