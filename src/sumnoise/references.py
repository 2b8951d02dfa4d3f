"""The reference summaries of ``eval -r``, by id, kept in a copy of their own.

Only ``eval -r`` imports this module, so no other run compiles it.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path
from typing import Callable

from . import corpus
from .corpus import _FREE, _document, _free_slots, _grown, read_corpus
from .text import SummaryDoc


class CorpusIndex:
    """The summaries of a corpus file by id, kept in a copy of their own.

    A mapping as ``eval_report`` reads references: ``id in index`` and
    ``index[id]``, the summary document as ``CorpusRecord.summary_doc``
    builds it. Building the index reads the file once through
    ``read_corpus``, so a malformed line or a repeated id raises the same
    error. Each record's id and summary go, as one JSON line, to an unlinked
    temporary file. The index keeps only each id's hash and the offset of
    its line, 24 to 48 bytes per id; a lookup reads the line and checks its
    id, so ids whose hashes collide are told apart. A pipe is read like a
    file, and a later change to the file does not reach the copy. The index
    keeps the last line it read and the document it built from it, so
    ``id in index`` then ``index[id]``, or consecutive lookups of one id
    such as a record's noise variants, read the copy once and share one
    object.
    """

    def __init__(self, path: str | Path) -> None:
        self._last: tuple[str, list[str]] | None = None
        self._doc: SummaryDoc | None = None  # of self._last, once built
        # An id-hash table of (hash, offset of the id's line in the copy) entries.
        self._offsets, used = _free_slots(128), 0
        self._copy = tempfile.TemporaryFile()
        try:
            for record in read_corpus(path):
                key_hash = corpus._id_hash(record.id)
                at = self._entry(key_hash)
                self._offsets[at], self._offsets[at + 1] = key_hash, self._copy.tell()
                used += 1
                if 3 * used > 2 * (len(self._offsets) // 2):
                    self._offsets = _grown(self._offsets, 2)
                line = json.dumps([record.id, record.summary], ensure_ascii=False)
                self._copy.write(line.encode("utf-8") + b"\n")
        except BaseException:
            self._copy.close()
            raise

    def __enter__(self) -> CorpusIndex:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._copy.close()

    def __contains__(self, record_id: object) -> bool:
        if self._last is not None and self._last[0] == record_id:
            return True
        at = self._entry(corpus._id_hash(record_id), lambda at: self._read(at, record_id))
        return self._offsets[at] != _FREE

    def __getitem__(self, record_id: str) -> SummaryDoc:
        if record_id not in self:
            raise KeyError(record_id)
        if self._doc is None:
            self._doc = _document(record_id, self._last[1])
        return self._doc

    def _entry(self, key_hash: int, confirm: Callable[[int], bool] | None = None) -> int:
        """The entry on ``key_hash``'s probe path that ``confirm`` accepts, else the free one that ends it.

        Returns the index of the entry's hash slot. ``confirm`` gets that
        index for each entry that holds ``key_hash``; without it, none is
        accepted.
        """
        slots = self._offsets
        at = (key_hash & (len(slots) // 2 - 1)) * 2
        while (held := slots[at]) != _FREE and not (held == key_hash and confirm is not None and confirm(at)):
            at = (at + 2) % len(slots)
        return at

    def _read(self, at: int, record_id: object) -> bool:
        """Whether the copy line under slot ``at`` is ``record_id``'s; if so, it becomes the last one read."""
        self._copy.seek(self._offsets[at + 1])
        line_id, summary = json.loads(self._copy.readline())
        if line_id != record_id:
            return False
        self._last, self._doc = (line_id, summary), None
        return True
