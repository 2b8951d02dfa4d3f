"""Classify what a denoiser did to each summary and aggregate corpus-level reports.

A before/after pair is labeled by greedily aligning each after-sentence to
its most similar unmatched before-sentence, where similarity is the Dice
coefficient of the two sentences' token types (``text.sentence_similarity``).
Unmatched before-sentences count as deletions; matched pairs below similarity
1.0 count as modifications, and so do after-sentences that match nothing
(rule-based denoisers never insert, so new content is folded into
modification).
"""

from __future__ import annotations

from enum import Enum
from itertools import zip_longest
from operator import add
from typing import Iterable, Iterator, Mapping, NamedTuple

from .corpus import CorpusRecord
from .errors import AlignmentError, EmptyCorpusError
from .metrics import (
    DEFAULT_MATCH_THRESHOLD,
    DEFAULT_OVERLAP_THRESHOLD,
    repeat_rate,
    repetition_count,
    rouge_l,
    rouge_n,
    summary_stats,
)
from .text import SummaryDoc, sentence_similarity


class EditKind(Enum):
    NO_CHANGE = "no_change"
    DELETED = "deleted"
    MODIFIED = "modified"
    DELETED_AND_MODIFIED = "deleted_and_modified"


class EditClassification(NamedTuple):
    kind: EditKind
    deleted_count: int
    modified_count: int


class OperationDistribution(NamedTuple):
    """Fractions of edit kinds over a corpus; fractions sum to one."""

    fractions: dict[EditKind, float]
    counts: dict[EditKind, int]
    sample_count: int


# The JSON key of a SystemReport field is its name, but for these two,
# which keep the spelling the reports have always written.
_LEGACY_KEYS = {"rouge_l": "rougeL", "repetition_total": "repetitions_total"}


class SystemReport(NamedTuple):
    """One row of an evaluation table. Score columns are scaled to [0, 100]."""

    system: str
    records: int
    rouge1: float | None
    rouge2: float | None
    rouge_l: float | None
    repeat_rate: float
    mean_sentences: float
    mean_tokens: float
    repetition_total: int

    def to_dict(self, fields: Iterable[str] | None = None) -> dict:
        """``fields`` (default: all, in order) under their JSON keys."""
        names = self._fields if fields is None else fields
        return {_LEGACY_KEYS.get(name, name): getattr(self, name) for name in names}


class EvalReport(NamedTuple):
    rows: tuple[SystemReport, ...]

    def to_dict(self) -> dict:
        return {"systems": [row.to_dict() for row in self.rows]}

    def to_tsv(self) -> str:
        header = "system\trouge1\trouge2\trougeL\trepeat\tsents\ttoks\trepetitions\trecords"
        lines = [header]
        for row in self.rows:
            lines.append(
                "\t".join(
                    [
                        row.system,
                        _cell(row.rouge1),
                        _cell(row.rouge2),
                        _cell(row.rouge_l),
                        _cell(row.repeat_rate),
                        _cell(row.mean_sentences),
                        _cell(row.mean_tokens),
                        str(row.repetition_total),
                        str(row.records),
                    ]
                )
            )
        return "\n".join(lines)


def _cell(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def classify_edit(
    before: SummaryDoc,
    after: SummaryDoc,
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> EditClassification:
    """Label the edit a denoiser applied to one summary.

    After-sentences are processed in order; each takes the most similar
    unmatched before-sentence (ties to the lowest index) when the similarity
    reaches ``match_threshold``; similarities are exact, so a pair scoring
    exactly the threshold matches. A match below similarity 1.0 is a
    modification, an unmatched after-sentence is a modification, and every
    before-sentence left unmatched is a deletion.

    Equal sentence tuples are NO_CHANGE without the loop whenever
    ``match_threshold <= 1.0``: the unmatched before-sentences always hold
    the same multiset of token-type sets as the after-sentences still to
    come, so every greedy pick scores exactly 1.0.
    """
    if match_threshold <= 1.0 and after.sentences == before.sentences:
        return EditClassification(kind=EditKind.NO_CHANGE, deleted_count=0, modified_count=0)
    unmatched = list(range(len(before)))
    modified = 0
    for sent in after.sentences:
        best_pos, best_sim = -1, -1.0
        for pos in unmatched:
            sim = sentence_similarity(sent, before.sentences[pos])
            if sim > best_sim:
                best_pos, best_sim = pos, sim
        if best_pos >= 0 and best_sim >= match_threshold:
            unmatched.remove(best_pos)
            if best_sim < 1.0:
                modified += 1
        else:
            modified += 1
    deleted = len(unmatched)
    if deleted and modified:
        kind = EditKind.DELETED_AND_MODIFIED
    elif deleted:
        kind = EditKind.DELETED
    elif modified:
        kind = EditKind.MODIFIED
    else:
        kind = EditKind.NO_CHANGE
    return EditClassification(kind=kind, deleted_count=deleted, modified_count=modified)


def aggregate_operations(
    pairs: Iterable[tuple[CorpusRecord, CorpusRecord]],
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> OperationDistribution:
    """Distribution of edit kinds over (before, after) record pairs, classified on their ``working_doc()``."""
    counts = {kind: 0 for kind in EditKind}
    total = 0
    for before, after in pairs:
        counts[classify_edit(before.working_doc(), after.working_doc(), match_threshold).kind] += 1
        total += 1
    if total == 0:
        raise EmptyCorpusError("no before/after pairs to aggregate")
    fractions = {kind: counts[kind] / total for kind in EditKind}
    return OperationDistribution(fractions=fractions, counts=counts, sample_count=total)


def aligned_pairs(before: Iterable[CorpusRecord], after: Iterable[CorpusRecord]) -> Iterator[tuple[CorpusRecord, CorpusRecord]]:
    """Zip a before and an after record stream, insisting that their ids line up.

    Each step reads a before-record, then an after-record, then checks them:
    a stream that ended alone raises AlignmentError naming the other's
    record, and a pair with two ids raises AlignmentError naming both.
    """
    missing = object()
    for before_record, after_record in zip_longest(before, after, fillvalue=missing):
        # ``is``, not ``in``: a membership test would compare the records.
        if before_record is missing or after_record is missing:
            present = after_record if before_record is missing else before_record
            raise AlignmentError(
                f"streams have different lengths; unmatched record {present.id!r}"
            )
        if before_record.id != after_record.id:
            raise AlignmentError(
                f"record ids diverge: {before_record.id!r} vs {after_record.id!r}"
            )
        yield before_record, after_record


def eval_report(
    pairs: Iterable[tuple[CorpusRecord, CorpusRecord]],
    references: Mapping[str, SummaryDoc] | None = None,
    repetition_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> EvalReport:
    """Build before/after metric rows over a stream of (before, after) record pairs.

    ``pairs`` come as ``aligned_pairs`` yields them; each record is scored on
    its ``working_doc()``. ``references``, when given, maps ids to reference
    summaries (``in`` and ``[]`` are all it needs, so a dict will do). A pair
    is scored against the entry under the before record's
    ``provenance.source_id`` when that is a string the mapping holds, else
    against the entry under the record's own id; a record with neither
    raises AlignmentError. Each pair looks up one entry, after building both
    documents.

    Each row reports mean ROUGE-1/2/L F1 against the references (when
    supplied), mean Repeat rate, mean sentence and token counts, and the
    total repetition count. ROUGE and Repeat are scaled to [0, 100].
    """
    systems = {
        "before": MetricAccumulator(repetition_threshold),
        "after": MetricAccumulator(repetition_threshold),
    }
    for before, after in pairs:
        before_doc, after_doc = before.working_doc(), after.working_doc()
        reference = None if references is None else _reference(references, before)
        scores = systems["before"].add(before_doc, reference)
        # Every score depends only on the sentences and the reference, so an
        # unchanged document adds the before-document's scores as they are.
        if after_doc.sentences == before_doc.sentences:
            systems["after"].add_scores(scores)
        else:
            systems["after"].add(after_doc, reference)
    if systems["before"].records == 0:
        raise EmptyCorpusError("no records to evaluate")
    return EvalReport(
        rows=tuple(acc.row(name, with_rouge=references is not None) for name, acc in systems.items())
    )


def _reference(references: Mapping[str, SummaryDoc], record: CorpusRecord) -> SummaryDoc:
    """The record's reference: under its ``provenance.source_id``, else under its own id."""
    source_id = (record.provenance or {}).get("source_id")
    if isinstance(source_id, str) and source_id in references:
        return references[source_id]
    if record.id in references:
        return references[record.id]
    raise AlignmentError(f"no reference for record {record.id!r}")


class DocumentScores(NamedTuple):
    """One document's metric values, as ``MetricAccumulator`` sums them.

    The ROUGE F1 fields stay 0.0 for a document scored without a reference.
    """

    sentences: int
    tokens: int
    repeat: float
    repetitions: int
    rouge1: float = 0.0
    rouge2: float = 0.0
    rouge_l: float = 0.0


class MetricAccumulator:
    """Per-document metric sums for one system; ``row`` turns them into corpus means."""

    def __init__(self, repetition_threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> None:
        self.repetition_threshold = repetition_threshold
        self.records = 0
        self.sums = DocumentScores(0, 0, 0.0, 0)

    def add(self, doc: SummaryDoc, reference: SummaryDoc | None = None) -> DocumentScores:
        """Score one document, add the scores to the sums, and return them."""
        sentences, tokens = summary_stats(doc)
        rouge = () if reference is None else (
            rouge_n(doc, reference, 1).f1, rouge_n(doc, reference, 2).f1, rouge_l(doc, reference).f1
        )
        scores = DocumentScores(
            sentences, tokens, repeat_rate(doc), repetition_count(doc, self.repetition_threshold), *rouge
        )
        self.add_scores(scores)
        return scores

    def add_scores(self, scores: DocumentScores) -> None:
        """Add one document's scores, as ``add`` returned them, to the sums."""
        self.records += 1
        self.sums = DocumentScores._make(map(add, self.sums, scores))

    def row(self, system: str, with_rouge: bool = False) -> SystemReport:
        n, sums = self.records, self.sums
        rouge = [100.0 * total / n if with_rouge else None for total in (sums.rouge1, sums.rouge2, sums.rouge_l)]
        return SystemReport(system, n, *rouge, sums.repeat / n, sums.sentences / n, sums.tokens / n, sums.repetitions)
