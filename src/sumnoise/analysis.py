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
from typing import Iterable, Iterator, NamedTuple

from .errors import AlignmentError, EmptyCorpusError
from .metrics import (
    DEFAULT_OVERLAP_THRESHOLD,
    repeat_rate,
    repetition_count,
    rouge_l,
    rouge_n,
    summary_stats,
)
from .text import SummaryDoc, sentence_similarity

DEFAULT_MATCH_THRESHOLD = 0.5


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


class EvalReport(NamedTuple):
    rows: tuple[SystemReport, ...]

    def to_dict(self) -> dict:
        return {
            "systems": [
                {
                    "system": row.system,
                    "records": row.records,
                    "rouge1": row.rouge1,
                    "rouge2": row.rouge2,
                    "rougeL": row.rouge_l,
                    "repeat_rate": row.repeat_rate,
                    "mean_sentences": row.mean_sentences,
                    "mean_tokens": row.mean_tokens,
                    "repetitions_total": row.repetition_total,
                }
                for row in self.rows
            ]
        }

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
    """
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
    pairs: Iterable[tuple[SummaryDoc, SummaryDoc]],
    match_threshold: float = DEFAULT_MATCH_THRESHOLD,
) -> OperationDistribution:
    """Distribution of edit kinds over a stream of (before, after) pairs."""
    counts = {kind: 0 for kind in EditKind}
    total = 0
    for before, after in pairs:
        counts[classify_edit(before, after, match_threshold).kind] += 1
        total += 1
    if total == 0:
        raise EmptyCorpusError("no before/after pairs to aggregate")
    fractions = {kind: counts[kind] / total for kind in EditKind}
    return OperationDistribution(fractions=fractions, counts=counts, sample_count=total)


def aligned_pairs(*streams: Iterable[SummaryDoc]) -> Iterator[tuple[SummaryDoc, ...]]:
    """Zip document streams, insisting that record ids line up across all of them."""
    sentinel = object()
    iterators = [iter(stream) for stream in streams]
    while True:
        items = [next(it, sentinel) for it in iterators]
        if all(item is sentinel for item in items):
            return
        if any(item is sentinel for item in items):
            present = next(item for item in items if item is not sentinel)
            raise AlignmentError(
                f"streams have different lengths; unmatched record {present.source_id!r}"
            )
        first = items[0].source_id
        other = next((doc.source_id for doc in items if doc.source_id != first), None)
        if other is not None:
            raise AlignmentError(f"record ids diverge: {first!r} vs {other!r}")
        yield tuple(items)


def eval_report(
    before: Iterable[SummaryDoc],
    after: Iterable[SummaryDoc],
    references: Iterable[SummaryDoc] | None = None,
    repetition_threshold: float = DEFAULT_OVERLAP_THRESHOLD,
) -> EvalReport:
    """Build before/after metric rows over streams aligned by record id.

    Each row reports mean ROUGE-1/2/L F1 against the references (when
    supplied), mean Repeat rate, mean sentence and token counts, and the
    total repetition count. ROUGE and Repeat are scaled to [0, 100].
    """
    systems = {
        "before": MetricAccumulator(repetition_threshold),
        "after": MetricAccumulator(repetition_threshold),
    }
    streams = [before, after] if references is None else [before, after, references]
    for before_doc, after_doc, *reference in aligned_pairs(*streams):
        systems["before"].add(before_doc, *reference)
        systems["after"].add(after_doc, *reference)
    if systems["before"].records == 0:
        raise EmptyCorpusError("no records to evaluate")
    return EvalReport(
        rows=tuple(acc.row(name, with_rouge=references is not None) for name, acc in systems.items())
    )


class MetricAccumulator:
    """Per-document metric sums for one system; ``row`` turns them into corpus means."""

    def __init__(self, repetition_threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> None:
        self.repetition_threshold = repetition_threshold
        self.records = 0
        self.rouge1 = 0.0
        self.rouge2 = 0.0
        self.rouge_l = 0.0
        self.repeat = 0.0
        self.sentences = 0
        self.tokens = 0
        self.repetitions = 0

    def add(self, doc: SummaryDoc, reference: SummaryDoc | None = None) -> None:
        self.records += 1
        sentences, tokens = summary_stats(doc)
        self.sentences += sentences
        self.tokens += tokens
        self.repeat += repeat_rate(doc)
        self.repetitions += repetition_count(doc, self.repetition_threshold)
        if reference is not None:
            self.rouge1 += rouge_n(doc, reference, 1).f1
            self.rouge2 += rouge_n(doc, reference, 2).f1
            self.rouge_l += rouge_l(doc, reference).f1

    def row(self, system: str, with_rouge: bool = False) -> SystemReport:
        n = self.records
        return SystemReport(
            system=system,
            records=n,
            rouge1=100.0 * self.rouge1 / n if with_rouge else None,
            rouge2=100.0 * self.rouge2 / n if with_rouge else None,
            rouge_l=100.0 * self.rouge_l / n if with_rouge else None,
            repeat_rate=self.repeat / n,
            mean_sentences=self.sentences / n,
            mean_tokens=self.tokens / n,
            repetition_total=self.repetitions,
        )
