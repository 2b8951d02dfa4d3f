"""Summary redundancy and quality metrics.

Repeat rate measures how much of each sentence's vocabulary already occurs
elsewhere in the same summary. ROUGE-1/2/L compare a candidate summary to a
reference. Both are computed without stemming or stopword removal, so
absolute values are only meaningful relative to each other, not to scores
from other toolkits. ROUGE-L's longest common subsequence is computed
bit-parallel, with Python ints as bit vectors; the tests check it for exact
agreement with a quadratic-table oracle.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence

from .errors import InvalidThresholdError
from .text import SummaryDoc, unigram_overlap

DEFAULT_OVERLAP_THRESHOLD = 0.8


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, match: float, candidate_total: int, reference_total: int) -> "RougeScore":
        precision = match / candidate_total if candidate_total else 0.0
        recall = match / reference_total if reference_total else 0.0
        return cls(precision, recall, f1_score(precision, recall))


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def repeat_rate(doc: SummaryDoc) -> float:
    """Mean containment of each sentence's unigrams in the rest of the summary, times 100.

    For each sentence, the fraction of its distinct tokens that also occur in
    the union of all other sentences. A single-sentence summary scores 0.
    """
    type_counts: Counter[str] = Counter()
    for sent in doc.sentences:
        type_counts.update(sent.token_types)
    total = 0.0
    for sent in doc.sentences:
        # A token is in the complement iff some other sentence also has it.
        shared = sum(1 for token in sent.token_types if type_counts[token] >= 2)
        total += shared / len(sent.token_types)
    return 100.0 * total / len(doc)


def rouge_n(candidate: SummaryDoc, reference: SummaryDoc, n: int) -> RougeScore:
    """Clipped n-gram precision/recall/F1 over the flattened token sequences.

    A side with fewer than ``n`` tokens has no n-grams; the score is then 0/0/0.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cand_total = max(len(candidate.all_tokens) - n + 1, 0)
    ref_total = max(len(reference.all_tokens) - n + 1, 0)
    cand_counts = _ngram_counts(candidate.all_tokens, n)
    ref_counts = _ngram_counts(reference.all_tokens, n)
    match = (cand_counts & ref_counts).total()
    return RougeScore.from_counts(match, cand_total, ref_total)


def rouge_l(candidate: SummaryDoc, reference: SummaryDoc) -> RougeScore:
    """Longest-common-subsequence F1 over the flattened token sequences."""
    lcs = _lcs_length(candidate.all_tokens, reference.all_tokens)
    return RougeScore.from_counts(lcs, len(candidate.all_tokens), len(reference.all_tokens))


def repetition_count(doc: SummaryDoc, threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> int:
    """Count sentences whose overlap with some earlier sentence exceeds ``threshold``.

    Each near-duplicate beyond the first occurrence in its group counts once,
    so a summary repeating one sentence three times scores 2.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThresholdError(f"threshold must be in [0, 1], got {threshold}")
    count = 0
    for i, sent in enumerate(doc.sentences):
        if any(unigram_overlap(sent, doc.sentences[j]) > threshold for j in range(i)):
            count += 1
    return count


def summary_stats(doc: SummaryDoc) -> tuple[int, int]:
    """Sentence count and total token occurrences."""
    return len(doc), len(doc.all_tokens)


def _ngram_counts(tokens: Sequence[str], n: int) -> Counter[tuple[str, ...]]:
    return Counter(zip(*(tokens[i:] for i in range(n))))


def _lcs_length(xs: Sequence[str], ys: Sequence[str]) -> int:
    """LCS length by the bit-parallel algorithm (Allison & Dix 1986; Hyyrö 2004).

    ``v`` encodes one row of the LCS table for the prefix of ``xs`` seen so
    far: bit j is clear where that row steps up at column j, so the length is
    the count of clear bits. Python ints serve as bit vectors of any length.
    """
    masks: dict[str, int] = {}
    for j, y in enumerate(ys):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(ys)) - 1
    v = full
    for x in xs:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return len(ys) - v.bit_count()
