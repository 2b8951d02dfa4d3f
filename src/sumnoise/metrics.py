"""Summary redundancy and quality metrics.

Repeat rate measures how much of each sentence's vocabulary already occurs
elsewhere in the same summary. ROUGE-1/2/L compare a candidate summary to a
reference. Both are computed without stemming or stopword removal, so
absolute values are only meaningful relative to each other, not to scores
from other toolkits. ROUGE-L's longest common subsequence is computed
bit-parallel, with Python ints as bit vectors; the tests check it for exact
agreement with a quadratic-table oracle.

The tables ROUGE reads from a document, its n-gram counts and its LCS match
masks, are built by the ``SummaryDoc`` on first use and kept with it, so a
reference scored against several candidates is counted once.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InvalidThresholdError
from .text import SummaryDoc

DEFAULT_OVERLAP_THRESHOLD = 0.8
# The sentence similarity at which ``analysis.classify_edit`` matches an
# after-sentence to a before-sentence; here so that the CLI's defaults load
# no scoring code.
DEFAULT_MATCH_THRESHOLD = 0.5


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
    # A token is in the union of the other sentences iff at least two
    # sentences have it: those are the types seen again after their first.
    seen: set[str] = set()
    shared: set[str] = set()
    for sent in doc.sentences:
        types = sent.token_types
        shared |= seen & types
        seen |= types
    total = 0.0
    for sent in doc.sentences:
        types = sent.token_types
        total += len(types & shared) / len(types)
    return 100.0 * total / len(doc)


def rouge_n(candidate: SummaryDoc, reference: SummaryDoc, n: int) -> RougeScore:
    """Clipped n-gram precision/recall/F1 over the flattened token sequences.

    A side with fewer than ``n`` tokens has no n-grams; the score is then 0/0/0.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    cand_total = max(len(candidate.all_tokens) - n + 1, 0)
    ref_total = max(len(reference.all_tokens) - n + 1, 0)
    cand_counts = candidate.ngram_counts(n)
    ref_counts = reference.ngram_counts(n)
    if len(cand_counts) == cand_total or len(ref_counts) == ref_total:
        # One side holds each of its n-grams once, so every common n-gram
        # clips to a count of 1.
        match = len(cand_counts.keys() & ref_counts.keys())
    else:
        # The clipped match count, summed over the side with fewer distinct
        # n-grams; cheaper than building the Counter ``cand_counts & ref_counts``.
        if len(cand_counts) <= len(ref_counts):
            small, large = cand_counts, ref_counts
        else:
            small, large = ref_counts, cand_counts
        match = sum([min(count, large.get(gram, 0)) for gram, count in small.items()])
    return RougeScore.from_counts(match, cand_total, ref_total)


def rouge_l(candidate: SummaryDoc, reference: SummaryDoc) -> RougeScore:
    """Longest-common-subsequence F1 over the flattened token sequences."""
    lcs = _lcs_length(candidate.all_tokens, reference.match_masks(), len(reference.all_tokens))
    return RougeScore.from_counts(lcs, len(candidate.all_tokens), len(reference.all_tokens))


def repetition_count(doc: SummaryDoc, threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> int:
    """Count sentences whose overlap with some earlier sentence exceeds ``threshold``.

    Each near-duplicate beyond the first occurrence in its group counts once,
    so a summary repeating one sentence three times scores 2.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThresholdError(f"threshold must be in [0, 1], got {threshold}")
    count = 0
    earlier: list[frozenset[str]] = []
    for sent in doc.sentences:
        types = sent.token_types
        # unigram_overlap(sent, other) > threshold, inlined: the same
        # expression, so a score at the boundary compares the same.
        for other in earlier:
            if len(types & other) / len(types) > threshold:
                count += 1
                break
        earlier.append(types)
    return count


def summary_stats(doc: SummaryDoc) -> tuple[int, int]:
    """Sentence count and total token occurrences."""
    return len(doc), len(doc.all_tokens)


def _lcs_length(xs: Sequence[str], masks: dict[str, int], length: int) -> int:
    """LCS length of ``xs`` and ``ys`` by the bit-parallel algorithm (Allison & Dix 1986; Hyyrö 2004).

    ``ys`` comes as its ``length`` and its ``masks``, which map each token to
    the bits of its positions in ``ys`` (``SummaryDoc.match_masks``). ``v``
    encodes one row of the LCS table for the prefix of ``xs`` seen so far:
    bit j is clear where that row steps up at column j, so the length is the
    count of clear bits. Python ints serve as bit vectors of any length.
    """
    full = (1 << length) - 1
    v = full
    for x in xs:
        m = masks.get(x)
        if m:
            u = v & m
            v = ((v + u) | (v - u)) & full
    return length - v.bit_count()
