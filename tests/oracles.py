"""Brute-force reference implementations, used only to cross-check the real metrics.

These deliberately use different algorithms from the package: n-gram matches
are counted by consuming reference occurrences one at a time from a list
instead of summing clipped counts, the LCS is computed with a full quadratic
table instead of bit-parallel row updates, Repeat counts the sentences that
hold each token type in a Counter instead of building the set of shared
types, edits are classified by the greedy alignment loop alone, with no
short-cut for unchanged documents, and extra noise gives each inserted
sentence a slot instead of merging the sorted draws into the summary.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence


def ngram_list(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def clipped_match_count(cand_tokens: Sequence[str], ref_tokens: Sequence[str], n: int) -> int:
    remaining = ngram_list(ref_tokens, n)
    hits = 0
    for gram in ngram_list(cand_tokens, n):
        if gram in remaining:
            remaining.remove(gram)
            hits += 1
    return hits


def lcs_full_table(xs: Sequence[str], ys: Sequence[str]) -> int:
    m, n = len(xs), len(ys)
    table = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            if xs[i - 1] == ys[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[m][n]


def precision_recall_f1(match: float, cand_total: int, ref_total: int) -> tuple[float, float, float]:
    precision = match / cand_total if cand_total else 0.0
    recall = match / ref_total if ref_total else 0.0
    if precision + recall == 0.0:
        return precision, recall, 0.0
    return precision, recall, 2.0 * precision * recall / (precision + recall)


def repeat_rate_counter(doc) -> float:
    """Repeat rate, with the number of sentences holding each token type kept in a Counter."""
    type_counts: Counter[str] = Counter()
    for sent in doc.sentences:
        type_counts.update(sent.token_types)
    total = 0.0
    for sent in doc.sentences:
        shared = sum(1 for token in sent.token_types if type_counts[token] >= 2)
        total += shared / len(sent.token_types)
    return 100.0 * total / len(doc)


def greedy_edit_counts(before, after, match_threshold: float) -> tuple[int, int]:
    """Deleted and modified counts of the greedy alignment, with no short-cut.

    Each after-sentence takes its most similar unmatched before-sentence (the
    Dice similarity of their token types, ties to the lowest index) when that
    similarity reaches ``match_threshold``.
    """
    unmatched = list(range(len(before.sentences)))
    modified = 0
    for sent in after.sentences:
        best_pos, best_sim = -1, -1.0
        for pos in unmatched:
            a, b = frozenset(sent.tokens), frozenset(before.sentences[pos].tokens)
            sim = 2 * len(a & b) / (len(a) + len(b))
            if sim > best_sim:
                best_pos, best_sim = pos, sim
        if best_pos >= 0 and best_sim >= match_threshold:
            unmatched.remove(best_pos)
            modified += best_sim < 1.0
        else:
            modified += 1
    return len(unmatched), modified


def extra_noise_by_slots(clean, article, k: int, rng, paraphraser):
    """Extra noise with its insertions placed by a slot per draw.

    Each summary sentence is aligned by a full scan to the article sentence
    of highest Dice similarity over token types, ties to the lowest index.
    The draws are taken from the unaligned article indices as the package
    takes them; draw e gets the slot of the first summary sentence aligned
    above e, or the end when none is, and the slots are then filled in
    summary order. Returns the output sentences and the insertion positions,
    or None when too few article sentences are left unaligned.
    """
    def dice(a, b):
        a, b = frozenset(a.tokens), frozenset(b.tokens)
        return 2 * len(a & b) / (len(a) + len(b))

    positions = range(len(article.sentences))
    aligned = [max(positions, key=lambda j: (dice(s, article.sentences[j]), -j)) for s in clean.sentences]
    pool = [j for j in positions if j not in aligned]
    if k > len(pool):
        return None
    slots: dict[int, list[int]] = {}
    for e in sorted(rng.sample(pool, k)):
        slot = next((i for i, a in enumerate(aligned) if a > e), len(clean.sentences))
        slots.setdefault(slot, []).append(e)
    output, inserted_at = [], []
    for i in range(len(clean.sentences) + 1):
        for e in slots.get(i, ()):
            inserted_at.append(len(output))
            output.append(paraphraser(article.sentences[e]))
        if i < len(clean.sentences):
            output.append(clean.sentences[i])
    return output, inserted_at
