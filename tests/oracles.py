"""Brute-force reference implementations, used only to cross-check the real metrics.

These deliberately use different algorithms from the package: n-gram matches
are counted by consuming reference occurrences one at a time from a list
instead of intersecting Counters, and the LCS is computed with a full
quadratic table instead of bit-parallel row updates.
"""

from __future__ import annotations

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
