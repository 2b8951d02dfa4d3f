from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import clipped_match_count, lcs_full_table, ngram_list, precision_recall_f1
from sumnoise.errors import InvalidThresholdError
from sumnoise.metrics import (
    RougeScore,
    _lcs_length,
    repeat_rate,
    repetition_count,
    rouge_l,
    rouge_n,
    summary_stats,
)
from sumnoise.text import SummaryDoc, make_document

token_docs = st.lists(
    st.lists(st.sampled_from("abcxyz"), min_size=1, max_size=5).map(" ".join),
    min_size=1,
    max_size=5,
)


def doc_of(*sentences: str) -> SummaryDoc:
    return make_document(sentences)


# --- repeat rate ----------------------------------------------------------


def test_repeat_rate_single_sentence_is_zero():
    assert repeat_rate(doc_of("a b c")) == 0.0


def test_repeat_rate_identical_pair_is_hundred():
    assert repeat_rate(doc_of("a b c", "a b c")) == 100.0


def test_repeat_rate_half_shared():
    # Hand computation: each sentence shares one of its two types.
    assert repeat_rate(doc_of("a b", "b c")) == 50.0


def test_repeat_rate_counts_types_not_occurrences():
    assert repeat_rate(doc_of("a a a b", "b c")) == repeat_rate(doc_of("a b", "b c"))


@given(token_docs)
def test_repeat_rate_bounded(sentences):
    assert 0.0 <= repeat_rate(make_document(sentences)) <= 100.0


@given(token_docs, st.integers(min_value=0, max_value=4))
def test_appending_duplicate_never_lowers_redundancy(sentences, pick):
    doc = make_document(sentences)
    duplicate = sentences[pick % len(sentences)]
    extended = make_document(list(sentences) + [duplicate])
    assert repeat_rate(extended) >= repeat_rate(doc) - 1e-12
    assert repetition_count(extended) >= repetition_count(doc)


# --- ROUGE-N --------------------------------------------------------------


def test_rouge_n_identical_documents():
    doc = doc_of("a b c", "d e")
    for n in (1, 2):
        score = rouge_n(doc, doc, n)
        assert score == RougeScore(1.0, 1.0, 1.0)


def test_rouge_1_hand_counted():
    score = rouge_n(doc_of("a b c"), doc_of("a b d"), 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)


def test_rouge_2_no_shared_bigrams():
    score = rouge_n(doc_of("a b"), doc_of("c d"), 2)
    assert score == RougeScore(0.0, 0.0, 0.0)


def test_rouge_n_clips_repeated_ngrams():
    # Candidate has "a" three times but the reference only twice.
    score = rouge_n(doc_of("a a a"), doc_of("a a b"), 1)
    assert score.precision == pytest.approx(2 / 3)
    assert score.recall == pytest.approx(2 / 3)


def test_rouge_n_crosses_sentence_boundaries():
    # Documents are flattened, so the bigram spans the sentence break.
    score = rouge_n(doc_of("a b", "c"), doc_of("b c"), 2)
    assert score.precision == pytest.approx(1 / 2)
    assert score.recall == pytest.approx(1.0)


def test_rouge_n_with_no_ngrams_on_either_side_scores_zero():
    score = rouge_n(doc_of("a"), doc_of("a"), 2)
    assert score == RougeScore(0.0, 0.0, 0.0)


def test_rouge_n_one_sided_shortage_scores_zero():
    score = rouge_n(doc_of("a"), doc_of("a b c"), 2)
    assert score == RougeScore(0.0, 0.0, 0.0)


@given(token_docs, token_docs)
def test_rouge_n_symmetry_swaps_precision_and_recall(a_sents, b_sents):
    a, b = make_document(a_sents), make_document(b_sents)
    forward = rouge_n(a, b, 1)
    backward = rouge_n(b, a, 1)
    assert forward.precision == backward.recall
    assert forward.recall == backward.precision
    assert forward.f1 == pytest.approx(backward.f1)


@given(token_docs)
def test_rouge_self_f1_is_one(sentences):
    doc = make_document(sentences)
    assert rouge_n(doc, doc, 1).f1 == 1.0
    assert rouge_l(doc, doc).f1 == 1.0


# --- ROUGE-L --------------------------------------------------------------


def test_rouge_l_identical_documents():
    doc = doc_of("a b c d")
    assert rouge_l(doc, doc) == RougeScore(1.0, 1.0, 1.0)


def test_rouge_l_hand_case_against_oracle():
    cand, ref = doc_of("a b c d"), doc_of("a c b d")
    assert lcs_full_table(cand.all_tokens, ref.all_tokens) == 3
    score = rouge_l(cand, ref)
    assert score.recall == pytest.approx(0.75)
    assert score.precision == pytest.approx(0.75)


def test_rouge_l_disjoint_vocabulary():
    assert rouge_l(doc_of("a b"), doc_of("x y")) == RougeScore(0.0, 0.0, 0.0)


def test_rouge_matches_oracles_on_random_documents():
    rng = random.Random(20240817)
    for _ in range(300):
        cand_tokens = [rng.choice("abc") for _ in range(rng.randint(1, 8))]
        ref_tokens = [rng.choice("abc") for _ in range(rng.randint(1, 8))]
        cand, ref = make_document([" ".join(cand_tokens)]), make_document([" ".join(ref_tokens)])
        for n in (1, 2):
            cand_total = max(len(cand_tokens) - n + 1, 0)
            ref_total = max(len(ref_tokens) - n + 1, 0)
            if cand_total == 0 and ref_total == 0:
                continue
            expected = precision_recall_f1(
                clipped_match_count(cand_tokens, ref_tokens, n), cand_total, ref_total
            )
            got = rouge_n(cand, ref, n)
            assert (got.precision, got.recall, got.f1) == expected
        expected_l = precision_recall_f1(
            lcs_full_table(cand_tokens, ref_tokens), len(cand_tokens), len(ref_tokens)
        )
        got_l = rouge_l(cand, ref)
        assert (got_l.precision, got_l.recall, got_l.f1) == expected_l


def test_rouge_l_matches_oracle_on_long_and_repetitive_documents():
    # Past 30 tokens the LCS bit vector spans several int digits; one- and
    # two-symbol alphabets give the longest carry chains.
    rng = random.Random(20261018)
    for cand_alphabet, ref_alphabet in [("a", "a"), ("ab", "ab"), ("abcdefg", "abcdefg"), ("abc", "xyz")]:
        for _ in range(25):
            cand_tokens = [rng.choice(cand_alphabet) for _ in range(rng.randint(1, 150))]
            ref_tokens = [rng.choice(ref_alphabet) for _ in range(rng.randint(1, 150))]
            cand, ref = make_document([" ".join(cand_tokens)]), make_document([" ".join(ref_tokens)])
            expected = precision_recall_f1(
                lcs_full_table(cand_tokens, ref_tokens), len(cand_tokens), len(ref_tokens)
            )
            got = rouge_l(cand, ref)
            assert (got.precision, got.recall, got.f1) == expected
    assert _lcs_length((), ("a", "b")) == _lcs_length(("a", "b"), ()) == 0


def test_oracle_ngram_list_sanity():
    assert ngram_list(["a", "b", "c"], 2) == [("a", "b"), ("b", "c")]
    assert ngram_list(["a"], 2) == []


# --- repetition count -----------------------------------------------------


def test_repetition_count_counts_later_duplicates():
    assert repetition_count(doc_of("a b c", "a b c")) == 1
    assert repetition_count(doc_of("a b c", "a b c", "a b c")) == 2


def test_repetition_count_no_overlapping_pairs():
    assert repetition_count(doc_of("a b", "c d", "e f")) == 0


def test_repetition_count_threshold_is_strict():
    # Overlap is exactly 0.8, which does not exceed the threshold.
    assert repetition_count(doc_of("a b c d e", "a b c d x")) == 0
    assert repetition_count(doc_of("a b c d e", "a b c d x"), threshold=0.79) == 1


def test_repetition_count_invalid_threshold():
    with pytest.raises(InvalidThresholdError):
        repetition_count(doc_of("a b"), threshold=1.5)
    with pytest.raises(InvalidThresholdError):
        repetition_count(doc_of("a b"), threshold=-0.1)


# --- summary stats --------------------------------------------------------


def test_summary_stats_counts():
    assert summary_stats(doc_of("a b", "c")) == (2, 3)
