from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumnoise.errors import EmptyDocumentError, EmptySentenceError
from sumnoise.text import (
    _EDGE_CHARS,
    SENTENCE_CACHE_SIZE,
    SummaryDoc,
    TokenizedSentence,
    cached_tokenize,
    drop_token,
    has_tokens,
    make_document,
    sentence_similarity,
    split_sentences,
    tokenize,
    unigram_overlap,
)

words = st.text(alphabet="abcxyz", min_size=1, max_size=6)
token_lists = st.lists(words, min_size=1, max_size=8)


def test_tokenize_lowercases_and_strips_punctuation():
    sent = tokenize("The cat sat.")
    assert sent.tokens == ("the", "cat", "sat")
    assert sent.raw == "The cat sat."


def test_tokenize_duplicates_collapse_only_in_type_set():
    sent = tokenize("a a b")
    assert sent.tokens == ("a", "a", "b")
    assert sent.token_types == {"a", "b"}


@pytest.mark.parametrize("raw", ["", "   ", "...", "?! --"])
def test_tokenize_rejects_empty_input(raw):
    with pytest.raises(EmptySentenceError):
        tokenize(raw)


def test_has_tokens_agrees_with_tokenize():
    # Every 7th code point plus every edge and whitespace character, alone,
    # before an edge unit, and doubled after one.
    code_points = range(sys.maxunicode + 1)
    chars = {chr(cp) for cp in code_points[::7]} | set(_EDGE_CHARS)
    chars |= {chr(cp) for cp in code_points if chr(cp).isspace()}
    mismatches = []
    for char in sorted(chars):
        for raw in (char, char + " .", ". " + char + char):
            try:
                tokenize(raw)
                expected = True
            except EmptySentenceError:
                expected = False
            if has_tokens(raw) != expected:
                mismatches.append(raw)
    assert mismatches == []


def test_tokenize_keeps_interior_punctuation():
    assert tokenize("don't stop (now)").tokens == ("don't", "stop", "now")


def test_tokenize_is_deterministic():
    assert tokenize("Some Words Here").tokens == tokenize("Some Words Here").tokens


@given(token_lists)
def test_tokenize_idempotent_on_token_output(tokens):
    once = tokenize(" ".join(tokens))
    again = tokenize(" ".join(once.tokens))
    assert again.tokens == once.tokens


def test_drop_token_removes_the_unit_that_produced_the_token():
    # The dash is a unit without a token, so token 1 ("beta") is unit 2.
    result = drop_token(tokenize("Alpha — beta, Gamma delta."), 1)
    assert result.raw == "Alpha — Gamma delta."
    assert result.tokens == ("alpha", "gamma", "delta")
    assert tokenize(result.raw) == result


def test_split_two_sentences():
    assert len(split_sentences("A b. C d.")) == 2


def test_split_without_terminator_is_one_sentence():
    assert split_sentences("one sentence") == ["one sentence"]


def test_split_does_not_break_on_title_abbreviation():
    # Verified by hand against the abbreviation list: "Mr." must not split.
    assert split_sentences("Mr. Smith ran. He won.") == ["Mr. Smith ran.", "He won."]


def test_split_handles_question_and_exclamation():
    assert len(split_sentences("Really? Yes! Fine.")) == 3


def test_split_drops_pieces_without_tokens():
    assert split_sentences("Fine. ... Done.") == ["Fine.", "Done."]


def test_split_rejects_unsplittable_content():
    with pytest.raises(EmptySentenceError):
        split_sentences("   ")


def test_split_reconstructs_text_up_to_whitespace():
    text = "First part here. Second part there. Third one."
    assert " ".join(split_sentences(text)).split() == text.split()


def test_overlap_identical_sentences():
    a = tokenize("the cat sat")
    assert unigram_overlap(a, tokenize("the cat sat")) == 1.0


def test_overlap_half_shared():
    # Hand count: {a, b} shared out of four types in the first argument.
    assert unigram_overlap(tokenize("a b c d"), tokenize("a b x y")) == 0.5


def test_overlap_disjoint():
    assert unigram_overlap(tokenize("a b"), tokenize("c d")) == 0.0


def test_overlap_is_directional():
    short = tokenize("a b")
    long = tokenize("a b c d")
    assert unigram_overlap(short, long) == 1.0
    assert unigram_overlap(long, short) == 0.5


@given(token_lists)
def test_overlap_self_is_one(tokens):
    sent = tokenize(" ".join(tokens))
    assert unigram_overlap(sent, sent) == 1.0


@given(token_lists, token_lists)
def test_overlap_bounded(a_tokens, b_tokens):
    a = tokenize(" ".join(a_tokens))
    b = tokenize(" ".join(b_tokens))
    assert 0.0 <= unigram_overlap(a, b) <= 1.0


@given(token_lists, token_lists)
def test_overlap_ignores_token_duplication(a_tokens, b_tokens):
    a = tokenize(" ".join(a_tokens))
    a_doubled = tokenize(" ".join(a_tokens + a_tokens))
    b = tokenize(" ".join(b_tokens))
    assert unigram_overlap(a, b) == unigram_overlap(a_doubled, b)
    assert unigram_overlap(b, a) == unigram_overlap(b, a_doubled)


def test_sentence_similarity_is_the_exact_dice_coefficient():
    # Every pair of type-set sizes up to 40 and every overlap between them:
    # the score must be the correctly rounded 2c / (a + b), so equal ratios
    # are equal floats.
    def sentence(size: int, shared: int, prefix: str) -> TokenizedSentence:
        tokens = [f"s{i}" for i in range(shared)] + [f"{prefix}{i}" for i in range(size - shared)]
        return TokenizedSentence(raw=" ".join(tokens), tokens=tuple(tokens))

    for a in range(1, 41):
        for b in range(1, 41):
            for c in range(min(a, b) + 1):
                score = sentence_similarity(sentence(a, c, "a"), sentence(b, c, "b"))
                assert score == float(Fraction(2 * c, a + b)), (a, b, c)


def test_documents_and_sentences_cannot_be_empty():
    with pytest.raises(EmptyDocumentError):
        SummaryDoc(())
    with pytest.raises(EmptyDocumentError):
        make_document([])
    with pytest.raises(EmptySentenceError, match=r"^no tokens in sentence: '\?! --'$"):
        TokenizedSentence("?! --", ())


def test_make_document_preserves_order():
    doc = make_document(["First here.", "Second there."], source_id="x1")
    assert doc.raw_sentences() == ["First here.", "Second there."]
    assert doc.source_id == "x1"
    assert len(doc) == 2


def test_documents_sharing_a_string_share_its_tokenized_sentence():
    first = make_document(["Shared words here.", "Only in the first."])
    second = make_document(["Other words.", "Shared words here."])
    assert second.sentences[1] is first.sentences[0]


def test_sentence_cache_stays_bounded_and_agrees_with_tokenize():
    strings = [f"Sentence number {i}, with {i % 7} extra words." for i in range(3 * SENTENCE_CACHE_SIZE)]
    # Revisit every string after the cache has evicted it.
    for raw in strings + strings[::-1]:
        doc = make_document([raw])
        assert doc.sentences[0] == tokenize(raw)
        assert cached_tokenize.cache_info().currsize <= SENTENCE_CACHE_SIZE
    assert cached_tokenize.cache_info().currsize == SENTENCE_CACHE_SIZE


def test_sentence_cache_does_not_remember_errors():
    for _ in range(2):
        with pytest.raises(EmptySentenceError, match=r"no tokens in sentence: '\?! --'"):
            make_document(["Fine words.", "?! --"])
