from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sumnoise.errors import EmptySentenceError
from sumnoise.text import drop_token, make_document, split_sentences, tokenize, unigram_overlap

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
    sentences = split_sentences("one sentence")
    assert len(sentences) == 1
    assert sentences[0].tokens == ("one", "sentence")


def test_split_does_not_break_on_title_abbreviation():
    # Verified by hand against the abbreviation list: "Mr." must not split.
    sentences = split_sentences("Mr. Smith ran. He won.")
    assert [s.raw for s in sentences] == ["Mr. Smith ran.", "He won."]


def test_split_handles_question_and_exclamation():
    assert len(split_sentences("Really? Yes! Fine.")) == 3


def test_split_rejects_unsplittable_content():
    with pytest.raises(EmptySentenceError):
        split_sentences("   ")


def test_split_reconstructs_text_up_to_whitespace():
    text = "First part here. Second part there. Third one."
    sentences = split_sentences(text)
    assert " ".join(s.raw for s in sentences).split() == text.split()


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


def test_make_document_preserves_order():
    doc = make_document(["First here.", "Second there."], source_id="x1")
    assert doc.raw_sentences() == ["First here.", "Second there."]
    assert doc.source_id == "x1"
    assert len(doc) == 2
