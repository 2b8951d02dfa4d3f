from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import extra_noise_by_slots
from sumnoise.errors import InsufficientArticleError, InsufficientSummaryError, InvalidDistributionError
from sumnoise.metrics import repeat_rate
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    Alignment,
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    apply_extra,
    apply_repeat,
    apply_replace,
    derive_seed,
    identity_paraphrase,
    make_noisy_record,
    sample_noise_count,
    sentence_similarity,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import make_document, tokenize

ONE_NOISY = NoiseDistribution((0.0, 1.0))
SMALL_SENTENCES = st.lists(st.sampled_from("abcde"), min_size=1, max_size=3).map(" ".join)


def synth_docs(records: int, seed: int = 5):
    return [(r.article_doc(), r.summary_doc()) for r in synth_corpus(records, seed)]


def noised(records, noise_type: NoiseType, base_seed: int, variants: int = DEFAULT_VARIANTS):
    """Every variant of every record at the default distribution, seeded as ``noise`` seeds them.

    The variants come in record order, a record's consecutively; synth records never fail.
    """
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    out = []
    for record in records:
        alignment = Alignment(record.summary_doc(), record.article_doc())
        out += [
            make_noisy_record(alignment, noise_type, dist, derive_seed(base_seed, record.id, variant))
            for variant in range(variants)
        ]
    return out


# --- distribution ----------------------------------------------------------


def test_distribution_must_sum_to_one():
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution((0.5, 0.6))


def test_distribution_rejects_negative_probabilities():
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution((1.5, -0.5))


@pytest.mark.parametrize(
    "probs",
    [pytest.param((math.nan,), id="nan"), pytest.param((0.5, math.nan, 0.5), id="0.5,nan,0.5")],
)
def test_distribution_rejects_nan(probs):
    # NaN fails every comparison, so neither the sign nor the sum check sees it.
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution(probs)


def test_distribution_rejects_empty():
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution(())


def test_sample_degenerate_distribution():
    rng = random.Random(1)
    assert all(sample_noise_count(NoiseDistribution((1.0,)), rng) == 0 for _ in range(50))


def test_sample_point_mass():
    rng = random.Random(2)
    dist = NoiseDistribution((0.0, 0.0, 1.0))
    assert all(sample_noise_count(dist, rng) == 2 for _ in range(50))


def test_sample_falls_back_to_the_largest_count_above_the_float_sum():
    # The probabilities sum to just under 1, inside the tolerance, so a draw
    # can land above every cumulative sum.
    class AboveTheSum:
        def random(self):
            return 0.99999999995

    dist = NoiseDistribution((0.5, 0.4999999999))
    assert sum(dist.probs) < AboveTheSum().random() < 1.0
    assert sample_noise_count(dist, AboveTheSum()) == dist.max_count == 1


def test_sample_is_deterministic_per_seed():
    dist = NoiseDistribution((0.15, 0.85))
    first = [sample_noise_count(dist, random.Random(7)) for _ in range(20)]
    second = [sample_noise_count(dist, random.Random(7)) for _ in range(20)]
    assert first == second


def test_sample_matches_distribution():
    # 3-sigma binomial band around 0.15 for 10,000 draws is roughly +/- 0.011.
    dist = NoiseDistribution((0.15, 0.85))
    rng = random.Random(99)
    draws = [sample_noise_count(dist, rng) for _ in range(10_000)]
    zero_fraction = draws.count(0) / len(draws)
    assert 0.13 <= zero_fraction <= 0.17


# --- similarity ------------------------------------------------------------


def test_similarity_is_symmetric_harmonic_mean():
    a, b = tokenize("a b c"), tokenize("a b d e")
    # overlaps are 2/3 and 2/4; harmonic mean is 4/7.
    assert sentence_similarity(a, b) == pytest.approx(4 / 7)
    assert sentence_similarity(b, a) == pytest.approx(4 / 7)


def test_similarity_disjoint_is_zero():
    assert sentence_similarity(tokenize("a b"), tokenize("x y")) == 0.0


def test_closest_sentence_tie_breaks_to_lowest_index():
    alignment = Alignment(make_document(["a b"]), make_document(["x y", "a b", "a b"]))
    assert alignment.closest(0) == 1


# --- repeat ----------------------------------------------------------------


def test_repeat_appends_existing_sentence():
    clean = make_document(["s one here", "s two there"])
    noisy, indices = apply_repeat(clean, 1, random.Random(3))
    assert len(noisy) == 3
    assert noisy.sentences[:2] == clean.sentences
    assert noisy.sentences[2] in clean.sentences
    assert indices == [2]


def test_repeat_k_zero_is_identity():
    clean = make_document(["a b", "c d"])
    noisy, indices = apply_repeat(clean, 0, random.Random(3))
    assert noisy is clean
    assert indices == []


def test_repeat_with_replacement_beyond_summary_length():
    clean = make_document(["only one"])
    noisy, indices = apply_repeat(clean, 3, random.Random(3))
    assert len(noisy) == 4
    assert all(sent == clean.sentences[0] for sent in noisy.sentences)
    assert indices == [1, 2, 3]


def test_repeat_length_and_prefix_properties():
    rng = random.Random(11)
    for _ in range(1000):
        sentences = [f"w{i}a w{i}b" for i in range(rng.randint(1, 5))]
        clean = make_document(sentences)
        k = rng.randint(0, 7)
        noisy, indices = apply_repeat(clean, k, rng)
        assert len(noisy) == len(clean) + k
        assert noisy.sentences[: len(clean)] == clean.sentences
        assert len(indices) == k


# --- replace ---------------------------------------------------------------


def test_replace_picks_closest_article_sentence():
    clean = make_document(["a b c"])
    article = make_document(["x y", "a b d"])
    noisy, indices = apply_replace(Alignment(clean, article), 1, random.Random(0))
    assert noisy.raw_sentences() == ["a b d"]
    assert indices == [0]


def test_replace_never_puts_back_a_summary_sentence():
    # Each summary sentence is copied verbatim from the article, so its
    # closest article sentence is itself; the replacement is the one article
    # sentence that no summary sentence holds.
    clean = make_document(["cat sat mat", "dog ran far"])
    article = make_document(["zebras graze quietly", "cat sat mat", "dog ran far"])
    noisy, indices = apply_replace(Alignment(clean, article), 2, random.Random(4))
    assert noisy.raw_sentences() == ["zebras graze quietly", "zebras graze quietly"]
    assert indices == [0, 1]


def test_replace_k_zero_is_identity():
    clean = make_document(["a b"])
    article = make_document(["c d"])
    noisy, indices = apply_replace(Alignment(clean, article), 0, random.Random(0))
    assert noisy is clean
    assert indices == []


def test_replace_changes_only_chosen_positions():
    rng = random.Random(21)
    for article_doc, clean in synth_docs(30):
        k = rng.randint(0, len(clean))
        noisy, indices = apply_replace(Alignment(clean, article_doc), k, rng)
        assert len(noisy) == len(clean)
        for i, (before, after) in enumerate(zip(clean.sentences, noisy.sentences)):
            if i not in indices:
                assert before == after


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(SMALL_SENTENCES, min_size=1, max_size=4),
    st.lists(SMALL_SENTENCES, min_size=1, max_size=7),
    st.integers(0, 2**32),
)
# A Lead-2 summary: each sentence's closest article sentence is itself.
@example(["a b", "c d"], ["a b", "c d", "e"], 0)
# Every article sentence has the types of a summary sentence.
@example(["a b", "c"], ["b a", "c c"], 0)
def test_replace_puts_in_only_sentences_the_summary_does_not_hold(summary, article, seed):
    clean, article_doc = make_document(summary), make_document(article)
    clean_types = {sent.token_types for sent in clean.sentences}
    allowed = [sent for sent in article_doc.sentences if sent.token_types not in clean_types]
    alignment = Alignment(clean, article_doc)
    if not allowed:
        with pytest.raises(InsufficientArticleError):
            apply_replace(alignment, 1, random.Random(seed))
        return
    noisy, indices = apply_replace(alignment, len(clean), random.Random(seed))
    assert indices == list(range(len(clean)))
    for position in indices:
        replacement = noisy.sentences[position]
        assert replacement.token_types not in clean_types
        # The first of the allowed sentences most similar to the one it replaces.
        target = clean.sentences[position]
        assert replacement == max(allowed, key=lambda sent: sentence_similarity(target, sent))


def test_replace_rejects_k_beyond_summary():
    clean = make_document(["a b"])
    article = make_document(["c d"])
    with pytest.raises(InsufficientSummaryError):
        apply_replace(Alignment(clean, article), 2, random.Random(0))


# --- extra -----------------------------------------------------------------


def _extra_fixture():
    summary = make_document(["cat sat mat", "fish swam deep"])
    article = make_document([
        "cat sat mat floor",      # aligned to summary sentence 0
        "dog ran fast zz qq",
        "bird flew high aa bb",
        "fish swam deep water",   # aligned to summary sentence 1
        "tree grew tall cc dd",
        "rock fell down ee ff",
    ])
    return summary, article


def test_extra_inserts_between_aligned_sentences_and_appends_tail():
    summary, article = _extra_fixture()
    noisy, indices = apply_extra(Alignment(summary, article), 4, random.Random(0))
    # Article indices 1 and 2 go between the aligned sentences (0 and 3);
    # indices 4 and 5 exceed every alignment and land at the end, in order.
    assert noisy.raw_sentences() == [
        "cat sat mat",
        "dog ran fast zz qq",
        "bird flew high aa bb",
        "fish swam deep",
        "tree grew tall cc dd",
        "rock fell down ee ff",
    ]
    assert indices == [1, 2, 4, 5]


def test_extra_respects_article_order_for_shared_slot():
    summary = make_document(["cat sat mat", "fish swam deep"])
    article = make_document([
        "cat sat mat floor",
        "dog ran fast zz qq",
        "bird flew high aa bb",
        "fish swam deep water",
    ])
    noisy, indices = apply_extra(Alignment(summary, article), 2, random.Random(0))
    assert noisy.raw_sentences() == [
        "cat sat mat",
        "dog ran fast zz qq",
        "bird flew high aa bb",
        "fish swam deep",
    ]
    assert indices == [1, 2]


def test_extra_identity_paraphraser_inserts_verbatim():
    summary, article = _extra_fixture()
    noisy, indices = apply_extra(Alignment(summary, article), 1, random.Random(9), identity_paraphrase)
    assert len(noisy) == len(summary) + 1
    inserted = noisy.sentences[indices[0]]
    assert inserted in article.sentences


def test_extra_sentence_multiset_is_clean_plus_insertions():
    rng = random.Random(31)
    for article_doc, clean in synth_docs(30):
        noisy, indices = apply_extra(Alignment(clean, article_doc), 1, rng)
        remaining = list(noisy.sentences)
        for index in indices:
            assert noisy.sentences[index] in article_doc.sentences
        for sent in clean.sentences:
            remaining.remove(sent)
        assert len(remaining) == len(indices)



@settings(derandomize=True, max_examples=400)
@given(
    st.lists(SMALL_SENTENCES, min_size=1, max_size=4),
    st.lists(SMALL_SENTENCES, min_size=1, max_size=7),
    st.integers(0, 4),
    st.integers(0, 2**32),
)
# A tie: "a c" and "b d" are equally close to "a b"; both draws exceed it.
@example(["a b"], ["a c", "b d", "e"], 2, 0)
# Two summary sentences aligned to article sentence 0, one draw between the
# alignments and one past every aligned index.
@example(["a b", "a c", "d"], ["a", "b c e", "d e", "c"], 2, 0)
# Alignments out of article order: the draw goes before the first summary
# sentence aligned above it.
@example(["d", "a b"], ["a b", "c", "d"], 1, 0)
def test_extra_places_insertions_as_the_slot_oracle(summary, article, k, seed):
    clean, article_doc = make_document(summary), make_document(article)
    calls, oracle_calls = [], []

    def recording(log):
        def paraphrase(sentence):
            log.append(sentence)
            return sentence

        return paraphrase

    expected = extra_noise_by_slots(clean, article_doc, k, random.Random(seed), recording(oracle_calls))
    alignment = Alignment(clean, article_doc)
    if expected is None:
        with pytest.raises(InsufficientArticleError):
            apply_extra(alignment, k, random.Random(seed))
        return
    noisy, inserted_at = apply_extra(alignment, k, random.Random(seed), recording(calls))
    assert (list(noisy.sentences), inserted_at) == expected
    assert calls == oracle_calls


@pytest.mark.parametrize("noise", [
    lambda alignment, k, rng: apply_repeat(alignment.clean, k, rng),
    apply_replace,
    apply_extra,
], ids=["repeat", "replace", "extra"])
def test_negative_k_is_refused(noise):
    alignment = Alignment(make_document(["a b"]), make_document(["c d"]))
    with pytest.raises(ValueError, match="k must be non-negative, got -1"):
        noise(alignment, -1, random.Random(0))


def test_extra_rejects_k_beyond_unmatched_pool():
    clean = make_document(["a b c"])
    article = make_document(["a b c d"])  # the only sentence is already aligned
    with pytest.raises(InsufficientArticleError):
        apply_extra(Alignment(clean, article), 1, random.Random(0))


def test_extra_k_zero_is_identity():
    summary, article = _extra_fixture()
    noisy, indices = apply_extra(Alignment(summary, article), 0, random.Random(0))
    assert noisy is summary
    assert indices == []


# --- paraphrasers ----------------------------------------------------------


def test_drop_token_paraphraser_drops_one_interior_token():
    paraphrase = DropTokenParaphraser(seed=3)
    sentence = tokenize("alpha beta gamma delta")
    result = paraphrase(sentence)
    assert len(result.tokens) == 3
    assert result.tokens[0] == "alpha"
    assert result.tokens[-1] == "delta"


def test_drop_token_paraphraser_keeps_surface_case_and_punctuation():
    sentence = tokenize("The Senate, on Monday, voted 52-48 for the bill.")
    result = DropTokenParaphraser(seed=0)(sentence)
    assert result.raw == "The on Monday, voted 52-48 for the bill."
    assert result.tokens == ("the", "on", "monday", "voted", "52-48", "for", "the", "bill")
    assert tokenize(result.raw) == result


def test_drop_token_paraphraser_keeps_short_sentences():
    paraphrase = DropTokenParaphraser(seed=3)
    sentence = tokenize("alpha beta")
    assert paraphrase(sentence) is sentence


def test_drop_token_paraphraser_is_deterministic():
    sentence = tokenize("alpha beta gamma delta epsilon")
    assert DropTokenParaphraser(5)(sentence) == DropTokenParaphraser(5)(sentence)


# --- record generation -----------------------------------------------------


def test_derive_seed_distinguishes_variants_and_records():
    seeds = {
        derive_seed(1, "r1", 0),
        derive_seed(1, "r1", 1),
        derive_seed(1, "r2", 0),
        derive_seed(2, "r1", 0),
    }
    assert len(seeds) == 4


def test_seeds_and_paraphrases_hash_with_hashlib_blake2b():
    payload = b"7:0:r1"
    digest = hashlib.blake2b(payload, digest_size=8).digest()
    assert derive_seed(7, "r1", 0) == int.from_bytes(digest, "big")
    sentence = tokenize("one two three four five six seven eight")
    for seed in range(12):
        tokens = sentence.tokens
        hashed = hashlib.blake2b(f"{seed}:{' '.join(tokens)}".encode("utf-8"), digest_size=8).digest()
        drop = 1 + int.from_bytes(hashed, "big") % (len(tokens) - 2)
        assert DropTokenParaphraser(seed)(sentence).tokens == tokens[:drop] + tokens[drop + 1 :]


def test_make_noisy_record_replays_exactly():
    article, clean = synth_docs(1, seed=8)[0]
    first = make_noisy_record(Alignment(clean, article), NoiseType.MIXTURE, ONE_NOISY, 42)
    second = make_noisy_record(Alignment(clean, article), NoiseType.MIXTURE, ONE_NOISY, seed=42)
    assert first == second


@pytest.mark.parametrize("noise_type", list(NoiseType))
def test_generate_emits_three_variants_per_pair(noise_type):
    corpus = list(synth_corpus(100, 5))
    variants = noised(corpus, noise_type, base_seed=3)
    assert len(variants) == 300
    # Synth content words are unique to their record, so every variant keeps
    # some of its own record's summary.
    for i, variant in enumerate(variants):
        assert set(variant.noisy.all_tokens) & set(corpus[i // 3].summary_doc().all_tokens)
    assert len({derive_seed(3, record.id, v) for record in corpus for v in range(3)}) == 300


def test_generate_is_deterministic():
    corpus = list(synth_corpus(40, 5))
    first = noised(corpus, NoiseType.MIXTURE, base_seed=17)
    second = noised(corpus, NoiseType.MIXTURE, base_seed=17)
    assert first == second


def test_generate_mixture_records_concrete_types():
    records = noised(synth_corpus(60, 5), NoiseType.MIXTURE, base_seed=1)
    kinds = {record.noise_type for record in records}
    assert kinds <= {NoiseType.REPEAT, NoiseType.REPLACE, NoiseType.EXTRA}
    assert len(kinds) == 3


@pytest.mark.parametrize("noise_type", [NoiseType.REPEAT, NoiseType.REPLACE, NoiseType.EXTRA])
def test_noise_increases_mean_repeat_rate(noise_type):
    corpus = list(synth_corpus(100, 23))
    records = noised(corpus, noise_type, base_seed=6, variants=1)
    assert len(records) == 100
    clean_mean = sum(repeat_rate(record.summary_doc()) for record in corpus) / len(corpus)
    noisy_mean = sum(repeat_rate(r.noisy) for r in records) / len(records)
    assert noisy_mean > clean_mean
