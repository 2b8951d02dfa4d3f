from __future__ import annotations

import random

import pytest

from sumnoise.errors import InsufficientArticleError, InsufficientSummaryError, InvalidDistributionError
from sumnoise.metrics import repeat_rate
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    apply_extra,
    apply_repeat,
    apply_replace,
    closest_sentence_index,
    derive_seed,
    identity_paraphrase,
    make_noisy_record,
    sample_noise_count,
    sentence_similarity,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import make_document, tokenize

ONE_NOISY = NoiseDistribution((0.0, 1.0))


def synth_docs(records: int, seed: int = 5):
    return [(r.article_doc(), r.summary_doc()) for r in synth_corpus(records, seed)]


def noised(pairs, noise_type: NoiseType, base_seed: int, variants: int = DEFAULT_VARIANTS):
    """Every variant of every pair at the default distribution; synth pairs never fail."""
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    return [
        make_noisy_record(article, clean, noise_type, dist, base_seed, variant)
        for article, clean in pairs
        for variant in range(variants)
    ]


# --- distribution ----------------------------------------------------------


def test_distribution_must_sum_to_one():
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution((0.5, 0.6))


def test_distribution_rejects_negative_probabilities():
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution((1.5, -0.5))


@pytest.mark.parametrize("text", ["nan", "0.5,nan,0.5"])
def test_distribution_rejects_nan(text):
    # NaN fails every comparison, so neither the sign nor the sum check sees it.
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution.parse(text)


def test_distribution_rejects_empty():
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution(())


def test_distribution_parse():
    assert NoiseDistribution.parse("0.15,0.85").probs == (0.15, 0.85)
    with pytest.raises(InvalidDistributionError):
        NoiseDistribution.parse("0.15,abc")


def test_sample_degenerate_distribution():
    rng = random.Random(1)
    assert all(sample_noise_count(NoiseDistribution((1.0,)), rng) == 0 for _ in range(50))


def test_sample_point_mass():
    rng = random.Random(2)
    dist = NoiseDistribution((0.0, 0.0, 1.0))
    assert all(sample_noise_count(dist, rng) == 2 for _ in range(50))


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
    target = tokenize("a b")
    pool = [tokenize("x y"), tokenize("a b"), tokenize("a b")]
    assert closest_sentence_index(target, pool) == 1


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
    noisy, indices = apply_replace(clean, article, 1, random.Random(0))
    assert noisy.raw_sentences() == ["a b d"]
    assert indices == [0]


def test_replace_verbatim_copy_leaves_sentence_unchanged():
    clean = make_document(["cat sat mat", "dog ran far"])
    article = make_document(["zebras graze quietly", "cat sat mat", "dog ran far"])
    noisy, indices = apply_replace(clean, article, 2, random.Random(4))
    assert noisy.raw_sentences() == clean.raw_sentences()
    assert indices == [0, 1]


def test_replace_k_zero_is_identity():
    clean = make_document(["a b"])
    article = make_document(["c d"])
    noisy, indices = apply_replace(clean, article, 0, random.Random(0))
    assert noisy is clean
    assert indices == []


def test_replace_changes_only_chosen_positions():
    rng = random.Random(21)
    for article_doc, clean in synth_docs(30):
        k = rng.randint(0, len(clean))
        noisy, indices = apply_replace(clean, article_doc, k, rng)
        assert len(noisy) == len(clean)
        for i, (before, after) in enumerate(zip(clean.sentences, noisy.sentences)):
            if i not in indices:
                assert before == after


def test_replace_rejects_k_beyond_summary():
    clean = make_document(["a b"])
    article = make_document(["c d"])
    with pytest.raises(InsufficientSummaryError):
        apply_replace(clean, article, 2, random.Random(0))


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
    noisy, indices = apply_extra(summary, article, 4, random.Random(0))
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
    noisy, indices = apply_extra(summary, article, 2, random.Random(0))
    assert noisy.raw_sentences() == [
        "cat sat mat",
        "dog ran fast zz qq",
        "bird flew high aa bb",
        "fish swam deep",
    ]
    assert indices == [1, 2]


def test_extra_identity_paraphraser_inserts_verbatim():
    summary, article = _extra_fixture()
    noisy, indices = apply_extra(summary, article, 1, random.Random(9), identity_paraphrase)
    assert len(noisy) == len(summary) + 1
    inserted = noisy.sentences[indices[0]]
    assert inserted in article.sentences


def test_extra_sentence_multiset_is_clean_plus_insertions():
    rng = random.Random(31)
    for article_doc, clean in synth_docs(30):
        noisy, indices = apply_extra(clean, article_doc, 1, rng)
        remaining = list(noisy.sentences)
        for index in indices:
            assert noisy.sentences[index] in article_doc.sentences
        for sent in clean.sentences:
            remaining.remove(sent)
        assert len(remaining) == len(indices)


def test_extra_rejects_k_beyond_unmatched_pool():
    clean = make_document(["a b c"])
    article = make_document(["a b c d"])  # the only sentence is already aligned
    with pytest.raises(InsufficientArticleError):
        apply_extra(clean, article, 1, random.Random(0))


def test_extra_k_zero_is_identity():
    summary, article = _extra_fixture()
    noisy, indices = apply_extra(summary, article, 0, random.Random(0))
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


def test_make_noisy_record_replays_exactly():
    article, clean = synth_docs(1, seed=8)[0]
    first = make_noisy_record(article, clean, NoiseType.MIXTURE, ONE_NOISY, 42, 1)
    second = make_noisy_record(article, clean, NoiseType.MIXTURE, ONE_NOISY, 42, 1)
    assert first == second


@pytest.mark.parametrize("noise_type", list(NoiseType))
def test_generate_emits_three_variants_per_pair(noise_type):
    pairs = synth_docs(100)
    records = noised(pairs, noise_type, base_seed=3)
    assert len(records) == 300
    per_source: dict[str, list[int]] = {}
    for record in records:
        per_source.setdefault(record.source_id, []).append(record.variant_index)
    assert all(sorted(variants) == [0, 1, 2] for variants in per_source.values())


def test_generate_is_deterministic():
    pairs = synth_docs(40)
    first = noised(pairs, NoiseType.MIXTURE, base_seed=17)
    second = noised(pairs, NoiseType.MIXTURE, base_seed=17)
    assert first == second


def test_generate_mixture_records_concrete_types():
    pairs = synth_docs(60)
    records = noised(pairs, NoiseType.MIXTURE, base_seed=1)
    kinds = {record.noise_type for record in records}
    assert kinds <= {NoiseType.REPEAT, NoiseType.REPLACE, NoiseType.EXTRA}
    assert len(kinds) == 3


@pytest.mark.parametrize("noise_type", [NoiseType.REPEAT, NoiseType.REPLACE, NoiseType.EXTRA])
def test_noise_increases_mean_repeat_rate(noise_type):
    pairs = synth_docs(100, seed=23)
    records = noised(pairs, noise_type, base_seed=6, variants=1)
    assert len(records) == 100
    clean_mean = sum(repeat_rate(r.clean) for r in records) / len(records)
    noisy_mean = sum(repeat_rate(r.noisy) for r in records) / len(records)
    assert noisy_mean > clean_mean
