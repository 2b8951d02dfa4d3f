from __future__ import annotations

import pytest

from sumnoise.analysis import (
    EditKind,
    aggregate_operations,
    aligned_pairs,
    classify_edit,
    eval_report,
)
from sumnoise.denoise import overlap_denoise
from sumnoise.errors import AlignmentError, EmptyCorpusError
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    NoiseDistribution,
    NoiseType,
    make_noisy_record,
    sentence_similarity,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import make_document, tokenize


def noised_records(records: int, seed: int = 19):
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    pairs = [(r.article_doc(), r.summary_doc()) for r in synth_corpus(records, seed)]
    return [
        make_noisy_record(article, clean, NoiseType.MIXTURE, dist, seed, variant)
        for article, clean in pairs
        for variant in range(DEFAULT_VARIANTS)
    ]


# --- classify_edit ----------------------------------------------------------


def test_identical_documents_are_no_change():
    doc = make_document(["a b c", "d e f"])
    result = classify_edit(doc, doc)
    assert result.kind is EditKind.NO_CHANGE
    assert result.deleted_count == 0
    assert result.modified_count == 0


def test_missing_sentence_is_a_deletion():
    before = make_document(["a b c", "d e f", "g h i"])
    after = make_document(["a b c", "g h i"])
    result = classify_edit(before, after)
    assert result.kind is EditKind.DELETED
    assert result.deleted_count == 1
    assert result.modified_count == 0


def test_paraphrased_sentence_is_a_modification():
    before = make_document(["a b c d", "x y z"])
    after = make_document(["a b c q", "x y z"])
    # Hand-computed similarity of the edited pair: overlaps 3/4 both ways,
    # harmonic mean 0.75, which sits inside [tau_match, 1).
    assert sentence_similarity(tokenize("a b c q"), tokenize("a b c d")) == pytest.approx(0.75)
    result = classify_edit(before, after, match_threshold=0.5)
    assert result.kind is EditKind.MODIFIED
    assert result.modified_count == 1
    assert result.deleted_count == 0


def test_novel_sentence_counts_as_modification():
    before = make_document(["a b c"])
    after = make_document(["a b c", "q r s"])
    result = classify_edit(before, after)
    assert result.kind is EditKind.MODIFIED
    assert result.modified_count == 1


def test_deletion_and_modification_together():
    before = make_document(["a b c d", "e f g h", "x y z w"])
    after = make_document(["a b c q", "x y z w"])
    result = classify_edit(before, after)
    assert result.kind is EditKind.DELETED_AND_MODIFIED
    assert result.deleted_count == 1
    assert result.modified_count == 1


def test_verbatim_matching_is_order_insensitive():
    before = make_document(["a b c", "d e f", "g h i"])
    swapped = make_document(["g h i", "a b c", "d e f"])
    assert classify_edit(before, swapped).kind is EditKind.NO_CHANGE


def test_overlap_denoise_outputs_classify_as_deletions():
    for record in noised_records(120):
        result = overlap_denoise(record.noisy)
        if not result.deleted_indices:
            continue
        classification = classify_edit(record.noisy, result.output)
        assert classification.kind in (EditKind.DELETED, EditKind.DELETED_AND_MODIFIED)
        assert classification.deleted_count == len(result.deleted_indices)


# --- aggregate_operations ----------------------------------------------------


def test_aggregate_all_identical_pairs():
    doc = make_document(["a b c"])
    distribution = aggregate_operations([(doc, doc)] * 5)
    assert distribution.sample_count == 5
    assert distribution.fractions[EditKind.NO_CHANGE] == 1.0
    assert distribution.counts[EditKind.DELETED] == 0


def test_aggregate_known_synthetic_corpus():
    unchanged = make_document(["a b c", "d e f"])
    shorter = make_document(["a b c"])
    edited = make_document(["a b q", "d e f"])
    both = make_document(["a b q"])
    pairs = (
        [(unchanged, unchanged)] * 4
        + [(unchanged, shorter)] * 3
        + [(unchanged, edited)] * 2
        + [(unchanged, both)] * 1
    )
    distribution = aggregate_operations(pairs)
    assert distribution.sample_count == 10
    assert distribution.fractions[EditKind.NO_CHANGE] == pytest.approx(0.4)
    assert distribution.fractions[EditKind.DELETED] == pytest.approx(0.3)
    assert distribution.fractions[EditKind.MODIFIED] == pytest.approx(0.2)
    assert distribution.fractions[EditKind.DELETED_AND_MODIFIED] == pytest.approx(0.1)


def test_aggregate_fractions_sum_to_one():
    pairs = [(record.noisy, overlap_denoise(record.noisy).output) for record in noised_records(90)]
    distribution = aggregate_operations(pairs)
    assert sum(distribution.fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_aggregate_empty_stream():
    with pytest.raises(EmptyCorpusError):
        aggregate_operations([])


# --- alignment ----------------------------------------------------------------


def test_aligned_pairs_checks_ids():
    a = [make_document(["a b"], source_id="x1"), make_document(["c d"], source_id="x2")]
    b = [make_document(["a b"], source_id="x1"), make_document(["c d"], source_id="zz")]
    with pytest.raises(AlignmentError) as excinfo:
        list(aligned_pairs(a, b))
    assert "zz" in str(excinfo.value) or "x2" in str(excinfo.value)


def test_aligned_pairs_checks_lengths():
    a = [make_document(["a b"], source_id="x1")]
    b = [make_document(["a b"], source_id="x1"), make_document(["c d"], source_id="x2")]
    with pytest.raises(AlignmentError) as excinfo:
        list(aligned_pairs(a, b))
    assert "x2" in str(excinfo.value)


# --- eval_report ---------------------------------------------------------------


def docs_with_ids(texts_by_id):
    return [make_document(texts, source_id=i) for i, texts in texts_by_id]


def test_eval_report_identical_streams_have_identical_rows():
    docs = docs_with_ids([("a", ["x y z", "p q"]), ("b", ["m n o"])])
    report = eval_report(iter(docs), iter(docs))
    before, after = report.rows
    assert before.system == "before" and after.system == "after"
    assert (before.repeat_rate, before.mean_sentences, before.mean_tokens) == (
        after.repeat_rate,
        after.mean_sentences,
        after.mean_tokens,
    )
    assert before.rouge1 is None


def test_eval_report_self_references_score_hundred():
    docs = docs_with_ids([("a", ["x y z", "p q"]), ("b", ["m n o"])])
    report = eval_report(iter(docs), iter(docs), references=iter(docs))
    after = report.rows[1]
    assert after.rouge1 == pytest.approx(100.0)
    assert after.rouge2 == pytest.approx(100.0)
    assert after.rouge_l == pytest.approx(100.0)


def test_eval_report_denoising_lowers_repeat_column():
    records = noised_records(100)
    before = [record.noisy for record in records]
    after = [overlap_denoise(record.noisy).output for record in records]
    report = eval_report(iter(before), iter(after))
    assert report.rows[1].repeat_rate < report.rows[0].repeat_rate
    assert report.rows[1].repetition_total <= report.rows[0].repetition_total


def test_eval_report_alignment_error_names_record():
    before = docs_with_ids([("a", ["x y"])])
    after = docs_with_ids([("mismatch", ["x y"])])
    with pytest.raises(AlignmentError) as excinfo:
        eval_report(iter(before), iter(after))
    assert "mismatch" in str(excinfo.value) or "a" in str(excinfo.value)


def test_eval_report_empty_streams():
    with pytest.raises(EmptyCorpusError):
        eval_report(iter([]), iter([]))


def test_eval_report_serialization_shapes():
    docs = docs_with_ids([("a", ["x y z"])])
    report = eval_report(iter(docs), iter(docs), references=iter(docs))
    payload = report.to_dict()
    assert [row["system"] for row in payload["systems"]] == ["before", "after"]
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].startswith("system\trouge1")
    assert len(tsv.splitlines()) == 3
