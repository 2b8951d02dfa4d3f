from __future__ import annotations

import functools
import math
import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import greedy_edit_counts
from sumnoise.analysis import (
    EditKind,
    SystemReport,
    aggregate_operations,
    aligned_pairs,
    classify_edit,
    eval_report,
)
from sumnoise.denoise import overlap_denoise
from sumnoise.errors import AlignmentError, EmptyCorpusError
from sumnoise.metrics import repeat_rate, repetition_count, rouge_l, rouge_n, summary_stats
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    Alignment,
    NoiseDistribution,
    NoiseType,
    make_noisy_record,
    sentence_similarity,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import SummaryDoc, TokenizedSentence, make_document, tokenize


def noised_records(records: int, seed: int = 19):
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    alignments = [Alignment(r.summary_doc(), r.article_doc()) for r in synth_corpus(records, seed)]
    return [
        make_noisy_record(alignment, NoiseType.MIXTURE, dist, seed, variant)
        for alignment in alignments
        for variant in range(DEFAULT_VARIANTS)
    ]


# --- classify_edit ----------------------------------------------------------


def test_identical_documents_are_no_change():
    doc = make_document(["a b c", "d e f"])
    result = classify_edit(doc, doc)
    assert result.kind is EditKind.NO_CHANGE
    assert result.deleted_count == 0
    assert result.modified_count == 0


# Sentences whose token-type sets coincide although their raw text differs.
SENTENCE_POOL = ["a b", "b a", "a b b", "A, b!", "a c", "c", "c a b", "b c a."]


def equal_copy(doc):
    """A document equal to ``doc`` that shares none of its sentence objects."""
    return SummaryDoc(tuple(TokenizedSentence(s.raw, s.tokens) for s in doc.sentences), doc.source_id)


@settings(derandomize=True, max_examples=300)
@given(
    st.lists(st.sampled_from(SENTENCE_POOL), min_size=1, max_size=6),
    st.none() | st.lists(st.sampled_from(SENTENCE_POOL), min_size=1, max_size=6),
    st.sampled_from([0.0, 0.5, 1.0, 1.5, math.nan]),
)
def test_classify_edit_agrees_with_the_greedy_loop(before_sents, after_sents, threshold):
    before = make_document(before_sents)
    # None draws an unchanged document, which takes the short-cut unless the
    # threshold is above 1 or NaN.
    afters = [before, equal_copy(before)] if after_sents is None else [make_document(after_sents)]
    for after in afters:
        result = classify_edit(before, after, threshold)
        assert (result.deleted_count, result.modified_count) == greedy_edit_counts(before, after, threshold)
        if after_sents is None and threshold <= 1.0:
            assert result.kind is EditKind.NO_CHANGE
        elif after_sents is None:  # no pair can reach the threshold
            assert result == (EditKind.DELETED_AND_MODIFIED, len(before), len(before))


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
    assert str(excinfo.value) == "record ids diverge: 'x2' vs 'zz'"


def test_aligned_pairs_checks_lengths():
    a = [make_document(["a b"], source_id="x1")]
    b = [make_document(["a b"], source_id="x1"), make_document(["c d"], source_id="x2")]
    with pytest.raises(AlignmentError) as excinfo:
        list(aligned_pairs(a, b))
    assert str(excinfo.value) == "streams have different lengths; unmatched record 'x2'"


# --- eval_report ---------------------------------------------------------------


def docs_with_ids(texts_by_id):
    return [make_document(texts, source_id=i) for i, texts in texts_by_id]


def by_id(docs):
    return {doc.source_id: doc for doc in docs}.__getitem__


def test_eval_report_identical_streams_have_identical_rows():
    docs = docs_with_ids([("a", ["x y z", "p q"]), ("b", ["m n o"])])
    report = eval_report(aligned_pairs(docs, docs))
    before, after = report.rows
    assert before.system == "before" and after.system == "after"
    assert (before.repeat_rate, before.mean_sentences, before.mean_tokens) == (
        after.repeat_rate,
        after.mean_sentences,
        after.mean_tokens,
    )
    assert before.rouge1 is None


@settings(derandomize=True, max_examples=100)
@given(
    st.lists(
        st.tuples(
            st.lists(st.sampled_from(SENTENCE_POOL), min_size=1, max_size=5),
            st.sampled_from(["same", "copy", "changed"]),
            st.lists(st.sampled_from(SENTENCE_POOL), min_size=1, max_size=5),
        ),
        min_size=1,
        max_size=6,
    ),
    st.booleans(),
)
def test_eval_report_rows_equal_scoring_each_side_on_its_own(pairs, with_references):
    before, after, references = [], [], []
    for i, (sents, change, other) in enumerate(pairs):
        doc = make_document(sents, source_id=f"r{i}")
        before.append(doc)
        if change == "same":
            after.append(doc)
        elif change == "copy":
            after.append(equal_copy(doc))
        else:
            after.append(make_document(other, source_id=f"r{i}"))
        references.append(make_document(other[::-1], source_id=f"r{i}"))
    report = eval_report(aligned_pairs(before, after), by_id(references) if with_references else None)
    # Each column from the metric functions themselves, summed document by
    # document in stream order, as a report sums them.
    n = len(before)
    expected = []
    for system, docs in (("before", before), ("after", after)):
        rouge = [None] * 3
        if with_references:
            rouge = [
                100.0 * running_sum(score(doc, ref).f1 for doc, ref in zip(docs, references)) / n
                for score in (functools.partial(rouge_n, n=1), functools.partial(rouge_n, n=2), rouge_l)
            ]
        expected.append(SystemReport(
            system,
            n,
            *rouge,
            repeat_rate=running_sum(map(repeat_rate, docs)) / n,
            mean_sentences=running_sum(summary_stats(doc)[0] for doc in docs) / n,
            mean_tokens=running_sum(summary_stats(doc)[1] for doc in docs) / n,
            repetition_total=running_sum(map(repetition_count, docs)),
        ))
    assert report.rows == tuple(expected)


def running_sum(values):
    """Left-to-right sum; ``sum`` rounds float sums differently from Python 3.12 on."""
    return functools.reduce(operator.add, values, 0)


def test_eval_report_rows_do_not_depend_on_sharing_the_reference_object():
    # A record's noise variants share one reference, whose ROUGE tables are
    # built on its first use; a fresh, equal reference per call builds them
    # every time.
    noised = noised_records(20)
    clean = {r.id: r.summary_doc() for r in synth_corpus(20, 19)}
    assert len(noised) > len(clean)

    def report(references):
        before = [SummaryDoc(n.noisy.sentences, n.noisy.source_id) for n in noised]
        after = [overlap_denoise(doc).output for doc in before]
        return eval_report(aligned_pairs(before, after), references)

    shared = report(clean.__getitem__)
    assert shared.rows == report(lambda record_id: equal_copy(clean[record_id])).rows
    assert shared.rows[0].rouge1 is not None


def test_eval_report_self_references_score_hundred():
    docs = docs_with_ids([("a", ["x y z", "p q"]), ("b", ["m n o"])])
    report = eval_report(aligned_pairs(docs, docs), references=by_id(docs))
    after = report.rows[1]
    assert after.rouge1 == pytest.approx(100.0)
    assert after.rouge2 == pytest.approx(100.0)
    assert after.rouge_l == pytest.approx(100.0)


def test_eval_report_denoising_lowers_repeat_column():
    records = noised_records(100)
    before = [record.noisy for record in records]
    after = [overlap_denoise(record.noisy).output for record in records]
    report = eval_report(aligned_pairs(before, after))
    assert report.rows[1].repeat_rate < report.rows[0].repeat_rate
    assert report.rows[1].repetition_total <= report.rows[0].repetition_total


def test_eval_report_alignment_error_names_record():
    before = docs_with_ids([("a", ["x y"])])
    after = docs_with_ids([("mismatch", ["x y"])])
    with pytest.raises(AlignmentError) as excinfo:
        eval_report(aligned_pairs(before, after))
    assert str(excinfo.value) == "record ids diverge: 'a' vs 'mismatch'"


def test_eval_report_empty_streams():
    with pytest.raises(EmptyCorpusError):
        eval_report(aligned_pairs([], []))


def test_eval_report_serialization_shapes():
    docs = docs_with_ids([("a", ["x y z"])])
    report = eval_report(aligned_pairs(docs, docs), references=by_id(docs))
    payload = report.to_dict()
    assert [row["system"] for row in payload["systems"]] == ["before", "after"]
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].startswith("system\trouge1")
    assert len(tsv.splitlines()) == 3
