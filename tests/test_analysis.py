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
from sumnoise.corpus import CorpusRecord
from sumnoise.denoise import overlap_denoise
from sumnoise.errors import AlignmentError, EmptyCorpusError
from sumnoise.metrics import repeat_rate, repetition_count, rouge_l, rouge_n, summary_stats
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    Alignment,
    NoiseDistribution,
    NoiseType,
    derive_seed,
    make_noisy_record,
    sentence_similarity,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import SummaryDoc, TokenizedSentence, make_document, tokenize


def noised_records(records: int, seed: int = 19):
    """Mixture-noised variants of a synth corpus, with ids, seeds and source ids as ``noise --seed <seed>`` gives them."""
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    out = []
    for record in synth_corpus(records, seed):
        alignment = Alignment(record.summary_doc(), record.article_doc())
        for variant in range(DEFAULT_VARIANTS):
            noisy = make_noisy_record(alignment, NoiseType.MIXTURE, dist, derive_seed(seed, record.id, variant))
            out.append(record._replace(
                id=f"{record.id}.v{variant}", noisy=noisy.noisy.raw_sentences(), provenance={"source_id": record.id}
            ))
    return out


def denoised(record):
    """The record with its working summary overlap-denoised, as ``denoise`` writes it."""
    return record._replace(noisy=overlap_denoise(record.working_doc()).output.raw_sentences())


def summary_record(sentences, record_id="r1"):
    """A record whose working summary is ``sentences``; no score reads its article."""
    return CorpusRecord(record_id, ["An article."], sentences)


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
    return SummaryDoc(tuple(TokenizedSentence(s.raw, s.tokens) for s in doc.sentences))


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
        doc = record.working_doc()
        result = overlap_denoise(doc)
        if not result.deleted_indices:
            continue
        classification = classify_edit(doc, result.output)
        assert classification.kind in (EditKind.DELETED, EditKind.DELETED_AND_MODIFIED)
        assert classification.deleted_count == len(result.deleted_indices)


# --- aggregate_operations ----------------------------------------------------


def test_aggregate_all_identical_pairs():
    record = summary_record(["a b c"])
    distribution = aggregate_operations([(record, record)] * 5)
    assert distribution.sample_count == 5
    assert distribution.fractions[EditKind.NO_CHANGE] == 1.0
    assert distribution.counts[EditKind.DELETED] == 0


def test_aggregate_known_synthetic_corpus():
    unchanged = summary_record(["a b c", "d e f"])
    shorter = summary_record(["a b c"])
    edited = summary_record(["a b q", "d e f"])
    both = summary_record(["a b q"])
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
    pairs = [(record, denoised(record)) for record in noised_records(90)]
    distribution = aggregate_operations(pairs)
    assert sum(distribution.fractions.values()) == pytest.approx(1.0, abs=1e-9)


def test_aggregate_empty_stream():
    with pytest.raises(EmptyCorpusError):
        aggregate_operations([])


# --- alignment ----------------------------------------------------------------


def test_aligned_pairs_checks_ids():
    a = [summary_record(["a b"], "x1"), summary_record(["c d"], "x2")]
    b = [summary_record(["a b"], "x1"), summary_record(["c d"], "zz")]
    pairs = aligned_pairs(a, b)
    before, after = next(pairs)
    assert before is a[0] and after is b[0]  # the records themselves
    with pytest.raises(AlignmentError) as excinfo:
        next(pairs)
    assert str(excinfo.value) == "record ids diverge: 'x2' vs 'zz'"


def test_aligned_pairs_checks_lengths():
    a = [summary_record(["a b"], "x1")]
    b = [summary_record(["a b"], "x1"), summary_record(["c d"], "x2")]
    with pytest.raises(AlignmentError) as excinfo:
        list(aligned_pairs(a, b))
    assert str(excinfo.value) == "streams have different lengths; unmatched record 'x2'"


# --- eval_report ---------------------------------------------------------------


def records_with_ids(texts_by_id):
    return [summary_record(texts, record_id) for record_id, texts in texts_by_id]


def by_id(records):
    return {record.id: record.working_doc() for record in records}


def test_eval_report_identical_streams_have_identical_rows():
    records = records_with_ids([("a", ["x y z", "p q"]), ("b", ["m n o"])])
    report = eval_report(aligned_pairs(records, records))
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
    before, after, references = [], [], {}
    for i, (sents, change, other) in enumerate(pairs):
        record = CorpusRecord(f"r{i}", ["An article."], other, noisy=sents)
        before.append(record)
        if change == "same":
            after.append(record)
        elif change == "copy":  # the same working summary, read from the summary field
            after.append(summary_record(list(sents), record.id))
        else:
            after.append(record._replace(noisy=other))
        references[record.id] = make_document(other[::-1])
    report = eval_report(aligned_pairs(before, after), references if with_references else None)
    # Each column from the metric functions themselves, summed document by
    # document in stream order, as a report sums them.
    n = len(before)
    expected = []
    for system, records in (("before", before), ("after", after)):
        docs = [record.working_doc() for record in records]
        rouge = [None] * 3
        if with_references:
            rouge = [
                100.0 * running_sum(score(doc, ref).f1 for doc, ref in zip(docs, references.values())) / n
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

    class FreshCopies(dict):
        def __getitem__(self, clean_id):
            return equal_copy(super().__getitem__(clean_id))

    def report(references):
        return eval_report(aligned_pairs(noised, map(denoised, noised)), references)

    shared = report(clean)
    assert shared.rows == report(FreshCopies(clean)).rows
    assert shared.rows[0].rouge1 is not None


def test_eval_report_self_references_score_hundred():
    records = records_with_ids([("a", ["x y z", "p q"]), ("b", ["m n o"])])
    report = eval_report(aligned_pairs(records, records), references=by_id(records))
    after = report.rows[1]
    assert after.rouge1 == pytest.approx(100.0)
    assert after.rouge2 == pytest.approx(100.0)
    assert after.rouge_l == pytest.approx(100.0)


def test_eval_report_takes_a_plain_dict_of_references():
    records = records_with_ids([("r1", ["x y z"]), ("r2", ["p q"])])
    reference = make_document(["x y z"])
    report = eval_report(aligned_pairs(records[:1], records[:1]), {"r1": reference})
    assert [row.rouge1 for row in report.rows] == [100.0, 100.0]
    with pytest.raises(AlignmentError) as excinfo:
        eval_report(aligned_pairs(records, records), {"r1": reference})
    assert str(excinfo.value) == "no reference for record 'r2'"


def test_eval_report_denoising_lowers_repeat_column():
    records = noised_records(100)
    report = eval_report(aligned_pairs(records, map(denoised, records)))
    assert report.rows[1].repeat_rate < report.rows[0].repeat_rate
    assert report.rows[1].repetition_total <= report.rows[0].repetition_total


def test_eval_report_alignment_error_names_record():
    before = records_with_ids([("a", ["x y"])])
    after = records_with_ids([("mismatch", ["x y"])])
    with pytest.raises(AlignmentError) as excinfo:
        eval_report(aligned_pairs(before, after))
    assert str(excinfo.value) == "record ids diverge: 'a' vs 'mismatch'"


def test_eval_report_empty_streams():
    with pytest.raises(EmptyCorpusError):
        eval_report(aligned_pairs([], []))


def test_eval_report_serialization_shapes():
    records = records_with_ids([("a", ["x y z"])])
    report = eval_report(aligned_pairs(records, records), references=by_id(records))
    payload = report.to_dict()
    assert [row["system"] for row in payload["systems"]] == ["before", "after"]
    tsv = report.to_tsv()
    assert tsv.splitlines()[0].startswith("system\trouge1")
    assert len(tsv.splitlines()) == 3
