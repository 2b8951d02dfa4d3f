"""The record types' value semantics: immutable, compared and hashed by field values."""

from __future__ import annotations

import copy
import pickle

import pytest

from sumnoise.analysis import EditClassification, EditKind, EvalReport, OperationDistribution, SystemReport
from sumnoise.corpus import CorpusRecord
from sumnoise.denoise import DenoiseResult
from sumnoise.metrics import RougeScore
from sumnoise.noising import NoiseDistribution, NoiseType, NoisyRecord
from sumnoise.text import SummaryDoc, TokenizedSentence, make_document, tokenize


def _sentence():
    return TokenizedSentence("The cat sat.", ("the", "cat", "sat"))


def _doc():
    return SummaryDoc((_sentence(), TokenizedSentence("Dogs bark.", ("dogs", "bark"))))


def _row(system="before"):
    return SystemReport(system, 2, 50.0, 25.0, None, 10.0, 2.5, 12.0, 1)


# A factory that returns a new object with the same field values on every
# call, and one of the object's fields.
FROZEN = {
    "CorpusRecord": (lambda: CorpusRecord("r1", ["An article."], ["A summary."], ["Noisy."], {"k": 1}), "noisy"),
    "TokenizedSentence": (_sentence, "tokens"),
    "SummaryDoc": (_doc, "sentences"),
    "NoiseDistribution": (lambda: NoiseDistribution((0.25, 0.75)), "probs"),
    "RougeScore": (lambda: RougeScore(0.5, 0.25, 1 / 3), "f1"),
    "DenoiseResult": (lambda: DenoiseResult(_doc(), (2,)), "output"),
    "NoisyRecord": (lambda: NoisyRecord(_doc(), NoiseType.REPEAT, (1,)), "noised_indices"),
    "EditClassification": (lambda: EditClassification(EditKind.DELETED, 1, 0), "kind"),
    "OperationDistribution": (
        lambda: OperationDistribution({kind: 0.25 for kind in EditKind}, {kind: 1 for kind in EditKind}, 4),
        "counts",
    ),
    "SystemReport": (_row, "rouge_l"),
    "EvalReport": (lambda: EvalReport((_row("before"), _row("after"))), "rows"),
}
# CorpusRecord holds lists and OperationDistribution dicts, so they have value
# equality but no hash.
UNHASHABLE = {"CorpusRecord", "OperationDistribution"}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_assigning_or_deleting_a_field_raises_attribute_error(name):
    make, field = FROZEN[name]
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == getattr(make(), field)


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_equal_field_values_give_equal_objects_and_hashes(name):
    make, _ = FROZEN[name]
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a
    assert copy.copy(a) == a


def test_a_different_field_value_compares_unequal():
    assert TokenizedSentence("a b", ("a", "b")) != TokenizedSentence("A b", ("a", "b"))
    assert SummaryDoc(_doc().sentences[::-1]) != _doc()
    assert NoiseDistribution((1.0,)) != NoiseDistribution((0.0, 1.0))
    assert RougeScore(0.5, 0.5, 0.5) != RougeScore(0.5, 0.5, 0.25)
    # A FrozenValue never equals the plain tuple of its fields; a NamedTuple record does.
    assert TokenizedSentence("a b", ("a", "b")) != ("a b", ("a", "b"))
    assert NoiseDistribution((1.0,)) != ((1.0,),)
    assert RougeScore(0.5, 0.5, 0.5) == (0.5, 0.5, 0.5)


def test_constructors_take_positional_and_keyword_fields():
    sentence = TokenizedSentence(raw="The cat sat.", tokens=("the", "cat", "sat"))
    assert sentence == _sentence()
    assert SummaryDoc(sentences=(sentence,)) == SummaryDoc((sentence,))
    with pytest.raises(TypeError):
        SummaryDoc((sentence,), "r1")  # the record id belongs to the CorpusRecord
    assert NoiseDistribution(probs=(1.0,)).max_count == 0


def test_derived_fields_are_computed_once_and_are_frozen_too():
    sentence = tokenize("the cat the dog")
    assert sentence.token_types == {"the", "cat", "dog"}
    assert sentence.token_types is sentence.token_types
    doc = make_document(["a b", "c"])
    assert doc.all_tokens == ("a", "b", "c")
    assert doc.all_tokens is doc.all_tokens
    with pytest.raises(AttributeError):
        sentence.token_types = frozenset()
    with pytest.raises(AttributeError):
        doc.all_tokens = ()
    with pytest.raises(AttributeError):
        sentence.no_such_field


def test_a_document_with_its_rouge_tables_built_keeps_its_value_semantics():
    doc, fresh = _doc(), _doc()
    assert doc.ngram_counts(1) == {"the": 1, "cat": 1, "sat": 1, "dogs": 1, "bark": 1}
    assert doc.ngram_counts(2)[("sat", "dogs")] == 1
    assert doc.match_masks()["dogs"] == 1 << 3
    assert doc.ngram_counts(1) is doc.ngram_counts(1) and doc.match_masks() is doc.match_masks()
    assert doc == fresh and hash(doc) == hash(fresh) and repr(doc) == repr(fresh)
    copied = pickle.loads(pickle.dumps(doc))
    assert copied == doc and repr(copied) == repr(doc)
    assert pickle.dumps(doc) == pickle.dumps(fresh)


def test_corpus_record_is_a_named_tuple_and_replace_gives_a_copy():
    record = CorpusRecord("r1", ["An article."], ["A summary."])
    assert record.noisy is None and record.provenance is None
    assert record == ("r1", ["An article."], ["A summary."], None, None)
    assert len(record) == 5
    record_id, article, *_ = record
    assert (record_id, article) == ("r1", ["An article."])
    noised = record._replace(noisy=["Noisy text."], provenance={"k": 1})
    assert record.noisy is None and record.provenance is None
    assert noised != record
    assert noised == CorpusRecord(
        id="r1", article=["An article."], summary=["A summary."], noisy=["Noisy text."], provenance={"k": 1}
    )
