from __future__ import annotations

import json

import pytest

from sumnoise.corpus import CorpusRecord, read_corpus, record_to_line, write_corpus
from sumnoise.errors import DuplicateIdError, MalformedRecordError


def sample_records():
    return [
        CorpusRecord(
            id="r1",
            article=["one two three.", "four five."],
            summary=["one two.", "four five."],
        ),
        CorpusRecord(
            id="r2",
            article=["alpha beta gamma."],
            summary=["alpha beta."],
            noisy=["alpha beta.", "alpha beta."],
            provenance={"noise_type": "repeat", "noised_indices": [1]},
        ),
    ]


def test_round_trip_preserves_everything(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_corpus(sample_records(), path)
    loaded = list(read_corpus(path))
    assert loaded == sample_records()


def test_round_trip_is_byte_stable(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_corpus(sample_records(), first)
    write_corpus(read_corpus(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_read_skips_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    lines = [record_to_line(record) for record in sample_records()]
    path.write_text(lines[0] + "\n\n" + lines[1] + "\n", encoding="utf-8")
    assert len(list(read_corpus(path))) == 2


def test_invalid_json_reports_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(record_to_line(sample_records()[0]) + "\n{nope\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        list(read_corpus(path))
    assert excinfo.value.line_number == 2


@pytest.mark.parametrize(
    "payload, reason_part",
    [
        ({"article": ["a b."], "summary": ["a."]}, "id"),
        ({"id": "x", "summary": ["a."]}, "article"),
        ({"id": "x", "article": ["a b."], "summary": []}, "summary"),
        ({"id": "x", "article": ["a b."], "summary": ["a.", ""]}, "summary"),
        ({"id": "x", "article": ["a b."], "summary": ["a.", 3]}, "summary"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "provenance": 5}, "provenance"),
        ({"id": "x", "article": ["a b.", " \t "], "summary": ["a."]}, "'article' contains an empty"),
        ({"id": "x", "article": ["a b.", None], "summary": ["a."]}, "'article' contains an empty"),
        ({"id": "x", "article": [["a b."]], "summary": ["a."]}, "'article' contains an empty"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "noisy": ["a.", "  "]}, "'noisy' contains an empty"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "noisy": [None]}, "'noisy' contains an empty"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "noisy": ["a.", ["a."]]}, "'noisy' contains an empty"),
        ({"id": "x\ud800", "article": ["a b."], "summary": ["a."]}, "lone surrogate"),
        ({"id": "x", "article": ["a b.", "\udfff c"], "summary": ["a."]}, "lone surrogate"),
        ({"id": "x", "article": ["a b."], "summary": ["\ud800 y"]}, "lone surrogate"),
        ({"id": "x", "article": ["a b."], "summary": "One. \ud83d two."}, "lone surrogate"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "noisy": ["a \ude00"]}, "lone surrogate"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "provenance": {"k": ["\ud800"]}}, "lone surrogate"),
        ({"id": "x", "article": ["a b."], "summary": ["a."], "provenance": {"\ud800": 1}}, "lone surrogate"),
    ],
)
def test_malformed_records_are_rejected(tmp_path, payload, reason_part):
    path = tmp_path / "corpus.jsonl"
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    with pytest.raises(MalformedRecordError) as excinfo:
        list(read_corpus(path))
    assert reason_part in excinfo.value.reason


def test_duplicate_ids_are_rejected(tmp_path):
    path = tmp_path / "corpus.jsonl"
    line = record_to_line(sample_records()[0])
    path.write_text(line + "\n" + line + "\n", encoding="utf-8")
    with pytest.raises(DuplicateIdError):
        list(read_corpus(path))


def test_string_fields_are_split_on_read(tmp_path):
    path = tmp_path / "corpus.jsonl"
    payload = {"id": "x", "article": "One two. Three four.", "summary": "One two."}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    record = next(iter(read_corpus(path)))
    assert record.article == ["One two.", "Three four."]
    assert record.summary == ["One two."]


def test_bytes_that_are_not_utf8_report_their_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(record_to_line(sample_records()[0]).encode("utf-8") + b"\n\xff\xfe\n")
    with pytest.raises(MalformedRecordError) as excinfo:
        list(read_corpus(path))
    assert excinfo.value.line_number == 2


def test_escaped_surrogate_pairs_and_crlf_line_ends_are_read(tmp_path):
    path = tmp_path / "corpus.jsonl"
    payload = {"id": "x", "article": ["a \U0001F600 b."], "summary": ["a \\ud800."]}
    path.write_bytes(json.dumps(payload).encode("ascii") + b"\r\n\r\n")
    assert [(r.article, r.summary) for r in read_corpus(path)] == [(["a \U0001F600 b."], ["a \\ud800."])]


def test_working_doc_prefers_noisy():
    record = sample_records()[1]
    assert record.working_doc().raw_sentences() == ["alpha beta.", "alpha beta."]
    assert sample_records()[0].working_doc().raw_sentences() == ["one two.", "four five."]


def test_docs_carry_record_id():
    record = sample_records()[0]
    assert record.article_doc().source_id == "r1"
    assert record.summary_doc().source_id == "r1"
