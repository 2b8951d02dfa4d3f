from __future__ import annotations

import json

import pytest

from corpus_files import write_records
from sumnoise.corpus import CorpusIndex, CorpusRecord, read_corpus, record_to_line
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
    write_records(sample_records(), path)
    loaded = list(read_corpus(path))
    assert loaded == sample_records()


def test_round_trip_is_byte_stable(tmp_path):
    first = tmp_path / "a.jsonl"
    second = tmp_path / "b.jsonl"
    write_records(sample_records(), first)
    write_records(read_corpus(first), second)
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
        ([1, 2], "record is not an object"),
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


def test_index_offsets_point_at_their_lines_across_blank_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    first, second = (record_to_line(record) for record in sample_records())
    path.write_bytes(f"\n  \r\n{first}\r\n\n{second}\n\n".encode("utf-8"))
    with CorpusIndex(path) as index:
        assert list(index.offsets) == ["r1", "r2"]
        assert ("r1" in index, "r2" in index, "r3" in index, 5 in index) == (True, True, False, False)
        with pytest.raises(KeyError):
            index["r3"]
        lookups = ("r2", "r2", "r1", "r2")
        summaries = [index[record_id] for record_id in lookups]
    expected = {record.id: record.summary_doc() for record in sample_records()}
    assert summaries == [expected[record_id] for record_id in lookups]
    # The index keeps the last document it built: a repeated lookup shares
    # it, and a lookup of another id in between builds a fresh one.
    assert summaries[1] is summaries[0] and summaries[3] is not summaries[0]


@pytest.mark.parametrize(
    "tail, error",
    [
        (b"{nope\n", MalformedRecordError),
        (b'{"id": "x"}\n', MalformedRecordError),
        (b"\xff\n", MalformedRecordError),
        (None, DuplicateIdError),
    ],
)
def test_index_validates_as_read_corpus_does(tmp_path, tail, error):
    path = tmp_path / "corpus.jsonl"
    line = record_to_line(sample_records()[0]).encode("utf-8") + b"\n"
    path.write_bytes(line + (line if tail is None else tail))
    with pytest.raises(error) as from_index:
        CorpusIndex(path)
    with pytest.raises(error) as from_reader:
        list(read_corpus(path))
    assert str(from_index.value) == str(from_reader.value)


@pytest.mark.parametrize("change", ["truncate", "rewrite"])
def test_index_keeps_what_it_read_when_the_file_changes_after_indexing(tmp_path, change):
    path = tmp_path / "corpus.jsonl"
    write_records(sample_records(), path)
    with CorpusIndex(path) as index:
        if change == "truncate":
            path.write_bytes(b"")
        else:
            write_records([record._replace(summary=["something else entirely."]) for record in sample_records()], path)
        assert [index[record_id] for record_id in ("r1", "r2")] == [
            record.summary_doc() for record in sample_records()
        ]
