from __future__ import annotations

import json
import os
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_files import write_records
from oracles import record_line
from sumnoise.corpus import CorpusRecord, read_corpus, record_to_line
from sumnoise.errors import DuplicateIdError, MalformedRecordError
from sumnoise.references import CorpusIndex


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


# --- ids whose hashes collide ---------------------------------------------


@pytest.fixture
def colliding_ids(monkeypatch):
    """Every id hashes alike, so each id read after the first is a hash hit."""
    monkeypatch.setattr("sumnoise.corpus._id_hash", lambda record_id: 7)


def distinct_records(count):
    return [CorpusRecord(id=f"d{i}", article=[f"a{i} b."], summary=[f"s{i} t."]) for i in range(count)]


def corpus_source(tmp_path, data, through):
    """A path that reads ``data``: a regular file, or a pipe that a thread fills."""
    if through == "file":
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(data)
        return path
    path = tmp_path / "corpus.fifo"
    os.mkfifo(path)
    threading.Thread(target=path.write_bytes, args=(data,), daemon=True).start()
    return path


@pytest.mark.parametrize("through", ["file", "fifo"])
def test_ids_whose_hashes_collide_are_all_read(tmp_path, colliding_ids, through):
    records = distinct_records(40)
    # Blank lines, one of them no-break spaces, between the records.
    data = "\n\u00a0\r\n".join(map(record_to_line, records)) + "\n"
    assert list(read_corpus(corpus_source(tmp_path, data.encode("utf-8"), through))) == records


@pytest.mark.parametrize("through", ["file", "fifo"])
@pytest.mark.parametrize("tail", ["", "{nope\n", '{"id": "x"}\n', "\xff\n"])
def test_a_repeated_id_among_colliding_ones_names_its_line(tmp_path, colliding_ids, through, tail):
    records = distinct_records(30)
    lines = [record_to_line(record) for record in records]
    lines.insert(20, "")
    lines.append(record_to_line(records[12]._replace(summary=["another summary."])))  # line 32
    data = "\n".join(lines).encode("utf-8") + b"\n" + tail.encode("latin-1")
    with pytest.raises(DuplicateIdError) as excinfo:
        list(read_corpus(corpus_source(tmp_path, data, through)))
    # A malformed line after the repeated id is never reached.
    assert str(excinfo.value) == "line 32: duplicate id 'd12'"


def test_index_tells_colliding_ids_apart(tmp_path, colliding_ids):
    path = tmp_path / "corpus.jsonl"
    records = distinct_records(25)
    write_records(records, path)
    with CorpusIndex(path) as index:
        for record in reversed(records):
            assert record.id in index
            assert index[record.id] == record.summary_doc()
        assert "d25" not in index and 7 not in index
        with pytest.raises(KeyError):
            index["d25"]


# --- record_to_line --------------------------------------------------------

SENTENCES = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\x00", "\x1f", "\u2028", "\u00e9t\u00e9", "\u65e5\u672c", 'a "b" \\c']),
)
VALUES = st.one_of(SENTENCES, st.sampled_from([1, True, 1.0, 0, False, None]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.data())
def test_record_to_line_is_one_dump_of_the_whole_record(data):
    # Records that share list objects, copy them, mutate them in place between
    # lines and alternate between them, against the line the oracle writes.
    lists = data.draw(st.lists(st.lists(VALUES, max_size=4), min_size=1, max_size=3))
    field = st.one_of(st.none(), st.sampled_from(lists), st.sampled_from(lists).map(list))
    for _ in range(data.draw(st.integers(1, 10))):
        if data.draw(st.booleans()):
            target = data.draw(st.sampled_from(lists))
            change = data.draw(st.sampled_from(["append", "replace", "pop"]))
            if change == "append" or not target:
                target.append(data.draw(VALUES))
            elif change == "replace":
                target[data.draw(st.integers(0, len(target) - 1))] = data.draw(VALUES)
            else:
                target.pop()
            continue
        record = CorpusRecord(
            id=data.draw(st.one_of(st.none(), SENTENCES)),
            article=data.draw(field),
            summary=data.draw(field),
            noisy=data.draw(st.one_of(st.none(), st.lists(VALUES, max_size=3))),
            provenance=data.draw(st.one_of(st.none(), st.dictionaries(SENTENCES, VALUES, max_size=2))),
        )
        assert record_to_line(record) == record_line(record)


def test_record_to_line_tells_equal_values_of_other_types_apart():
    for article in (["1"], [1], [True], [1.0], ["1"]):
        record = CorpusRecord(id="x", article=article, summary=["s"])
        assert record_to_line(record) == record_line(record)
