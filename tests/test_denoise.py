from __future__ import annotations

import contextlib
import random
import subprocess
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumnoise.corpus import CorpusRecord
from sumnoise.denoise import SENTENCE_SEPARATOR, external_denoise, overlap_denoise
from sumnoise.errors import EmptySentenceError, InvalidThresholdError, ProtocolViolationError, SumnoiseError
from sumnoise.metrics import repeat_rate, repetition_count
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    Alignment,
    NoiseDistribution,
    NoiseType,
    apply_repeat,
    derive_seed,
    make_noisy_record,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import SENTENCE_CACHE_SIZE, cached_tokenize, make_document

PASSTHROUGH = [sys.executable, "-c", "import sys\nfor line in sys.stdin: sys.stdout.write(line)"]

DROP_LAST_LINE = [
    sys.executable,
    "-c",
    "import sys\nlines = sys.stdin.readlines()\nsys.stdout.write(''.join(lines[:-1]))",
]

DROP_LAST_SENTENCE = [
    sys.executable,
    "-c",
    (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    parts = [p.strip() for p in line.rstrip('\\n').split('<S>')]\n"
        "    kept = parts[:-1] if len(parts) > 1 else parts\n"
        "    sys.stdout.write(' <S> '.join(kept) + '\\n')"
    ),
]

EXTRA_LINE = [
    sys.executable,
    "-c",
    "import sys\nsys.stdout.write(sys.stdin.read())\nsys.stdout.write('bonus line\\n')",
]

FAILING = [sys.executable, "-c", "import sys\nsys.stdout.write(sys.stdin.read())\nsys.exit(3)"]


def noised_docs(records: int, seed: int = 12, noise_type: NoiseType = NoiseType.MIXTURE):
    """Every variant of a synth corpus, seeded as ``noise --seed <seed>`` seeds them."""
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    out = []
    for record in synth_corpus(records, seed):
        alignment = Alignment(record.summary_doc(), record.article_doc())
        out += [
            make_noisy_record(alignment, noise_type, dist, derive_seed(seed, record.id, variant))
            for variant in range(DEFAULT_VARIANTS)
        ]
    return out


# --- overlap rule ----------------------------------------------------------


def test_overlap_denoise_deletes_verbatim_duplicate():
    result = overlap_denoise(make_document(["a b c", "a b c", "x y"]))
    assert result.output.raw_sentences() == ["a b c", "x y"]
    assert result.deleted_indices == (1,)


def test_overlap_denoise_below_threshold_is_noop():
    doc = make_document(["a b c", "c d e", "e f g"])
    result = overlap_denoise(doc)
    assert result.output.raw_sentences() == doc.raw_sentences()
    assert result.deleted_indices == ()


def test_overlap_denoise_keeps_pair_at_exactly_threshold():
    # Overlap is 4/5 = 0.8: "more than" means strictly greater, so both stay.
    result = overlap_denoise(make_document(["a b c d e", "a b c d x"]), threshold=0.8)
    assert result.deleted_indices == ()


def test_overlap_denoise_boundary_cases_above_threshold():
    # 5/6 > 0.8: deleted.
    five_of_six = overlap_denoise(make_document(["a b c d e", "a b c d e f", "p q"]))
    assert five_of_six.deleted_indices == (1,)
    # Full containment scores exactly 1.0: deleted.
    contained = overlap_denoise(make_document(["a b c d e", "a b c"]))
    assert contained.deleted_indices == (1,)


def test_overlap_denoise_first_duplicate_survives():
    result = overlap_denoise(make_document(["x y", "x y", "x y"]))
    assert result.output.raw_sentences() == ["x y"]
    assert result.deleted_indices == (1, 2)


def test_overlap_denoise_ignores_deleted_sentences_when_comparing():
    # The second sentence is deleted against the first; the third overlaps the
    # second but not the first, so it must survive.
    doc = make_document(["a b c d e", "a b c d e f", "f g h i j"])
    result = overlap_denoise(doc)
    assert result.deleted_indices == (1,)
    assert result.output.raw_sentences() == ["a b c d e", "f g h i j"]


def test_overlap_denoise_validates_inputs():
    with pytest.raises(InvalidThresholdError):
        overlap_denoise(make_document(["a b"]), threshold=1.2)


def test_overlap_denoise_output_is_subsequence_and_never_empty():
    for record in noised_docs(100):
        result = overlap_denoise(record.noisy)
        assert len(result.output) >= 1
        it = iter(record.noisy.sentences)
        assert all(sent in it for sent in result.output.sentences)


def test_overlap_denoise_is_idempotent():
    for record in noised_docs(150):
        once = overlap_denoise(record.noisy)
        twice = overlap_denoise(once.output)
        assert twice.deleted_indices == ()
        assert twice.output.raw_sentences() == once.output.raw_sentences()


def test_overlap_denoise_never_increases_repetition_count():
    for record in noised_docs(150):
        before = repetition_count(record.noisy)
        after = repetition_count(overlap_denoise(record.noisy).output)
        assert after <= before


def test_overlap_denoise_lowers_repeat_rate_on_noised_summaries():
    for record in noised_docs(150, noise_type=NoiseType.REPEAT):
        before = repeat_rate(record.noisy)
        after = repeat_rate(overlap_denoise(record.noisy).output)
        assert after <= before + 1e-9


def test_repeat_rate_can_rise_when_a_near_duplicate_is_deleted():
    # Deleting a sentence shrinks every complement, so the mean overlap of the
    # survivors can climb even though redundancy went down. The monotonicity
    # guarantee holds for noise-shaped inputs, not for adversarial ones like
    # this: the deleted sentence scores 5/6 while the survivors cover each
    # other completely.
    doc = make_document(["a b c d e", "a b c p q", "d e p q", "a b c d e x"])
    result = overlap_denoise(doc)
    assert result.deleted_indices == (3,)
    assert repeat_rate(result.output) > repeat_rate(doc)


def test_round_trip_repeat_then_denoise_recovers_clean_summary():
    rng = random.Random(77)
    dist = NoiseDistribution((0.15, 0.85))
    for record in synth_corpus(200, seed=7):
        clean = record.summary_doc()
        k = 1 if rng.random() < dist.probs[1] else 0
        noisy, _ = apply_repeat(clean, k, rng)
        result = overlap_denoise(noisy)
        assert result.output.raw_sentences() == clean.raw_sentences()


# --- external adapter -------------------------------------------------------


def summary_record(record_id, sentences):
    """A record whose working summary is ``sentences``; the adapter never reads its article."""
    return CorpusRecord(record_id, ["An article."], sentences)


def records_fixture():
    return [
        summary_record("d1", ["alpha beta gamma", "delta epsilon"]),
        summary_record("d2", ["one two three"]),
        summary_record("d3", ["red green", "blue yellow", "black white"]),
    ]


def test_external_identity_command_round_trips():
    records = records_fixture()
    out = list(external_denoise(records, PASSTHROUGH))
    assert [sentences for _, sentences in out] == [record.summary for record in records]
    assert [record.id for record, _ in out] == ["d1", "d2", "d3"]


def test_external_tokenizes_nothing():
    # The adapter moves text: neither the lines it sends nor those it reads
    # back go through the tokenizer, and what it yields is plain strings.
    cached_tokenize.cache_clear()
    out = list(external_denoise(records_fixture(), ["cat"]))
    assert cached_tokenize.cache_info() == (0, 0, SENTENCE_CACHE_SIZE, 0)
    assert all(type(sentences) is list and all(type(s) is str for s in sentences) for _, sentences in out)


def test_external_dropping_a_line_is_a_protocol_violation():
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(records_fixture(), DROP_LAST_LINE))
    assert "d3" in str(excinfo.value)


def test_external_sentence_deletions_are_accepted():
    out = [sentences for _, sentences in external_denoise(records_fixture(), DROP_LAST_SENTENCE)]
    assert out == [["alpha beta gamma"], ["one two three"], ["red green", "blue yellow"]]


def test_external_rejects_separator_inside_sentence():
    bad = [summary_record("oops", [f"hello {SENTENCE_SEPARATOR} there"])]
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(bad, PASSTHROUGH))
    assert "oops" in str(excinfo.value)


def test_external_reports_a_sentence_without_tokens_before_a_separator():
    # Every sentence is checked for a token first, as working_doc() would
    # build them, so the record fails with working_doc()'s error.
    record = summary_record("both", [f"hello {SENTENCE_SEPARATOR} there", "-- !?"])
    with pytest.raises(EmptySentenceError) as raised:
        list(external_denoise([summary_record("d1", ["alpha"]), record], ["cat"]))
    with pytest.raises(EmptySentenceError) as expected:
        record.working_doc()
    assert str(raised.value) == str(expected.value) == "record 'both': no tokens in sentence: '-- !?'"


def test_external_rejects_a_newline_inside_a_sentence_before_writing_its_line():
    # The newline would split the record's line in two, and every later
    # record would be paired with the wrong output line.
    records = [
        summary_record("d1", ["alpha beta"]),
        summary_record("wrapped", ["The cat sat\non the mat.", "It left."]),
        summary_record("d3", ["gamma"]),
    ]
    out = []
    with pytest.raises(ProtocolViolationError, match="record 'wrapped': sentence contains a newline"):
        for record, sentences in external_denoise(records, ["cat"]):
            out.append((record.id, sentences))
    assert out == [("d1", ["alpha beta"])]


def test_external_rejects_a_lone_surrogate_before_writing_its_line():
    # read_corpus refuses such text, but a record built in code can hold it,
    # and UTF-8 cannot encode it.
    records = [
        summary_record("d1", ["alpha beta"]),
        summary_record("surrogate", ["alpha \ud800 beta"]),
        summary_record("d3", ["gamma"]),
    ]
    out = []
    with pytest.raises(ProtocolViolationError, match="record 'surrogate': .*surrogates"):
        for record, sentences in external_denoise(records, ["cat"]):
            out.append((record.id, sentences))
    assert out == [("d1", ["alpha beta"])]


def test_external_extra_output_line_is_a_protocol_violation():
    with pytest.raises(ProtocolViolationError):
        list(external_denoise(records_fixture(), EXTRA_LINE))


def test_external_nonzero_exit_is_a_protocol_violation():
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(records_fixture(), FAILING))
    assert "status 3" in str(excinfo.value)


def test_external_blank_output_line_is_unparseable():
    blank = [sys.executable, "-c", "import sys\nfor line in sys.stdin: sys.stdout.write('\\n')"]
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(records_fixture(), blank))
    assert "d1" in str(excinfo.value)


def test_external_lines_end_only_at_a_newline():
    # A carriage return inside a sentence is text, not a line break. (A Python
    # filter's text-mode stdin would translate it, so this uses cat.)
    records = [summary_record("cr", ["alpha\rbeta", "gamma"]), summary_record("d", ["delta"])]
    out = list(external_denoise(records, ["cat"]))
    assert [sentences for _, sentences in out] == [["alpha\rbeta", "gamma"], ["delta"]]


def test_external_reads_a_last_line_without_a_newline():
    # The command answers only after reading all input, and its one line has
    # no trailing newline: the end of its output ends the line.
    records = [summary_record("d1", ["alpha beta"])]
    out = list(external_denoise(records, ["sh", "-c", 'cat >/dev/null; printf "x y <S> z"']))
    assert [(record.id, sentences) for record, sentences in out] == [("d1", ["x y", "z"])]


def test_external_starts_no_thread():
    # The adapter writes and reads on the calling thread. (Input larger than
    # the pipe buffers is tested in a child process, where a deadlock times out.)
    records = records_fixture()
    before = threading.active_count()
    counts = [threading.active_count() for _ in external_denoise(records, ["cat"])]
    assert counts == [before] * len(records)


def test_external_strips_whitespace_at_sentence_edges_and_keeps_the_tokens():
    # The pieces between separators are stripped, which drops the spaces
    # around " <S> "; so edge whitespace of a sentence does not survive cat.
    records = [summary_record("ws", ["  one two  ", "\tthree four\u00a0"])]
    ((_, out),) = external_denoise(records, ["cat"])
    assert out == ["one two", "three four"]
    assert make_document(out).all_tokens == records[0].working_doc().all_tokens


def test_external_error_from_the_documents_propagates_unwrapped():
    def records():
        yield from records_fixture()
        raise ValueError("reading the corpus failed")

    with pytest.raises(ValueError, match="reading the corpus failed"):
        list(external_denoise(records(), PASSTHROUGH))


def streamed_record(index, words_per_sentence, noisy):
    """Record ``r<index>`` with one sentence per word count, as its noisy text or as its summary."""
    sentences = [" ".join(f"r{index}s{i}w{j}" for j in range(words)) for i, words in enumerate(words_per_sentence)]
    if noisy:
        return CorpusRecord(f"r{index}", ["An article."], ["Not the working summary."], noisy=sentences)
    return CorpusRecord(f"r{index}", ["An article."], sentences)


# A record takes about 4 KB of the input queue on average. The record count
# is drawn first, so most draws, and both examples, queue more than one block
# (``denoise._BLOCK``, 64 KB) ahead of the command's output.
@settings(derandomize=True, max_examples=25, deadline=None)
@given(
    st.integers(0, 300).flatmap(lambda n: st.lists(
        st.tuples(st.lists(st.integers(1, 400), min_size=1, max_size=3), st.booleans()), min_size=n, max_size=n
    )),
    st.none() | st.integers(min_value=0),
)
@example([([400], True)] * 300, None)
@example([([400], False)] * 300, 250)
def test_external_yields_each_record_it_reads_in_order_with_its_own_document(shapes, failing_at):
    records = [streamed_record(i, words, noisy) for i, (words, noisy) in enumerate(shapes)]
    stream, expected = records, records
    if failing_at is not None:
        # A record with a sentence without tokens: every record before it
        # comes back, then its error is raised.
        failing_at %= len(records) + 1
        bad = CorpusRecord("bad", ["An article."], ["fine words", "-- !?"])
        stream, expected = records[:failing_at] + [bad] + records[failing_at:], records[:failing_at]
    for command in (["cat"], ["sh", "-c", "tac | tac"]):
        out = []
        raises = pytest.raises(EmptySentenceError, match="^record 'bad': no tokens in sentence: '-- !\\?'$")
        with raises if failing_at is not None else contextlib.nullcontext():
            for pair in external_denoise(iter(stream), command):
                out.append(pair)
        assert len(out) == len(expected)
        for (record, sentences), sent in zip(out, expected):
            assert record is sent
            assert sentences == (sent.summary if sent.noisy is None else sent.noisy)


def test_external_failed_write_is_a_protocol_violation():
    # The command exits without reading; the summaries outgrow any pipe buffer,
    # so some write to its stdin must fail. That only ends the input: the
    # error names the first record the command did not answer.
    line = "word " * 1000
    records = (summary_record(f"d{i}", [line]) for i in range(1000))
    with pytest.raises(ProtocolViolationError, match=r"^no output line for record 'd0' \(input line 1\)$"):
        list(external_denoise(records, [sys.executable, "-c", "pass"]))


def test_external_reads_no_more_input_once_the_output_has_ended():
    # The command closes its stdout at once, so no record can be answered;
    # the adapter needs at most one more record to know the error.
    pulled = 0

    def records():
        nonlocal pulled
        for i in range(200_000):
            pulled += 1
            yield summary_record(f"d{i}", ["alpha beta"])

    with pytest.raises(ProtocolViolationError, match=r"^no output line for record 'd0' \(input line 1\)$"):
        list(external_denoise(records(), ["sh", "-c", "exec >&-; cat >/dev/null"]))
    assert pulled < 20_000


def test_external_raises_a_held_error_after_the_last_line_without_a_newline():
    # The error is held until the output ends, and the end of output both
    # ends the last line and lets the held error be raised.
    def records():
        yield from records_fixture()[:2]
        raise ValueError("boom")

    out = []
    with pytest.raises(ValueError, match="^boom$"):
        for record, sentences in external_denoise(records(), ["sh", "-c", 'cat >/dev/null; printf "x\\ny z"']):
            out.append((record.id, sentences))
    assert out == [("d1", ["x"]), ("d2", ["y z"])]


@pytest.mark.parametrize(
    "command",
    [
        pytest.param("", id="empty-string"),
        pytest.param("   ", id="blank-string"),
        pytest.param([], id="empty-argv"),
        pytest.param("'x", id="unclosed-quote"),
        pytest.param("cat", id="string"),
    ],
)
def test_external_command_without_an_argv_raises_before_any_process_starts(monkeypatch, command):
    # An empty argv must not reach Popen, which fails on it with a bare
    # IndexError; a string is a sequence of characters, so "cat" would run c.
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    with pytest.raises(SumnoiseError, match="command"):
        list(external_denoise(records_fixture(), command))
