from __future__ import annotations

import random
import subprocess
import sys

import pytest

from sumnoise.denoise import SENTENCE_SEPARATOR, external_denoise, overlap_denoise
from sumnoise.errors import InvalidThresholdError, ProtocolViolationError, SumnoiseError
from sumnoise.metrics import repeat_rate, repetition_count
from sumnoise.noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    NoiseDistribution,
    NoiseType,
    apply_repeat,
    make_noisy_record,
)
from sumnoise.synth import synth_corpus
from sumnoise.text import make_document

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
    dist = NoiseDistribution(DEFAULT_NOISE_PROBS)
    pairs = [(r.article_doc(), r.summary_doc()) for r in synth_corpus(records, seed)]
    return [
        make_noisy_record(article, clean, noise_type, dist, seed, variant)
        for article, clean in pairs
        for variant in range(DEFAULT_VARIANTS)
    ]


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


def docs_fixture():
    return [
        make_document(["alpha beta gamma", "delta epsilon"], source_id="d1"),
        make_document(["one two three"], source_id="d2"),
        make_document(["red green", "blue yellow", "black white"], source_id="d3"),
    ]


def test_external_identity_command_round_trips():
    docs = docs_fixture()
    out = list(external_denoise(docs, PASSTHROUGH))
    assert [d.raw_sentences() for d in out] == [d.raw_sentences() for d in docs]
    assert [d.source_id for d in out] == ["d1", "d2", "d3"]


def test_external_accepts_shell_style_command_string():
    docs = docs_fixture()
    command = f"{sys.executable} -c 'import sys; sys.stdout.write(sys.stdin.read())'"
    out = list(external_denoise(docs, command))
    assert len(out) == 3


def test_external_dropping_a_line_is_a_protocol_violation():
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(docs_fixture(), DROP_LAST_LINE))
    assert "d3" in str(excinfo.value)


def test_external_sentence_deletions_are_accepted():
    docs = docs_fixture()
    out = list(external_denoise(docs, DROP_LAST_SENTENCE))
    assert [len(d) for d in out] == [1, 1, 2]
    assert out[0].raw_sentences() == ["alpha beta gamma"]
    assert out[2].raw_sentences() == ["red green", "blue yellow"]


def test_external_rejects_separator_inside_sentence():
    bad = [make_document([f"hello {SENTENCE_SEPARATOR} there"], source_id="oops")]
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(bad, PASSTHROUGH))
    assert "oops" in str(excinfo.value)


def test_external_extra_output_line_is_a_protocol_violation():
    with pytest.raises(ProtocolViolationError):
        list(external_denoise(docs_fixture(), EXTRA_LINE))


def test_external_nonzero_exit_is_a_protocol_violation():
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(docs_fixture(), FAILING))
    assert "status 3" in str(excinfo.value)


def test_external_blank_output_line_is_unparseable():
    blank = [sys.executable, "-c", "import sys\nfor line in sys.stdin: sys.stdout.write('\\n')"]
    with pytest.raises(ProtocolViolationError) as excinfo:
        list(external_denoise(docs_fixture(), blank))
    assert "d1" in str(excinfo.value)


def test_external_lines_end_only_at_a_newline():
    # A carriage return inside a sentence is text, not a line break. (A Python
    # filter's text-mode stdin would translate it, so this uses cat.)
    docs = [make_document(["alpha\rbeta", "gamma"], source_id="cr"), make_document(["delta"], source_id="d")]
    out = list(external_denoise(docs, ["cat"]))
    assert [d.raw_sentences() for d in out] == [["alpha\rbeta", "gamma"], ["delta"]]


def test_external_error_from_the_documents_propagates_unwrapped():
    def docs():
        yield from docs_fixture()
        raise ValueError("reading the corpus failed")

    with pytest.raises(ValueError, match="reading the corpus failed"):
        list(external_denoise(docs(), PASSTHROUGH))


def test_external_failed_write_is_a_protocol_violation():
    # The command exits without reading; the documents outgrow any pipe buffer,
    # so some write to its stdin must fail.
    line = "word " * 1000
    docs = (make_document([line], source_id=f"d{i}") for i in range(1000))
    with pytest.raises(ProtocolViolationError, match="failed writing to external command"):
        list(external_denoise(docs, [sys.executable, "-c", "pass"]))


@pytest.mark.parametrize(
    "command",
    [
        pytest.param("", id="empty-string"),
        pytest.param("   ", id="blank-string"),
        pytest.param([], id="empty-argv"),
        pytest.param("'x", id="unclosed-quote"),
    ],
)
def test_external_command_without_an_argv_raises_before_any_process_starts(monkeypatch, command):
    # An empty argv must not reach Popen, which fails on it with a bare IndexError.
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(subprocess, "Popen", no_process)
    with pytest.raises(SumnoiseError, match="command"):
        list(external_denoise(docs_fixture(), command))
