"""Properties of the subcommands over generated corpora, run in-process through ``cli_main``."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from itertools import permutations, zip_longest
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sumnoise.cli import cli_main
from sumnoise.corpus import read_corpus
from sumnoise.text import _EDGE_CHARS, unigram_overlap

NBSP = "\u00a0"
ZWSP = "\u200b"  # not whitespace to str.split, so it stays inside a token
BASE_IDS = ["r1", "r2", "r3"]

# Letters, the characters tokenize strips from word edges, spaces, NBSPs,
# line breaks and zero-width spaces; the word between two runs of them makes
# sure of one token. Besides "a", a word may be the external protocol's
# sentence separator or an abbreviation that does not end a sentence.
chars = st.text("aB \r\n" + NBSP + ZWSP + _EDGE_CHARS, max_size=6)
worded = st.tuples(chars, st.sampled_from(["a", "a", "<S>", "Mr. B"]), chars).map("".join)
# One sentence in twenty has no token, which fails its record when it is read.
sentences = st.integers(0, 19).flatmap(lambda n: st.text(_EDGE_CHARS, min_size=1, max_size=2) if n == 0 else worded)
# A field is a list of sentences or running text, which is split on read.
fields = st.lists(sentences, min_size=1, max_size=3) | st.lists(sentences, min_size=1, max_size=3).map(" ".join)
variant_ids = st.tuples(st.sampled_from(BASE_IDS), st.sampled_from(["", ".v0", ".v1", ".v12"])).map("".join)
provenances = st.dictionaries(st.sampled_from(["seed", "noise_type", "denoise"]), st.integers(0, 9), max_size=2)


def records(ids, **optional):
    return st.fixed_dictionaries(
        {"id": ids, "article": fields, "summary": fields}, optional={"noisy": fields, **optional}
    )


def corpora(**optional):
    return st.lists(records(variant_ids, **optional), max_size=5, unique_by=lambda record: record["id"])


@st.composite
def sourced_corpora(draw):
    """Corpora whose records may name, as ``noise`` writes it, the base record they came from.

    A source id may also be one that is not a string, which counts as absent.
    """
    corpus = draw(corpora())
    for record in corpus:
        base_id = record["id"].partition(".")[0]
        if draw(st.integers(0, 9)):
            record["provenance"] = {"source_id": draw(st.sampled_from([*[base_id] * 7, 5, None, ["r1"]]))}
    return corpus


def write_jsonl(path, corpus):
    path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n" for record in corpus), encoding="utf-8")


def run(*argv):
    argv = [str(arg) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    # A traceback would have propagated out of cli_main and failed the example.
    assert code in (0, 1, 2)
    if code:
        *skips, error = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert error.startswith("sumnoise: error: ")
        # Only noise reports, before the error, the records it skipped.
        assert all(argv[0] == "noise" and line.startswith("sumnoise: skipped record ") for line in skips)
        assert "-o" not in argv or not Path(argv[argv.index("-o") + 1]).exists()
    return code, out.getvalue()


def tokens(doc):
    return [sentence.tokens for sentence in doc.sentences]


def assert_rows_equal_but_for_system(table):
    header, before, after = table.splitlines()
    assert header.startswith("system\t")
    assert before.split("\t")[0] == "before" and after.split("\t")[0] == "after"
    assert before.split("\t")[1:] == after.split("\t")[1:]


@settings(derandomize=True, max_examples=75, deadline=None)
@given(
    sourced_corpora(),
    st.lists(records(st.sampled_from(BASE_IDS)), min_size=2, max_size=3, unique_by=lambda record: record["id"]),
)
def test_eval_and_analyze_of_a_corpus_against_itself(corpus, base_references):
    with tempfile.TemporaryDirectory() as directory:
        check_corpus_against_itself(Path(directory), corpus, base_references)


def check_corpus_against_itself(directory, corpus, base_references):
    corpus_path, references_path, report_path = (directory / name for name in ("x.jsonl", "refs.jsonl", "report.json"))
    write_jsonl(corpus_path, corpus)
    write_jsonl(references_path, base_references)

    code, table = run("eval", "-b", corpus_path, "-a", corpus_path)
    if code == 0:
        assert_rows_equal_but_for_system(table)

    # -r X holds every record's own id. The base references hold the base
    # ids, and may lack a record's source id and its own id, which fails the run.
    for references in (corpus_path, references_path):
        code, table = run("eval", "-b", corpus_path, "-a", corpus_path, "-r", references, "-o", report_path)
        if code == 0:
            assert_rows_equal_but_for_system(table)
            before, after = json.loads(report_path.read_text(encoding="utf-8"))["systems"]
            assert {**before, "system": "after"} == after
            report_path.unlink()
        assert not report_path.exists()

    code, lines = run("analyze", "-b", corpus_path, "-a", corpus_path)
    if code == 0:
        assert f"no_change\t{len(corpus)}\t1.0000" in lines.splitlines()


@settings(derandomize=True, max_examples=50, deadline=None)
@given(corpora(), st.sampled_from(["0", "0.5", "0.8", "1"]))
def test_overlap_denoise_of_its_own_output_changes_no_noisy_field(corpus, threshold):
    with tempfile.TemporaryDirectory() as directory:
        corpus_path, once, twice = (Path(directory) / name for name in ("x.jsonl", "once.jsonl", "twice.jsonl"))
        write_jsonl(corpus_path, corpus)
        code, _ = run("denoise", "-i", corpus_path, "-o", once, "--threshold", threshold)
        if code == 0:
            assert run("denoise", "-i", once, "-o", twice, "--threshold", threshold)[0] == 0
            assert [record.noisy for record in read_corpus(twice)] == [record.noisy for record in read_corpus(once)]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(corpora(), st.sampled_from(["repeat", "replace", "extra", "mixture"]))
def test_noise_that_corrupts_no_sentence_writes_each_summary_as_it_is(corpus, noise_type):
    with tempfile.TemporaryDirectory() as directory:
        corpus_path, noised = Path(directory) / "x.jsonl", Path(directory) / "noised.jsonl"
        write_jsonl(corpus_path, corpus)
        code, _ = run("noise", "-i", corpus_path, "-o", noised, "--type", noise_type, "--dist", "1")
        if code == 0:
            for record in read_corpus(noised):
                assert record.noisy == record.summary
                assert record.provenance["noised_indices"] == []


# Each example starts a process.
@settings(derandomize=True, max_examples=25, deadline=None)
@given(corpora(provenance=provenances))
def test_external_cat_denoise_adds_only_its_provenance_and_keeps_the_tokens(corpus):
    with tempfile.TemporaryDirectory() as directory:
        corpus_path, denoised = Path(directory) / "x.jsonl", Path(directory) / "denoised.jsonl"
        write_jsonl(corpus_path, corpus)
        code, _ = run("denoise", "-i", corpus_path, "-o", denoised, "--method", "external", "--command", "cat")
        if code == 0:
            for before, after in zip_longest(read_corpus(corpus_path), read_corpus(denoised)):
                assert after[:3] == before[:3]  # id, article and summary
                assert after.provenance == {**(before.provenance or {}), "denoise": {"method": "external"}}
                assert tokens(after.working_doc()) == tokens(before.working_doc())


@settings(derandomize=True, max_examples=50, deadline=None)
@given(corpora(), st.sampled_from(["0,1", "0,0,1"]), st.sampled_from(["0", "0.5", "0.8", "0.99"]))
def test_overlap_denoise_removes_exactly_the_repeated_sentences(corpus, dist, threshold):
    # Repeat noise appends copies of summary sentences, each overlapping its
    # original by 1.0; denoising deletes them and, when no two clean sentences
    # overlap by more than the threshold either way, nothing else.
    with tempfile.TemporaryDirectory() as directory:
        corpus_path, noised, denoised = (Path(directory) / name for name in ("x.jsonl", "noised.jsonl", "dn.jsonl"))
        write_jsonl(corpus_path, corpus)
        code, _ = run("noise", "-i", corpus_path, "-o", noised, "--type", "repeat", "--dist", dist)
        if code == 0:
            assert run("denoise", "-i", noised, "-o", denoised, "--threshold", threshold)[0] == 0
            for record in read_corpus(denoised):
                clean = record.summary_doc().sentences
                if all(unigram_overlap(a, b) <= float(threshold) for a, b in permutations(clean, 2)):
                    assert record.noisy == record.summary
