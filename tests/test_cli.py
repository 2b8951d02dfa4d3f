from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import re
import shlex
import signal
import stat
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from corpus_files import write_records
from sumnoise import noising, synth
from sumnoise.analysis import aligned_pairs, eval_report
from sumnoise.cli import cli_main
from sumnoise.corpus import CorpusRecord, read_corpus, record_to_line

PASSTHROUGH_CMD = f"{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\""
SRC = Path(__file__).resolve().parent.parent / "src"


def tiny_corpus(tmp_path):
    path = tmp_path / "tiny.jsonl"
    write_records(
        [
            CorpusRecord(
                id="t1",
                article=["alpha beta gamma delta", "omega psi chi"],
                summary=["alpha beta", "omega psi"],
            ),
            CorpusRecord(
                id="t2",
                article=["one two three four"],
                summary=["one two", "one two"],
            ),
        ],
        path,
    )
    return path


def test_noise_denoise_eval_pipeline_on_fixture(tmp_path, fixture_corpus, capsys):
    noised = tmp_path / "noised.jsonl"
    denoised = tmp_path / "denoised.jsonl"
    report = tmp_path / "report.json"

    assert cli_main([
        "noise", "-i", str(fixture_corpus), "-o", str(noised),
        "--type", "repeat", "--seed", "7",
    ]) == 0
    assert cli_main([
        "denoise", "-i", str(noised), "-o", str(denoised),
        "--method", "overlap", "--threshold", "0.8",
    ]) == 0
    assert cli_main([
        "eval", "-b", str(noised), "-a", str(denoised),
        "-r", str(fixture_corpus), "-o", str(report),
    ]) == 0

    payload = json.loads(report.read_text(encoding="utf-8"))
    before, after = payload["systems"]
    assert before["records"] == after["records"] == 150
    # Clean pairwise overlaps stay low, so denoising recovers every summary.
    assert after["rouge1"] == pytest.approx(100.0)
    assert after["repeat_rate"] < before["repeat_rate"]
    assert after["repetitions_total"] == 0
    capsys.readouterr()


def test_denoise_recovers_clean_corpus_after_repeat_noise(tmp_path, fixture_corpus):
    noised = tmp_path / "noised.jsonl"
    denoised = tmp_path / "denoised.jsonl"
    cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "repeat", "--seed", "3"])
    cli_main(["denoise", "-i", str(noised), "-o", str(denoised), "--method", "overlap"])
    clean = {record.id: record.summary for record in read_corpus(fixture_corpus)}
    for record in read_corpus(denoised):
        assert record.noisy == clean[record.provenance["source_id"]]


def test_noise_is_deterministic_per_seed(tmp_path, fixture_corpus):
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    for path in (first, second):
        assert cli_main([
            "noise", "-i", str(fixture_corpus), "-o", str(path),
            "--type", "mixture", "--seed", "11",
        ]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_noise_shards_concatenate_to_the_whole_run(tmp_path, fixture_corpus):
    # Each record's seed depends only on the run seed, its id and the variant,
    # so noising input shards reproduces the unsharded output.
    lines = fixture_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    base = ["noise", "--type", "mixture", "--paraphraser", "drop-token", "--seed", "21"]
    whole = tmp_path / "whole.noised"
    assert cli_main(base + ["-i", str(fixture_corpus), "-o", str(whole)]) == 0
    shards = []
    for name, part in (("first", lines[:20]), ("second", lines[20:])):
        shard, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.noised"
        shard.write_text("".join(part), encoding="utf-8")
        assert cli_main(base + ["-i", str(shard), "-o", str(out)]) == 0
        shards.append(out.read_bytes())
    assert b"".join(shards) == whole.read_bytes()


def test_noise_rejects_zero_variants(tmp_path, fixture_corpus, capsys):
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(out), "--variants", "0"]) == 2
    assert "argument --variants: must be at least 1, got '0'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("records", ["0", "-5"])
def test_synth_refuses_fewer_than_one_record(tmp_path, capsys, records):
    out = tmp_path / "x.jsonl"
    with pytest.raises(SystemExit) as exit_request:
        synth.main(["--records", records, "-o", str(out)])
    assert exit_request.value.code == 2
    assert f"argument --records: must be at least 1, got '{records}'" in capsys.readouterr().err
    assert not out.exists()


def test_interrupted_synth_leaves_the_previous_file_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "corpus.jsonl"
    out.write_bytes(b"previous\n")
    complete = synth.synth_corpus

    def interrupted(records, seed):
        for index, record in enumerate(complete(records, seed)):
            if index == 29:
                raise KeyboardInterrupt
            yield record

    monkeypatch.setattr(synth, "synth_corpus", interrupted)
    with pytest.raises(KeyboardInterrupt):
        synth.main(["--records", "50", "-o", str(out)])
    assert out.read_bytes() == b"previous\n"
    assert os.listdir(tmp_path) == ["corpus.jsonl"]


def test_synth_into_a_missing_directory_prints_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "corpus.jsonl"
    assert synth.main(["--records", "5", "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"sumnoise: error: [Errno 2] No such file or directory: {str(out)!r}\n")
    assert os.listdir(tmp_path) == []


def test_synth_ended_by_sigterm_removes_its_temporary_file(tmp_path):
    out = tmp_path / "corpus.jsonl"
    run = subprocess.Popen(
        [sys.executable, "-m", "sumnoise.synth", "--records", "100000", "-o", str(out)],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        deadline = time.monotonic() + 30
        while not list(tmp_path.glob(".corpus.jsonl.*.tmp")):
            assert run.poll() is None and time.monotonic() < deadline, "the run never opened its output"
            time.sleep(0.01)
        run.send_signal(signal.SIGTERM)
        stdout, stderr = run.communicate(timeout=30)
    finally:
        if run.poll() is None:
            run.kill()
            run.communicate()
    assert (run.returncode, stdout, stderr) == (143, "", "sumnoise: error: interrupted by SIGTERM\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("dist", ["nan", "0.5,nan,0.5"])
def test_noise_rejects_a_nan_distribution(tmp_path, fixture_corpus, capsys, dist):
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(out), "--dist", dist]) == 2
    assert "argument --dist: probabilities must be in [0, 1]" in capsys.readouterr().err
    assert not out.exists()


def test_replace_noise_breaks_an_exact_tie_to_the_earliest_article_sentence(tmp_path, capsys):
    # Both article sentences score exactly 1/3 against the summary: 2*1/(2+4)
    # and 2*2/(2+10). The harmonic mean of the two overlaps rounded these to
    # different floats and picked the second.
    corpus = tmp_path / "tie.jsonl"
    article = ["t0 x0 x1 x2", "t0 t1 y0 y1 y2 y3 y4 y5 y6 y7"]
    write_records([CorpusRecord(id="tie", article=article, summary=["t0 t1"])], corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main([
        "noise", "-i", str(corpus), "-o", str(out), "--type", "replace", "--dist", "0,1", "--variants", "1",
    ]) == 0
    assert [record.noisy for record in read_corpus(out)] == [[article[0]]]
    capsys.readouterr()


def test_analyze_matches_a_pair_at_exactly_tau_match(tmp_path, capsys):
    # 11 and 13 token types sharing 6: similarity 2*6/(11+13) is exactly 0.5,
    # the default --tau-match, so the pair matches and counts as modified.
    shared = [f"s{i}" for i in range(6)]
    before_sentence = " ".join(shared + [f"b{i}" for i in range(7)])
    after_sentence = " ".join(shared + [f"a{i}" for i in range(5)])
    before, after = tmp_path / "before.jsonl", tmp_path / "after.jsonl"
    write_records([CorpusRecord(id="m", article=["x"], summary=[before_sentence])], before)
    write_records([CorpusRecord(id="m", article=["x"], summary=[after_sentence])], after)
    assert cli_main(["analyze", "-b", str(before), "-a", str(after)]) == 0
    assert "modified\t1\t1.0000" in capsys.readouterr().out.splitlines()


def test_noise_emits_three_variants_with_provenance(tmp_path):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(corpus), "-o", str(out), "--type", "repeat"]) == 0
    records = list(read_corpus(out))
    assert [record.id for record in records] == [
        "t1.v0", "t1.v1", "t1.v2", "t2.v0", "t2.v1", "t2.v2",
    ]
    for record in records:
        assert record.provenance["noise_type"] == "repeat"
        assert record.provenance["source_id"] in ("t1", "t2")
        assert isinstance(record.provenance["seed"], int)


# sha256 of `noise` output on data/fixture_corpus.jsonl (default seed 0).
NOISE_DIGESTS = {
    "repeat": (["--type", "repeat"], "2a9a2ab96e7de5eb79613edbbb5b990f30aa3ec08783936431c14d4bd457916e"),
    "replace": (["--type", "replace"], "28705992404d840182d6b52543386e8c491328c66d5267a6d23a02822b3ea812"),
    "extra": (["--type", "extra"], "41ed60c84b9366308f6b0eb3d7fce8097b88c0f3cc93a6b979991d935f29379a"),
    "mixture": (["--type", "mixture"], "5bdfa42eb667e441209fad6c149e0c71a448667d1e1a9e41b86ee45c1a572af5"),
    "extra-drop-token": (
        ["--type", "extra", "--paraphraser", "drop-token"],
        "78b637fdaa48634e0e74663a04e872aabd1dc90ab2a0b8dcab6d495d87e0ef06",
    ),
    "mixture-dist-variants": (
        ["--type", "mixture", "--dist", "0.1,0.6,0.3", "--variants", "2"],
        "40b266164544c46977462dc22c9f020a9eaf691bddb34ab204d958915256225b",
    ),
}


@pytest.mark.parametrize("case", sorted(NOISE_DIGESTS))
def test_noise_output_matches_recorded_digest(tmp_path, fixture_corpus, capsys, case):
    flags, digest = NOISE_DIGESTS[case]
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(out), *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


# sha256 of the other subcommands' outputs on data/fixture_corpus.jsonl after
# `noise --type mixture` (default seed 0) and overlap `denoise`: the -o file
# where one is written, else standard output.
PIPELINE_DIGESTS = {
    "denoise-overlap": (
        ["denoise", "-i", "{noised}", "-o", "{out}"],
        "cdf52489a50e7c8651538aee45509cdc28ba320002d74bff48d867b2659d774b",
    ),
    "denoise-external-cat": (
        ["denoise", "-i", "{noised}", "-o", "{out}", "--method", "external", "--command", "cat"],
        "4dbcf5ee0be60122307ac6709fca3131ebd08dd66a58ecece4b0889c37b29376",
    ),
    "eval-references-tsv": (
        ["eval", "-b", "{noised}", "-a", "{denoised}", "-r", "{clean}"],
        "8bac3b1d333eb0f9f643b6d5b3930639ce3e085e79d8032d316ae9ff84a90765",
    ),
    "eval-references-json": (
        ["eval", "-b", "{noised}", "-a", "{denoised}", "-r", "{clean}", "-o", "{out}"],
        "8cf8d1fcbd881d4d53fc4f5e7d91f3ad7f0f7ec964db3cd9a178a6bee4b689ca",
    ),
    "analyze": (
        ["analyze", "-b", "{noised}", "-a", "{denoised}"],
        "b5683b1eee016052eca55943a6a3de4d927f3dd6043041043344d8baf599d322",
    ),
    "stats": (
        ["stats", "-i", "{noised}"],
        "63c3157bd2d7dad22771959802caaa7f79501f7639959000cb220d29799c58ca",
    ),
}


@pytest.mark.parametrize("case", sorted(PIPELINE_DIGESTS))
def test_pipeline_output_matches_recorded_digest(tmp_path, fixture_corpus, capsys, case):
    noised = tmp_path / "noised.jsonl"
    denoised = tmp_path / "denoised.jsonl"
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "mixture"]) == 0
    assert cli_main(["denoise", "-i", str(noised), "-o", str(denoised)]) == 0
    capsys.readouterr()
    template, digest = PIPELINE_DIGESTS[case]
    out = tmp_path / "out"
    argv = [arg.format(noised=noised, denoised=denoised, clean=fixture_corpus, out=out) for arg in template]
    assert cli_main(argv) == 0
    stdout = capsys.readouterr().out
    output = out.read_bytes() if "-o" in argv else stdout.encode("utf-8")
    assert hashlib.sha256(output).hexdigest() == digest


@pytest.mark.parametrize("noise_type", ["repeat", "replace", "extra", "mixture"])
def test_record_with_an_untokenizable_article_sentence_is_skipped(tmp_path, capsys, noise_type):
    # Repeat never reads the article, yet skips such a record like the other types.
    corpus = tmp_path / "corpus.jsonl"
    write_records([
        CorpusRecord(
            id="ok",
            article=["alpha beta gamma", "delta epsilon", "zeta eta theta"],
            summary=["alpha beta", "delta epsilon"],
        ),
        CorpusRecord(id="bad", article=["alpha beta", "-- !?", "...", "gamma"], summary=["alpha beta"]),
    ], corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(corpus), "-o", str(out), "--type", noise_type]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "sumnoise: skipped record 'bad': no tokens in sentence: '-- !?'",
        "sumnoise: wrote 3 records, skipped 3",  # all 3 variants of 'bad'
    ]
    assert [record.id for record in read_corpus(out)] == ["ok.v0", "ok.v1", "ok.v2"]


# Every run but noise fails on a sentence without tokens, naming its record.
# The bad record's summary is the one -r reads, its noisy text the one the
# others read.
UNTOKENIZABLE_RUNS = {
    "denoise": (["denoise", "-i", "{bad}", "-o", "{out}"], "?!"),
    "denoise-external": (["denoise", "-i", "{bad}", "-o", "{out}", "--method", "external", "--command", "cat"], "?!"),
    "eval-before": (["eval", "-b", "{bad}", "-a", "{good}", "-o", "{out}"], "?!"),
    "eval-after": (["eval", "-b", "{good}", "-a", "{bad}", "-o", "{out}"], "?!"),
    "eval-references": (["eval", "-b", "{good}", "-a", "{good}", "-r", "{bad}", "-o", "{out}"], "..."),
    "analyze": (["analyze", "-b", "{good}", "-a", "{bad}", "-o", "{out}"], "?!"),
    "stats": (["stats", "-i", "{bad}", "-o", "{out}"], "?!"),
}


@pytest.mark.parametrize("case", sorted(UNTOKENIZABLE_RUNS))
def test_sentence_without_tokens_fails_the_run_naming_the_record(tmp_path, capsys, case):
    template, sentence = UNTOKENIZABLE_RUNS[case]
    good, bad, out = tmp_path / "good.jsonl", tmp_path / "bad.jsonl", tmp_path / "out"
    ok = CorpusRecord(id="ok", article=["alpha beta"], summary=["alpha beta"])
    write_records([ok, CorpusRecord(id="a1", article=["gamma delta"], summary=["gamma delta"])], good)
    write_records([
        ok,
        CorpusRecord(id="a1", article=["gamma delta"], summary=["gamma delta", "..."], noisy=["gamma delta", "?!"]),
    ], bad)
    argv = [arg.format(good=good, bad=bad, out=out) for arg in template]
    assert cli_main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"sumnoise: error: record 'a1': no tokens in sentence: {sentence!r}\n"
    assert not out.exists()


VARIANT_SKIPS = {
    # One noisy sentence, but the article's one sentence is the summary's match.
    "extra": (
        ["--type", "extra", "--dist", "0,1"], ["a b c d"], "need 1 unmatched article sentences, only 0 available"
    ),
    # Two noisy sentences in a one-sentence summary.
    "replace": (
        ["--type", "replace", "--dist", "0,0,1"], ["a b c d", "x y z w"], "cannot replace 2 of 1 summary sentences"
    ),
    # Each article sentence has the summary sentence's token types, so any
    # replacement would leave the text as it was.
    "replace-no-new-sentence": (
        ["--type", "replace", "--dist", "0,1"],
        ["a b c", "C, b, a!"],
        "every article sentence has the token types of a summary sentence",
    ),
}


@pytest.mark.parametrize("case", sorted(VARIANT_SKIPS))
def test_variant_that_cannot_be_noised_is_skipped(tmp_path, capsys, case):
    flags, article, message = VARIANT_SKIPS[case]
    corpus = tmp_path / "corpus.jsonl"
    write_records([
        CorpusRecord(
            id="ok",
            article=["alpha beta gamma", "delta epsilon", "zeta eta theta"],
            summary=["alpha beta", "delta epsilon"],
        ),
        CorpusRecord(id="short", article=article, summary=["a b c"]),
    ], corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(corpus), "-o", str(out), *flags]) == 0
    assert capsys.readouterr().err.splitlines() == [
        *(f"sumnoise: skipped record 'short' variant {variant}: {message}" for variant in range(3)),
        "sumnoise: wrote 3 records, skipped 3",  # N + M = 2 records read x 3 variants
    ]
    assert [record.id for record in read_corpus(out)] == ["ok.v0", "ok.v1", "ok.v2"]


@pytest.mark.parametrize("skipped", [0, 1], ids=["empty-input", "every-record-skipped"])
def test_noise_that_writes_no_record_fails_and_leaves_no_output(tmp_path, capsys, skipped):
    corpus = tmp_path / "corpus.jsonl"
    bad = CorpusRecord(id="bad", article=["alpha beta", "?!"], summary=["alpha beta"])
    write_records([bad] * skipped, corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(corpus), "-o", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        *["sumnoise: skipped record 'bad': no tokens in sentence: '?!'"] * skipped,
        f"sumnoise: error: no records written from {corpus}, skipped {3 * skipped}",  # 3 variants a record
    ]
    assert not out.exists()


def test_stats_of_an_empty_corpus_fails_and_leaves_no_output(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n \n", encoding="utf-8")
    out = tmp_path / "stats.json"
    assert cli_main(["stats", "-i", str(corpus), "-o", str(out)]) == 1
    assert capsys.readouterr() == ("", f"sumnoise: error: no records in {corpus}\n")
    assert not out.exists()


@pytest.mark.parametrize("method", [["--method", "overlap"], ["--method", "external", "--command", "cat"]])
def test_denoise_of_an_empty_corpus_fails_and_leaves_no_output(tmp_path, capsys, method):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n \n", encoding="utf-8")
    out = tmp_path / "denoised.jsonl"
    assert cli_main(["denoise", "-i", str(corpus), "-o", str(out), *method]) == 1
    assert capsys.readouterr().err == f"sumnoise: error: no records in {corpus}\n"
    assert not out.exists()


def test_replace_noise_changes_a_summary_copied_from_its_article(tmp_path, capsys):
    # A Lead-2 summary: each summary sentence is its own closest article
    # sentence, so the one sentence the summary lacks replaces it.
    article = ["The council met on Monday.", "It approved the new budget.", "Rain is expected."]
    corpus = tmp_path / "lead.jsonl"
    write_records([CorpusRecord(id="lead", article=article, summary=article[:2])], corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main([
        "noise", "-i", str(corpus), "-o", str(out), "--type", "replace", "--dist", "0,1", "--variants", "2",
        "--seed", "0",
    ]) == 0
    assert capsys.readouterr().err == "sumnoise: wrote 2 records, skipped 0\n"
    records = list(read_corpus(out))
    assert [(record.noisy, record.provenance["noised_indices"]) for record in records] == [
        (["The council met on Monday.", "Rain is expected."], [1]),
        (["Rain is expected.", "It approved the new budget."], [0]),
    ]


@pytest.mark.parametrize("noise_type, dist", [("replace", "0,0,1"), ("extra", "0,1")])
def test_noise_aligns_each_summary_sentence_once_per_record(
    tmp_path, monkeypatch, capsys, noise_type, dist
):
    calls = []
    similarity = noising.sentence_similarity

    def counting_similarity(a, b):
        calls.append((a, b))
        return similarity(a, b)

    monkeypatch.setattr(noising, "sentence_similarity", counting_similarity)
    article = ["alpha beta gamma", "delta epsilon", "zeta eta", "theta iota", "kappa lambda mu"]
    summary = ["alpha beta", "zeta eta", "kappa mu"]
    corpus = tmp_path / "one.jsonl"
    write_records([CorpusRecord(id="r", article=article, summary=summary)], corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main([
        "noise", "-i", str(corpus), "-o", str(out),
        "--type", noise_type, "--dist", dist, "--variants", "3",
    ]) == 0
    assert "wrote 3 records, skipped 0" in capsys.readouterr().err
    # One scan of the article per summary sentence. "zeta eta" is also an
    # article sentence, so replace rescans, once per record, the four
    # article sentences that hold no summary sentence's token types.
    rescans = 4 if noise_type == "replace" else 0
    assert 0 < len(calls) <= len(summary) * len(article) + rescans


def test_denoise_external_passthrough(tmp_path):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    assert cli_main([
        "denoise", "-i", str(corpus), "-o", str(out),
        "--method", "external", "--command", PASSTHROUGH_CMD,
    ]) == 0
    records = list(read_corpus(out))
    assert [record.noisy for record in records] == [
        ["alpha beta", "omega psi"],
        ["one two", "one two"],
    ]


def test_denoise_missing_input_reports_the_same_error_for_both_methods(tmp_path, capsys):
    # A read error of the input is not a failed write to the external command.
    missing = tmp_path / "missing.jsonl"
    errors = []
    for method in (["--method", "overlap"], ["--method", "external", "--command", "cat"]):
        out = tmp_path / "out.jsonl"
        assert cli_main(["denoise", "-i", str(missing), "-o", str(out), *method]) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1] == f"sumnoise: error: [Errno 2] No such file or directory: '{missing}'\n"


def test_denoise_external_output_that_is_not_utf8_exits_one(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    code = cli_main([
        "denoise", "-i", str(corpus), "-o", str(out), "--method", "external", "--command", "printf '\\377\\n'",
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("sumnoise: error: record 't1': output line is not valid UTF-8")
    assert not out.exists()


def test_denoise_external_refuses_hard_wrapped_running_text(tmp_path, capsys):
    corpus = tmp_path / "wrapped.jsonl"
    record = {"id": "wrapped", "article": "A cat. A mat.", "summary": "The cat sat\non the mat. It left."}
    corpus.write_text(json.dumps(record) + "\n", encoding="utf-8")
    out = tmp_path / "denoised.jsonl"
    assert cli_main(["denoise", "-i", str(corpus), "-o", str(out)]) == 0
    out.unlink()
    code = cli_main(["denoise", "-i", str(corpus), "-o", str(out), "--method", "external", "--command", "cat"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("sumnoise: error: record 'wrapped': sentence contains a newline")
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--method", "external"], id="missing"),
        pytest.param(["--method", "external", "--command", ""], id="empty"),
        pytest.param(["--method", "external", "--command", "   "], id="blank"),
        pytest.param(["--method", "external", "--command", "'x"], id="unclosed-quote"),
        pytest.param(["--command", "./model.sh"], id="without-method-external"),
        pytest.param(["--method", "overlap", "--command", "'x"], id="unclosed-quote-without-method-external"),
    ],
)
def test_denoise_external_requires_command(tmp_path, capsys, flags):
    # The input does not exist: a check that waited for it would exit 1.
    out = tmp_path / "denoised.jsonl"
    argv = ["denoise", "-i", str(tmp_path / "missing.jsonl"), "-o", str(out), *flags]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "--command" in err
    assert not out.exists()


def test_denoise_external_protocol_violation_exits_one(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    drop_line = (
        f"{sys.executable} -c \"import sys; lines = sys.stdin.readlines(); "
        "sys.stdout.write(''.join(lines[:-1]))\""
    )
    code = cli_main([
        "denoise", "-i", str(corpus), "-o", str(out),
        "--method", "external", "--command", drop_line,
    ])
    assert code == 1
    assert "error" in capsys.readouterr().err


def large_corpus(tmp_path):
    """A corpus whose protocol lines add up to about 180 KiB, more than two pipe buffers."""
    path = tmp_path / "large.jsonl"
    write_records(
        [
            CorpusRecord(
                id=f"t{i}",
                article=["alpha beta gamma delta"],
                summary=[f"record {i} says" + " alpha beta" * 5, " ".join(["gamma delta"] * 4)],
            )
            for i in range(1, 1501)
        ],
        path,
    )
    return path


def denoise_in_child(corpus, out, command):
    """Run ``denoise --method external`` as its own interpreter, so a deadlock fails on the timeout."""
    return subprocess.run(
        [
            sys.executable, "-m", "sumnoise.cli", "denoise", "-i", str(corpus), "-o", str(out),
            "--method", "external", "--command", command,
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )


LINE_AT_A_TIME = (
    "import sys\n"
    "for line in iter(sys.stdin.readline, ''):\n"
    "    sys.stdout.write(line)\n"
    "    sys.stdout.flush()"
)
READ_ALL_FIRST = "import sys; sys.stdout.write(sys.stdin.read())"


@pytest.mark.parametrize(
    "script",
    [pytest.param(LINE_AT_A_TIME, id="line-at-a-time"), pytest.param(READ_ALL_FIRST, id="read-all-first")],
)
def test_denoise_external_streams_through_either_filter_style(tmp_path, script):
    # The adapter must keep writing while a batch filter reads everything
    # first, and keep reading while a line filter answers each line at once.
    corpus = large_corpus(tmp_path)
    assert sum(len(" <S> ".join(r.summary)) + 1 for r in read_corpus(corpus)) > 128 * 1024
    out = tmp_path / "denoised.jsonl"
    result = denoise_in_child(corpus, out, f"{sys.executable} -c {shlex.quote(script)}")
    assert result.returncode == 0, result.stderr
    assert [(r.id, r.noisy) for r in read_corpus(out)] == [(r.id, r.summary) for r in read_corpus(corpus)]


def test_denoise_external_reports_the_bad_output_line_of_a_command_that_exits_early(tmp_path, capsys):
    # The command prints one line and exits without reading, so writing the
    # rest of a large corpus fails. That failed write only ends the input:
    # the first failure in input order is the first record's line. Repeated,
    # because when the write fails varies from run to run.
    corpus = large_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    for _ in range(20):
        code = cli_main([
            "denoise", "-i", str(corpus), "-o", str(out), "--method", "external", "--command", "printf '\\377\\n'",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("sumnoise: error: record 't1': output line is not valid UTF-8"), err
        assert not out.exists()


def test_denoise_external_command_that_exits_at_once_gets_the_same_error_every_run(tmp_path, fixture_corpus, capsys):
    # Whether the first write lands before `true` exits is a race; the error
    # must not depend on it.
    noised = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "repeat", "--seed", "7"]) == 0
    capsys.readouterr()
    out = tmp_path / "denoised.jsonl"
    for _ in range(20):
        assert cli_main(["denoise", "-i", str(noised), "-o", str(out), "--method", "external", "--command", "true"]) == 1
        assert capsys.readouterr().err == "sumnoise: error: no output line for record 'r00000.v0' (input line 1)\n"
        assert not out.exists()


@pytest.mark.parametrize(
    "size, malformed_last_line",
    [
        pytest.param("large", False, id="large"),
        pytest.param("small", True, id="small-then-malformed"),
        pytest.param("large", True, id="large-then-malformed"),
    ],
)
def test_denoise_external_head_is_reported_for_the_second_record_on_every_run(tmp_path, size, malformed_last_line):
    # `head -n 1` answers the first record and exits. On the large corpus,
    # more than a pipe holds, a write then fails; a malformed line is read
    # after every record. Neither is reported: the second record comes first
    # in input order.
    if size == "large":
        corpus = large_corpus(tmp_path)
    else:
        corpus = tmp_path / "small.jsonl"
        write_records(
            [CorpusRecord(id=f"t{i}", article=["alpha beta"], summary=["alpha beta"]) for i in range(1, 6)],
            corpus,
        )
    if malformed_last_line:
        with corpus.open("a", encoding="utf-8") as handle:
            handle.write("{not json\n")
    out = tmp_path / "denoised.jsonl"
    for _ in range(3):
        result = denoise_in_child(corpus, out, "head -n 1")
        assert (result.returncode, result.stderr) == (
            1, "sumnoise: error: no output line for record 't2' (input line 2)\n"
        )
        assert not out.exists()


def test_denoise_external_does_not_wait_for_a_command_that_closed_its_output(tmp_path):
    # The command closes its stdout but keeps its stdin open and runs on, and
    # the corpus is more than a pipe holds. No record can be answered any
    # more, so the run fails at once and kills the command.
    corpus = large_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    start = time.monotonic()
    result = denoise_in_child(corpus, out, "sh -c 'exec >&-; exec sleep 30'")
    elapsed = time.monotonic() - start
    assert (result.returncode, result.stderr) == (1, "sumnoise: error: no output line for record 't1' (input line 1)\n")
    assert not out.exists()
    assert elapsed < 10


@pytest.mark.parametrize("records, command, line", [
    (1, "sh -c 'cat >/dev/null'", 1),
    (5, "head -n 3", 4),
])
def test_denoise_external_names_the_first_unanswered_input_line_from_one(tmp_path, capsys, records, command, line):
    # Input lines count from 1, as corpus lines do in read errors.
    corpus = tmp_path / "corpus.jsonl"
    write_records(
        [CorpusRecord(id=f"r{i}", article=["alpha beta"], summary=["alpha beta"]) for i in range(1, records + 1)],
        corpus,
    )
    out = tmp_path / "denoised.jsonl"
    code = cli_main(["denoise", "-i", str(corpus), "-o", str(out), "--method", "external", "--command", command])
    assert code == 1
    assert capsys.readouterr().err == f"sumnoise: error: no output line for record 'r{line}' (input line {line})\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["sh -c 'cat; exit 3'", "sh -c 'cat; echo extra'"])
def test_denoise_external_failure_after_last_line_exits_one(tmp_path, capsys, command):
    # Every record gets its line back, so only the adapter's trailing checks
    # (exit status, extra output) can catch these.
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    code = cli_main([
        "denoise", "-i", str(corpus), "-o", str(out),
        "--method", "external", "--command", command,
    ])
    assert code == 1
    assert "sumnoise: error:" in capsys.readouterr().err


def test_stats_on_known_corpus(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "stats.json"
    assert cli_main(["stats", "-i", str(corpus), "-o", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["records"] == 2
    assert payload["mean_sentences"] == 2.0
    assert payload["mean_tokens"] == 4.0
    # t1 scores 0, t2 is a verbatim duplicate pair scoring 100.
    assert payload["repeat_rate"] == pytest.approx(50.0)
    assert payload["repetitions_total"] == 1
    capsys.readouterr()


def test_json_reports_keep_their_key_order(tmp_path, capsys):
    # Readers of -o files may rely on these keys, spelled and ordered as here.
    corpus = tiny_corpus(tmp_path)
    report, stats = tmp_path / "report.json", tmp_path / "stats.json"
    for references in ([], ["-r", str(corpus)]):
        assert cli_main(["eval", "-b", str(corpus), "-a", str(corpus), "-o", str(report), *references]) == 0
        systems = json.loads(report.read_text(encoding="utf-8"))["systems"]
        assert [list(row) for row in systems] == 2 * [[
            "system", "records", "rouge1", "rouge2", "rougeL", "repeat_rate", "mean_sentences", "mean_tokens",
            "repetitions_total",
        ]]
        assert (systems[0]["rouge1"] is None) == (not references)
    assert cli_main(["stats", "-i", str(corpus), "-o", str(stats)]) == 0
    assert list(json.loads(stats.read_text(encoding="utf-8"))) == [
        "records", "mean_sentences", "mean_tokens", "repeat_rate", "repetitions_total", "repetition_threshold",
    ]
    capsys.readouterr()


def test_analyze_reports_fractions(tmp_path, fixture_corpus, capsys):
    noised = tmp_path / "noised.jsonl"
    denoised = tmp_path / "denoised.jsonl"
    out = tmp_path / "ops.json"
    cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "repeat", "--seed", "2"])
    cli_main(["denoise", "-i", str(noised), "-o", str(denoised), "--method", "overlap"])
    assert cli_main(["analyze", "-b", str(noised), "-a", str(denoised), "-o", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["samples"] == 150
    assert sum(payload["fractions"].values()) == pytest.approx(1.0)
    assert payload["fractions"]["deleted"] > 0.5
    capsys.readouterr()


def test_eval_finds_each_variant_reference_through_its_source_id(tmp_path, fixture_corpus, capsys):
    noised = tmp_path / "noised.jsonl"
    cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "repeat", "--seed", "9"])
    clean = {record.id: record for record in read_corpus(fixture_corpus)}
    variants = list(read_corpus(noised))
    # The clean references again, each under the id of every variant noised from it.
    by_variant_id = tmp_path / "by-variant-id.jsonl"
    write_records([clean[variant.provenance["source_id"]]._replace(id=variant.id) for variant in variants], by_variant_id)
    capsys.readouterr()
    table = eval_table(noised, noised, fixture_corpus, capsys)
    assert table == eval_table(noised, noised, by_variant_id, capsys)
    assert table.splitlines()[1].split("\t")[1] != "-"
    # A .vN id without a source id is not cut back to its source's id.
    bare = tmp_path / "bare.jsonl"
    write_records([variant._replace(provenance=None) for variant in variants], bare)
    assert cli_main(["eval", "-b", str(bare), "-a", str(bare), "-r", str(fixture_corpus)]) == 1
    assert capsys.readouterr().err == f"sumnoise: error: no reference for record {variants[0].id!r}\n"


def test_eval_scores_each_variant_against_its_source_when_ids_collide(tmp_path, capsys):
    # Noising 'a' writes the variant 'a.v0', which is also a clean record's
    # id. Noise that corrupts no sentence leaves every summary as it is, so
    # each variant scores 100 against its own source.
    clean, noised, out = tmp_path / "clean.jsonl", tmp_path / "noised.jsonl", tmp_path / "report.json"
    write_records([
        CorpusRecord(id="a", article=["alpha beta gamma."], summary=["alpha beta."]),
        CorpusRecord(id="a.v0", article=["delta epsilon zeta."], summary=["delta epsilon."]),
    ], clean)
    assert cli_main(["noise", "-i", str(clean), "-o", str(noised), "--dist", "1", "--variants", "1"]) == 0
    assert [record.id for record in read_corpus(noised)] == ["a.v0", "a.v0.v0"]
    assert cli_main(["eval", "-b", str(noised), "-a", str(noised), "-r", str(clean), "-o", str(out)]) == 0
    for row in json.loads(out.read_text(encoding="utf-8"))["systems"]:
        assert (row["rouge1"], row["rouge2"], row["rougeL"]) == (100.0, 100.0, 100.0)
    capsys.readouterr()


def test_eval_scores_against_the_reference_summaries_not_their_noisy_text(tmp_path, fixture_corpus, capsys):
    # The noised corpus carries the clean summaries beside its noisy text.
    noised = tmp_path / "noised.jsonl"
    denoised = tmp_path / "denoised.jsonl"
    cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "repeat", "--seed", "7"])
    cli_main(["denoise", "-i", str(noised), "-o", str(denoised)])
    capsys.readouterr()
    tables = []
    for references in (fixture_corpus, noised):
        assert cli_main(["eval", "-b", str(noised), "-a", str(denoised), "-r", str(references)]) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]


def test_eval_missing_reference_is_an_error(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    other = tmp_path / "other.jsonl"
    write_records([CorpusRecord(id="zz", article=["a b"], summary=["a b"])], other)
    assert cli_main(["eval", "-b", str(corpus), "-a", str(corpus), "-r", str(other)]) == 1
    assert capsys.readouterr().err == "sumnoise: error: no reference for record 't1'\n"


@pytest.mark.parametrize("after_ids, message", [
    (["t1", "t2"], "record ids diverge: 'zz' vs 't2'"),
    (["t1"], "streams have different lengths; unmatched record 'zz'"),
], ids=["diverging-ids", "shorter-after"])
def test_eval_checks_record_ids_before_looking_up_the_reference(tmp_path, capsys, after_ids, message):
    corpus = tiny_corpus(tmp_path)
    records = {record.id: record for record in read_corpus(corpus)}
    before = tmp_path / "before.jsonl"
    after = tmp_path / "after.jsonl"
    # The before record 'zz' has no reference either.
    write_records([records["t1"], CorpusRecord(id="zz", article=["a b."], summary=["a b."])], before)
    write_records([records[record_id] for record_id in after_ids], after)
    assert cli_main(["eval", "-b", str(before), "-a", str(after), "-r", str(corpus)]) == 1
    assert capsys.readouterr().err == f"sumnoise: error: {message}\n"


# In each case one side holds a record 'a1' whose noisy text has a sentence
# without tokens. A pair is read and its ids checked before its documents
# are built, so the bad line or the id mismatch is reported instead.
ID_ERRORS_BEFORE_EMPTY_SENTENCES = {
    "diverging-ids": ("{bad}", "{zz}", "record ids diverge: 'a1' vs 'zz'"),
    "shorter-after": ("{bad}", "", "streams have different lengths; unmatched record 'a1'"),
    "shorter-before": ("", "{bad}", "streams have different lengths; unmatched record 'a1'"),
    "malformed-after": ("{bad}", '{{"id": "a1"}}\n', "line 2: missing 'article'"),
}


@pytest.mark.parametrize("subcommand", ["eval", "analyze"])
@pytest.mark.parametrize("case", sorted(ID_ERRORS_BEFORE_EMPTY_SENTENCES))
def test_a_pair_is_checked_before_its_documents_are_built(tmp_path, capsys, subcommand, case):
    before_tail, after_tail, message = ID_ERRORS_BEFORE_EMPTY_SENTENCES[case]
    ok = record_to_line(CorpusRecord(id="ok", article=["alpha beta"], summary=["alpha beta"])) + "\n"
    lines = {
        "bad": record_to_line(CorpusRecord(id="a1", article=["gamma"], summary=["gamma"], noisy=["gamma", "?!"])) + "\n",
        "zz": record_to_line(CorpusRecord(id="zz", article=["gamma"], summary=["gamma"])) + "\n",
    }
    before, after, out = tmp_path / "before.jsonl", tmp_path / "after.jsonl", tmp_path / "out.json"
    before.write_text(ok + before_tail.format(**lines), encoding="utf-8")
    after.write_text(ok + after_tail.format(**lines), encoding="utf-8")
    assert cli_main([subcommand, "-b", str(before), "-a", str(after), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"sumnoise: error: {message}\n")
    assert not out.exists()


def test_eval_with_references_reports_malformed_before_line(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    before = tmp_path / "before.jsonl"
    lines = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    before.write_text(lines[0] + '{"id": "t2"}\n', encoding="utf-8")
    assert cli_main(["eval", "-b", str(before), "-a", str(corpus), "-r", str(corpus)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_eval_with_references_rejects_longer_before(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    after = tmp_path / "after.jsonl"
    after.write_text(corpus.read_text(encoding="utf-8").splitlines(keepends=True)[0], encoding="utf-8")
    assert cli_main(["eval", "-b", str(corpus), "-a", str(after), "-r", str(corpus)]) == 1
    assert "different lengths" in capsys.readouterr().err


def noised_and_denoised(tmp_path, fixture_corpus, capsys):
    noised = tmp_path / "noised.jsonl"
    denoised = tmp_path / "denoised.jsonl"
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "mixture", "--seed", "7"]) == 0
    assert cli_main(["denoise", "-i", str(noised), "-o", str(denoised)]) == 0
    capsys.readouterr()
    return noised, denoised


def eval_table(noised, denoised, references, capsys):
    assert cli_main(["eval", "-b", str(noised), "-a", str(denoised), "-r", str(references)]) == 0
    return capsys.readouterr().out


def test_eval_references_in_any_order_give_the_same_table(tmp_path, fixture_corpus, capsys):
    noised, denoised = noised_and_denoised(tmp_path, fixture_corpus, capsys)
    lines = fixture_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(3).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("".join(lines), encoding="utf-8")
    in_order = eval_table(noised, denoised, fixture_corpus, capsys)
    assert eval_table(noised, denoised, shuffled, capsys) == in_order
    # Blank and whitespace-only lines between the references shift no offset.
    spaced = tmp_path / "spaced.jsonl"
    spaced.write_text("\n" + " \r\n".join(lines) + "\n\t\n", encoding="utf-8")
    assert eval_table(noised, denoised, spaced, capsys) == in_order


def test_eval_allows_unused_references(tmp_path, fixture_corpus, capsys):
    noised, denoised = noised_and_denoised(tmp_path, fixture_corpus, capsys)
    extra = tmp_path / "extra.jsonl"
    extra.write_bytes(fixture_corpus.read_bytes())
    with extra.open("a", encoding="utf-8") as handle:
        for i in range(5):
            handle.write(record_to_line(CorpusRecord(id=f"unused{i}", article=["a b."], summary=["c d."])) + "\n")
    assert eval_table(noised, denoised, extra, capsys) == eval_table(noised, denoised, fixture_corpus, capsys)


def test_eval_reads_references_from_a_pipe(tmp_path, fixture_corpus, capsys):
    noised, denoised = noised_and_denoised(tmp_path, fixture_corpus, capsys)
    fifo = tmp_path / "references"
    os.mkfifo(fifo)
    writer = threading.Thread(target=lambda: fifo.write_bytes(fixture_corpus.read_bytes()), daemon=True)
    writer.start()
    piped = eval_table(noised, denoised, fifo, capsys)
    writer.join(timeout=10)
    assert piped == eval_table(noised, denoised, fixture_corpus, capsys)
    assert sorted(os.listdir(tmp_path)) == ["denoised.jsonl", "noised.jsonl", "references"]


def test_eval_references_keep_every_character_of_their_summaries(tmp_path, capsys):
    # Quotes, backslashes, line breaks (\n splits a token, \u2028 too) and
    # non-ASCII text, inside tokens and between them.
    summaries = [
        ['He said "quo"te" twice.', "a back\\slash, \\n and \\u0041 here."],
        ["one line\nand the next.", "para\u2028graph café\u2028naïve."],
        ["日本語 テキスト 東京.", "Übermaß ß ǅ ﬁ 𝔘nicode."],
    ]
    records = [
        CorpusRecord(id=f"r{i}", article=["filler words."], summary=summary, noisy=[summary[1], "extra words here."])
        for i, summary in enumerate(summaries)
    ]
    references, corpus = tmp_path / "references.jsonl", tmp_path / "corpus.jsonl"
    write_records([record._replace(noisy=None) for record in records], references)
    write_records(records, corpus)
    assert cli_main(["eval", "-b", str(corpus), "-a", str(references), "-r", str(references)]) == 0
    in_memory = {record.id: record.summary_doc() for record in read_corpus(references)}
    report = eval_report(aligned_pairs(read_corpus(corpus), read_corpus(references)), in_memory)
    assert capsys.readouterr().out == report.to_tsv() + "\n"


# eval -r runs that end in each way: the after corpus, the reference corpus, the start of stderr.
EVAL_REFERENCE_RUNS = {
    "success": ("tiny.jsonl", "tiny.jsonl", ""),
    "bad-after-line": ("broken.jsonl", "tiny.jsonl", "sumnoise: error: line 2: invalid JSON"),
    "missing-reference": ("tiny.jsonl", "t1-only.jsonl", "sumnoise: error: no reference for record 't2'"),
}


@pytest.mark.parametrize("source", ["file", "pipe"])
@pytest.mark.parametrize("case", sorted(EVAL_REFERENCE_RUNS))
def test_eval_references_leave_nothing_in_the_temporary_directory(tmp_path, monkeypatch, capsys, source, case):
    temp = tmp_path / "temp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    corpus = tiny_corpus(tmp_path)
    (tmp_path / "broken.jsonl").write_bytes(corpus.read_bytes().splitlines(keepends=True)[0] + b"{broken\n")
    write_records([CorpusRecord(id="t1", article=["a b."], summary=["a b."])], tmp_path / "t1-only.jsonl")
    after, references, message = EVAL_REFERENCE_RUNS[case]
    references = tmp_path / references
    if source == "pipe":
        fifo = tmp_path / "references"
        os.mkfifo(fifo)
        data = references.read_bytes()
        writer = threading.Thread(target=lambda: fifo.write_bytes(data), daemon=True)
        writer.start()
        references = fifo
    code = cli_main(["eval", "-b", str(corpus), "-a", str(tmp_path / after), "-r", str(references)])
    if source == "pipe":
        writer.join(timeout=10)
        assert not writer.is_alive()
    assert (code, capsys.readouterr().err.startswith(message)) == (1 if message else 0, True)
    assert os.listdir(temp) == []


def eval_rouge1(tmp_path, capsys, before_record, reference_records):
    """ROUGE-1 of both rows when ``before_record`` is scored against itself with these references."""
    before, references, out = tmp_path / "before.jsonl", tmp_path / "references.jsonl", tmp_path / "report.json"
    write_records([before_record], before)
    write_records(reference_records, references)
    assert cli_main(["eval", "-b", str(before), "-a", str(before), "-r", str(references), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    return [row["rouge1"] for row in json.loads(out.read_text(encoding="utf-8"))["systems"]]


@pytest.mark.parametrize("order", ["base-first", "variant-first"])
def test_eval_prefers_the_exact_reference_id_to_the_base_id(tmp_path, capsys, order):
    # A record without provenance is looked up by its own id; the id is never parsed.
    variant = CorpusRecord(id="a.v0", article=["x y."], summary=["one two three."])
    base = CorpusRecord(id="a", article=["x y."], summary=["four five six."])
    references = [base, variant] if order == "base-first" else [variant, base]
    before = variant._replace(noisy=["one two three."])
    assert eval_rouge1(tmp_path, capsys, before, references) == [100.0, 100.0]


@pytest.mark.parametrize("order", ["source-first", "exact-first"])
def test_eval_prefers_the_source_id_reference_to_the_exact_id(tmp_path, capsys, order):
    source = CorpusRecord(id="s", article=["x y."], summary=["one two three."])
    exact = CorpusRecord(id="a.v0", article=["x y."], summary=["four five six."])
    references = [source, exact] if order == "source-first" else [exact, source]
    before = exact._replace(noisy=["one two three."], provenance={"source_id": "s"})
    assert eval_rouge1(tmp_path, capsys, before, references) == [100.0, 100.0]


@pytest.mark.parametrize(
    "source_id", [5, ["s"], None, {"id": "s"}, "missing"], ids=["int", "list", "null", "object", "unheld-string"]
)
def test_eval_looks_up_a_record_by_its_own_id_unless_its_source_id_names_a_reference(tmp_path, capsys, source_id):
    # A source id that is not a string, or names no reference, counts as absent.
    source = CorpusRecord(id="s", article=["x y."], summary=["four five six."])
    own = CorpusRecord(id="r", article=["x y."], summary=["one two three."])
    before = own._replace(noisy=["one two three."], provenance={"source_id": source_id})
    assert eval_rouge1(tmp_path, capsys, before, [source, own]) == [100.0, 100.0]


REFERENCE_ERRORS = {  # reference lines, with "t1" and "t2" standing for those records; message
    "duplicate": (["t1", "t2", "t1"], "sumnoise: error: line 3: duplicate id 't1'\n"),
    "invalid-json": (["t1", b"{nope"], "sumnoise: error: line 2: invalid JSON: "),
    "not-utf8": (["t1", b"", b"\xff"], "sumnoise: error: line 3: invalid UTF-8: "),
    "missing-summary": (["t2", b'{"id": "x", "article": ["a b."]}'], "sumnoise: error: line 2: missing 'summary'\n"),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_ERRORS))
def test_eval_reports_a_bad_reference_corpus_before_reading_the_others(tmp_path, capsys, case):
    corpus = tiny_corpus(tmp_path)
    records = dict(zip(["t1", "t2"], corpus.read_bytes().splitlines()))
    lines, message = REFERENCE_ERRORS[case]
    references = tmp_path / "references.jsonl"
    references.write_bytes(b"".join(records.get(line, line) + b"\n" for line in lines))
    before = tmp_path / "before.jsonl"
    before.write_bytes(records["t1"] + b"\n{broken\n")  # malformed further down
    assert cli_main(["eval", "-b", str(before), "-a", str(corpus), "-r", str(references)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1


def test_usage_errors_exit_two(capsys):
    assert cli_main(["frobnicate"]) == 2
    assert cli_main(["noise", "--no-such-flag"]) == 2
    assert cli_main(["noise"]) == 2  # missing required -i/-o
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli_main(["--help"]) == 0
    capsys.readouterr()


SUBCOMMAND_OPTIONS = {
    "noise": {"-h", "-i", "-o", "--type", "--dist", "--seed", "--variants", "--paraphraser"},
    "denoise": {"-h", "-i", "-o", "--method", "--threshold", "--command"},
    "eval": {"-h", "-b", "-a", "-r", "-o", "--threshold"},
    "analyze": {"-h", "-b", "-a", "-o", "--tau-match"},
    "stats": {"-h", "-i", "-o", "--threshold"},
}


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_help_lists_exactly_its_options(subcommand, capsys):
    assert cli_main([subcommand, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    # argparse usage shows each option once, by its first (short) spelling.
    assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", usage)) == SUBCOMMAND_OPTIONS[subcommand]


BAD_THRESHOLD_CASES = {
    "denoise-above-one": ["denoise", "-i", "{missing}", "-o", "{out}", "--threshold", "1.5"],
    "denoise-external": [
        "denoise", "-i", "{missing}", "-o", "{out}", "--method", "external", "--command", "cat",
        "--threshold", "1.5",
    ],
    "denoise-external-any-threshold": [
        "denoise", "-i", "{missing}", "-o", "{out}", "--method", "external", "--command", "cat",
        "--threshold", "0.5",
    ],
    "eval-nan": ["eval", "-b", "{missing}", "-a", "{missing}", "-o", "{out}", "--threshold", "nan"],
    "analyze-tau-match": ["analyze", "-b", "{missing}", "-a", "{missing}", "-o", "{out}", "--tau-match", "7"],
    "stats-negative": ["stats", "-i", "{missing}", "-o", "{out}", "--threshold", "-1"],
    "stats-not-a-number": ["stats", "-i", "{missing}", "-o", "{out}", "--threshold", "high"],
    "noise-zero-variants": ["noise", "-i", "{missing}", "-o", "{out}", "--variants", "0"],
    "noise-variants-not-a-number": ["noise", "-i", "{missing}", "-o", "{out}", "--variants", "abc"],
    "noise-dist-sum": ["noise", "-i", "{missing}", "-o", "{out}", "--dist", "0.5,0.4"],
    "noise-dist-not-a-number": ["noise", "-i", "{missing}", "-o", "{out}", "--dist", "abc"],
    "noise-dist-nan": ["noise", "-i", "{missing}", "-o", "{out}", "--dist", "0.5,nan,0.5"],
}


@pytest.mark.parametrize("case", sorted(BAD_THRESHOLD_CASES))
def test_bad_threshold_exits_two_before_reading_input(tmp_path, capsys, case):
    # The input does not exist: a check that waited for it would exit 1.
    out = tmp_path / "out"
    argv = [arg.format(missing=tmp_path / "missing.jsonl", out=out) for arg in BAD_THRESHOLD_CASES[case]]
    assert cli_main(argv) == 2
    assert argv[-2] in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "1", "0.5"])
def test_threshold_bounds_are_accepted(tmp_path, capsys, value):
    corpus = tiny_corpus(tmp_path)
    assert cli_main(["stats", "-i", str(corpus), "--threshold", value]) == 0
    assert cli_main(["analyze", "-b", str(corpus), "-a", str(corpus), "--tau-match", value]) == 0
    capsys.readouterr()


def test_missing_input_file_exits_one(tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert cli_main(["stats", "-i", str(tmp_path / "nope.jsonl"), "-o", str(out)]) == 1
    assert "error" in capsys.readouterr().err


def test_malformed_corpus_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    assert cli_main(["stats", "-i", str(bad)]) == 1
    assert "article" in capsys.readouterr().err


def test_raw_text_corpus_is_split_on_read(tmp_path, capsys):
    path = tmp_path / "raw.jsonl"
    payload = {"id": "x", "article": "One two three. Four five.", "summary": "One two. Three four."}
    path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    out = tmp_path / "stats.json"
    assert cli_main(["stats", "-i", str(path), "-o", str(out)]) == 0
    stats = json.loads(out.read_text(encoding="utf-8"))
    assert stats["mean_sentences"] == 2.0
    noised = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(path), "-o", str(noised), "--type", "repeat"]) == 0
    assert next(read_corpus(noised)).article == ["One two three.", "Four five."]
    assert cli_main(["denoise", "-i", str(path), "-o", str(tmp_path / "denoised.jsonl")]) == 0
    # Running text as the system output, scored against itself as reference.
    assert cli_main(["eval", "-b", str(path), "-a", str(path), "-r", str(path)]) == 0
    assert cli_main(["analyze", "-b", str(path), "-a", str(path)]) == 0
    capsys.readouterr()


def test_corpus_that_is_not_utf8_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_bytes(b"\xff\n")
    assert cli_main(["stats", "-i", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sumnoise: error: line 1:")
    assert "Traceback" not in err


def test_noise_rejects_a_lone_surrogate_before_writing(tmp_path, capsys):
    corpus = tmp_path / "surrogate.jsonl"
    payload = {"id": "x", "article": ["a b.", "c d."], "summary": ["\ud800 y"]}
    corpus.write_text(json.dumps(payload) + "\n", encoding="utf-8")
    out = tmp_path / "noised.jsonl"
    assert cli_main(["noise", "-i", str(corpus), "-o", str(out), "--type", "repeat"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("sumnoise: error: line 1:")
    assert "Traceback" not in err
    assert not out.exists()


SAME_FILE_CASES = {
    "noise": ["noise", "-i", "{corpus}", "-o", "{corpus}"],
    "denoise-via-symlink": ["denoise", "-i", "{corpus}", "-o", "{link}"],
    "denoise-external": [
        "denoise", "-i", "{corpus}", "-o", "{corpus}", "--method", "external", "--command", "cat",
    ],
    "eval-before": ["eval", "-b", "{corpus}", "-a", "{other}", "-o", "{corpus}"],
    "eval-references": ["eval", "-b", "{other}", "-a", "{other}", "-r", "{corpus}", "-o", "{corpus}"],
    "analyze-after": ["analyze", "-b", "{other}", "-a", "{corpus}", "-o", "{corpus}"],
    "stats": ["stats", "-i", "{corpus}", "-o", "{corpus}"],
}


@pytest.mark.parametrize("case", sorted(SAME_FILE_CASES))
def test_output_naming_an_input_is_refused(tmp_path, capsys, case):
    corpus = tiny_corpus(tmp_path)
    other = tmp_path / "other.jsonl"
    other.write_bytes(corpus.read_bytes())
    link = tmp_path / "link.jsonl"
    link.symlink_to(corpus)
    before = corpus.read_bytes()
    argv = [arg.format(corpus=corpus, other=other, link=link) for arg in SAME_FILE_CASES[case]]
    assert cli_main(argv) == 2
    assert "refusing to overwrite" in capsys.readouterr().err
    assert corpus.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["link.jsonl", "other.jsonl", "tiny.jsonl"]


@pytest.mark.parametrize("method", [["--method", "overlap"], ["--method", "external", "--command", "cat"]])
def test_mid_stream_error_leaves_no_partial_output(tmp_path, capsys, method):
    source = tmp_path / "source.jsonl"
    write_records(
        [CorpusRecord(id=f"r{i}", article=["alpha beta"], summary=["alpha beta", "gamma"]) for i in range(20)],
        source,
    )
    with source.open("a", encoding="utf-8") as handle:
        handle.write('{"id": "broken"\n')
    fresh = tmp_path / "fresh.jsonl"
    assert cli_main(["denoise", "-i", str(source), "-o", str(fresh), *method]) == 1
    assert "line 21" in capsys.readouterr().err
    assert not fresh.exists()
    existing = tmp_path / "existing.jsonl"
    existing.write_text("keep me\n", encoding="utf-8")
    assert cli_main(["denoise", "-i", str(source), "-o", str(existing), *method]) == 1
    assert existing.read_text(encoding="utf-8") == "keep me\n"
    assert sorted(os.listdir(tmp_path)) == ["existing.jsonl", "source.jsonl"]


@pytest.mark.parametrize("command", ["noise", "denoise", "stats"])
def test_output_into_a_missing_directory_names_the_output_path(tmp_path, capsys, command):
    # The error names the -o path, as open() would, and not the randomly
    # named temporary file beside it, so every run prints the same bytes.
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "missing" / "out.jsonl"
    printed = []
    for _ in range(2):
        assert cli_main([command, "-i", str(corpus), "-o", str(out)]) == 1
        printed.append(capsys.readouterr())
    assert printed == [("", f"sumnoise: error: [Errno 2] No such file or directory: {str(out)!r}\n")] * 2
    assert os.listdir(tmp_path) == ["tiny.jsonl"]


def test_output_gets_the_mode_a_plain_open_gives(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    plain = tmp_path / "plain"
    plain.open("w").close()
    out = tmp_path / "stats.json"
    assert cli_main(["stats", "-i", str(corpus), "-o", str(out)]) == 0
    assert out.stat().st_mode == plain.stat().st_mode
    capsys.readouterr()


@pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)  # no one umask turns 0o666 into both
def test_output_keeps_the_mode_of_the_file_it_replaces(tmp_path, capsys, mode):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "stats.json"
    out.write_text("old\n", encoding="utf-8")
    out.chmod(mode)
    assert cli_main(["stats", "-i", str(corpus), "-o", str(out)]) == 0
    assert stat.S_IMODE(out.stat().st_mode) == mode
    assert json.loads(out.read_text(encoding="utf-8"))["records"] == 2
    capsys.readouterr()


def test_output_to_a_pipe_is_written_in_place(tmp_path, capsys):
    # A pipe or device (say /dev/stdout) cannot be replaced by a renamed file.
    corpus = tiny_corpus(tmp_path)
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
    reader.start()
    assert cli_main(["stats", "-i", str(corpus), "-o", str(fifo)]) == 0
    reader.join(timeout=10)
    assert fifo.is_fifo()
    assert json.loads(received[0])["records"] == 2
    capsys.readouterr()


def test_denoise_external_reads_the_input_once(tmp_path, monkeypatch):
    opened = []

    def counting_read_corpus(path):
        opened.append(path)
        return read_corpus(path)

    monkeypatch.setattr("sumnoise.cli.read_corpus", counting_read_corpus)
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    assert cli_main([
        "denoise", "-i", str(corpus), "-o", str(out), "--method", "external", "--command", "cat",
    ]) == 0
    assert opened == [str(corpus)]
    assert [record.id for record in read_corpus(out)] == ["t1", "t2"]


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=lambda signum: signum.name)
def test_a_signal_ends_the_run_cleanly(tmp_path, signum):
    # The run is signalled while its -o temporary file exists and the
    # external command is running; it exits 128 + signum with one error line,
    # after removing the temporary file and killing the command.
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    pidfile = tmp_path / "command.pid"
    run = subprocess.Popen(
        [
            sys.executable, "-m", "sumnoise.cli", "denoise", "-i", str(corpus), "-o", str(out),
            "--method", "external", "--command", f"sh -c 'echo $$ > {pidfile}; exec sleep 60'",
        ],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # A shell that started the tests in the background may have left
        # SIGINT ignored; the CLI, like any program, keeps an ignored signal.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        deadline = time.monotonic() + 30
        while not (list(tmp_path.glob(".denoised.jsonl.*.tmp")) and pidfile.exists() and pidfile.read_text()):
            assert run.poll() is None and time.monotonic() < deadline, "the run never started its command"
            time.sleep(0.01)
        command_pid = int(pidfile.read_text())
        run.send_signal(signum)
        stdout, stderr = run.communicate(timeout=30)
    finally:
        if run.poll() is None:
            run.kill()
            run.communicate()
    try:
        assert run.returncode == 128 + signum
        assert stdout == ""
        assert stderr == f"sumnoise: error: interrupted by {signum.name}\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["command.pid", "tiny.jsonl"]
        with pytest.raises(ProcessLookupError):
            os.kill(command_pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.kill(command_pid, signal.SIGKILL)  # left running only when the test fails


def running(pid):
    """Whether ``pid`` still runs; a zombie, left for init to reap, does not."""
    try:
        os.kill(pid, 0)
        stat_line = Path(f"/proc/{pid}/stat").read_text()
    except ProcessLookupError:
        return False
    except FileNotFoundError:  # no /proc, or reaped since os.kill
        return sys.platform != "linux"
    return stat_line.rsplit(")", 1)[1].split()[0] != "Z"


def all_gone(pids, seconds=5.0):
    deadline = time.monotonic() + seconds
    while any(map(running, pids)):
        if time.monotonic() > deadline:
            return False
        time.sleep(0.02)
    return True


def denoise_run(tmp_path, command):
    """``denoise --method external --command COMMAND`` in a child process.

    Its stderr goes to a file: a pipe would stay open, and its reader wait,
    for as long as anything the command started still runs.
    """
    with open(tmp_path / "stderr.log", "w", encoding="utf-8") as stderr:
        return subprocess.Popen(
            [
                sys.executable, "-m", "sumnoise.cli", "denoise", "-i", str(tiny_corpus(tmp_path)),
                "-o", str(tmp_path / "denoised.jsonl"), "--method", "external", "--command", command,
            ],
            env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.DEVNULL, stderr=stderr,
        )


def kill_recorded(*pidfiles):
    """Kill what a failed test left running: the pids the command wrote down."""
    for pidfile in pidfiles:
        if pidfile.exists() and pidfile.read_text().strip():
            with contextlib.suppress(ProcessLookupError):
                os.kill(int(pidfile.read_text()), signal.SIGKILL)


def test_a_signal_kills_what_the_command_started(tmp_path):
    # The shell waits on a background sleep; killing the shell alone would
    # leave the sleep running after the run has ended.
    sh_pid, sleep_pid = tmp_path / "sh.pid", tmp_path / "sleep.pid"
    run = denoise_run(tmp_path, f"sh -c 'echo $$ > {sh_pid}; sleep 23 & echo $! > {sleep_pid}; wait; cat'")
    try:
        deadline = time.monotonic() + 30
        while not (sleep_pid.exists() and sleep_pid.read_text().strip()):
            assert run.poll() is None and time.monotonic() < deadline, "the run never started its command"
            time.sleep(0.01)
        time.sleep(0.2)  # the pids can appear a moment before the adapter enters its try block
        run.send_signal(signal.SIGTERM)
        assert run.wait(timeout=15) == 128 + signal.SIGTERM
        assert (tmp_path / "stderr.log").read_text() == "sumnoise: error: interrupted by SIGTERM\n"
        assert all_gone([int(sh_pid.read_text()), int(sleep_pid.read_text())])
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        kill_recorded(sh_pid, sleep_pid)


def test_a_failed_run_kills_what_the_command_started(tmp_path):
    # The shell's reply is not UTF-8, so the run fails on its first line while
    # the shell still waits on its background sleep.
    sleep_pid = tmp_path / "sleep.pid"
    started = time.monotonic()
    run = denoise_run(tmp_path, f"sh -c 'sleep 37 & echo $! > {sleep_pid}; printf \"\\377\\n\"; wait'")
    try:
        assert run.wait(timeout=30) == 1
        assert time.monotonic() - started < 20
        assert "not valid UTF-8" in (tmp_path / "stderr.log").read_text()
        assert all_gone([int(sleep_pid.read_text())])
    finally:
        if run.poll() is None:
            run.kill()
            run.wait()
        kill_recorded(sleep_pid)
