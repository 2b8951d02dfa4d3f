from __future__ import annotations

import hashlib
import json
import os
import re
import stat
import sys
import threading

import pytest

from sumnoise import noising
from sumnoise.cli import cli_main
from sumnoise.corpus import CorpusRecord, read_corpus, write_corpus

PASSTHROUGH_CMD = f"{sys.executable} -c \"import sys; sys.stdout.write(sys.stdin.read())\""


def tiny_corpus(tmp_path):
    path = tmp_path / "tiny.jsonl"
    write_corpus(
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
    write_corpus([CorpusRecord(id="tie", article=article, summary=["t0 t1"])], corpus)
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
    write_corpus([CorpusRecord(id="m", article=["x"], summary=[before_sentence])], before)
    write_corpus([CorpusRecord(id="m", article=["x"], summary=[after_sentence])], after)
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
    write_corpus([
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
        "sumnoise: wrote 3 records, skipped 1",
    ]
    assert [record.id for record in read_corpus(out)] == ["ok.v0", "ok.v1", "ok.v2"]


VARIANT_SKIPS = {
    # One noisy sentence, but the article's one sentence is the summary's match.
    "extra": (
        ["--type", "extra", "--dist", "0,1"], ["a b c d"], "need 1 unmatched article sentences, only 0 available"
    ),
    # Two noisy sentences in a one-sentence summary.
    "replace": (
        ["--type", "replace", "--dist", "0,0,1"], ["a b c d", "x y z w"], "cannot replace 2 of 1 summary sentences"
    ),
}


@pytest.mark.parametrize("case", sorted(VARIANT_SKIPS))
def test_variant_that_cannot_be_noised_is_skipped(tmp_path, capsys, case):
    flags, article, message = VARIANT_SKIPS[case]
    corpus = tmp_path / "corpus.jsonl"
    write_corpus([
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
        "sumnoise: wrote 3 records, skipped 3",
    ]
    assert [record.id for record in read_corpus(out)] == ["ok.v0", "ok.v1", "ok.v2"]


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
    write_corpus([CorpusRecord(id="r", article=article, summary=summary)], corpus)
    out = tmp_path / "noised.jsonl"
    assert cli_main([
        "noise", "-i", str(corpus), "-o", str(out),
        "--type", noise_type, "--dist", dist, "--variants", "3",
    ]) == 0
    assert "wrote 3 records, skipped 0" in capsys.readouterr().err
    assert 0 < len(calls) <= len(summary) * len(article)


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


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--method", "external"], id="missing"),
        pytest.param(["--method", "external", "--command", ""], id="empty"),
        pytest.param(["--method", "external", "--command", "   "], id="blank"),
        pytest.param(["--method", "external", "--command", "'x"], id="unclosed-quote"),
        pytest.param(["--command", "./model.sh"], id="without-method-external"),
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


def test_eval_reference_lookup_strips_variant_suffix(tmp_path, fixture_corpus, capsys):
    noised = tmp_path / "noised.jsonl"
    cli_main(["noise", "-i", str(fixture_corpus), "-o", str(noised), "--type", "repeat", "--seed", "9"])
    assert cli_main(["eval", "-b", str(noised), "-a", str(noised), "-r", str(fixture_corpus)]) == 0
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
    write_corpus([CorpusRecord(id="zz", article=["a b"], summary=["a b"])], other)
    assert cli_main(["eval", "-b", str(corpus), "-a", str(corpus), "-r", str(other)]) == 1
    assert "t1" in capsys.readouterr().err


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
    "eval-nan": ["eval", "-b", "{missing}", "-a", "{missing}", "-o", "{out}", "--threshold", "nan"],
    "analyze-tau-match": ["analyze", "-b", "{missing}", "-a", "{missing}", "-o", "{out}", "--tau-match", "7"],
    "stats-negative": ["stats", "-i", "{missing}", "-o", "{out}", "--threshold", "-1"],
    "stats-not-a-number": ["stats", "-i", "{missing}", "-o", "{out}", "--threshold", "high"],
    "noise-zero-variants": ["noise", "-i", "{missing}", "-o", "{out}", "--variants", "0"],
    "noise-dist-sum": ["noise", "-i", "{missing}", "-o", "{out}", "--dist", "0.5,0.4"],
    "noise-dist-not-a-number": ["noise", "-i", "{missing}", "-o", "{out}", "--dist", "abc"],
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
    write_corpus(
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
