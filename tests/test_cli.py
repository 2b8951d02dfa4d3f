from __future__ import annotations

import json
import os
import re
import sys
import threading

import pytest

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
    assert cli_main(["noise", "-i", str(fixture_corpus), "-o", str(out), "--variants", "0"]) == 1
    assert "variants must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


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


def test_denoise_external_requires_command(tmp_path):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    assert cli_main(["denoise", "-i", str(corpus), "-o", str(out), "--method", "external"]) == 2


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
    "noise": {"-h", "-i", "-o", "--type", "--dist", "--seed", "--variants", "--paraphraser", "--raw-text"},
    "denoise": {"-h", "-i", "-o", "--method", "--threshold", "--command", "--raw-text"},
    "eval": {"-h", "-b", "-a", "-r", "-o", "--threshold"},
    "analyze": {"-h", "-b", "-a", "-o", "--tau-match"},
    "stats": {"-h", "-i", "-o", "--threshold", "--raw-text"},
}


@pytest.mark.parametrize("subcommand", sorted(SUBCOMMAND_OPTIONS))
def test_subcommand_help_lists_exactly_its_options(subcommand, capsys):
    assert cli_main([subcommand, "--help"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    # argparse usage shows each option once, by its first (short) spelling.
    assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", usage)) == SUBCOMMAND_OPTIONS[subcommand]


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
    assert cli_main(["stats", "-i", str(path), "--raw-text", "-o", str(out)]) == 0
    stats = json.loads(out.read_text(encoding="utf-8"))
    assert stats["mean_sentences"] == 2.0
    capsys.readouterr()


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

    def counting_read_corpus(path, raw_text=False):
        opened.append(path)
        return read_corpus(path, raw_text=raw_text)

    monkeypatch.setattr("sumnoise.cli.read_corpus", counting_read_corpus)
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "denoised.jsonl"
    assert cli_main([
        "denoise", "-i", str(corpus), "-o", str(out), "--method", "external", "--command", "cat",
    ]) == 0
    assert opened == [str(corpus)]
    assert [record.id for record in read_corpus(out)] == ["t1", "t2"]
