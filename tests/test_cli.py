from __future__ import annotations

import json
import sys

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


def test_noise_workers_do_not_change_output(tmp_path, fixture_corpus):
    serial = tmp_path / "serial.jsonl"
    parallel = tmp_path / "parallel.jsonl"
    base = ["noise", "-i", str(fixture_corpus), "--type", "mixture", "--seed", "5"]
    assert cli_main(base + ["-o", str(serial), "--workers", "1"]) == 0
    assert cli_main(base + ["-o", str(parallel), "--workers", "3"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


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
