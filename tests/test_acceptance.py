"""Acceptance suite: one test per release criterion, with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines as they complete.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from pathlib import Path

import pytest

from corpus_files import write_records
from oracles import clipped_match_count, lcs_full_table, precision_recall_f1
from sumnoise.cli import cli_main
from sumnoise.corpus import read_corpus
from sumnoise.denoise import overlap_denoise
from sumnoise.metrics import repeat_rate, repetition_count, rouge_l, rouge_n, summary_stats
from sumnoise.noising import NoiseDistribution, apply_repeat, sample_noise_count
from sumnoise.synth import synth_corpus
from sumnoise.text import make_document, unigram_overlap

ALPHABET = ("a", "b", "c")
NOISE_PROBS = NoiseDistribution((0.15, 0.85))


def _report(number: int, message: str) -> None:
    print(f"[criterion {number}] PASS - {message}")


def _doc_from_tokens(tokens: tuple[str, ...], split: bool = False):
    if split and len(tokens) >= 2:
        cut = len(tokens) // 2
        return make_document([" ".join(tokens[:cut]), " ".join(tokens[cut:])])
    return make_document([" ".join(tokens)])


def _oracle_pairs():
    """Deterministic pair enumeration: exhaustive while the length combination
    stays small (at most 100 pairs), 100 seeded samples otherwise."""
    rng = random.Random(1405)
    for cand_len in range(1, 9):
        for ref_len in range(1, 9):
            if 3 ** (cand_len + ref_len) <= 100:
                for cand in itertools.product(ALPHABET, repeat=cand_len):
                    for ref in itertools.product(ALPHABET, repeat=ref_len):
                        yield cand, ref
            else:
                for _ in range(100):
                    cand = tuple(rng.choice(ALPHABET) for _ in range(cand_len))
                    ref = tuple(rng.choice(ALPHABET) for _ in range(ref_len))
                    yield cand, ref


def test_criterion_1_rouge_matches_brute_force_oracles():
    started = time.monotonic()
    checked = 0
    for cand_tokens, ref_tokens in _oracle_pairs():
        split = checked % 10 == 0
        cand = _doc_from_tokens(cand_tokens, split=split)
        ref = _doc_from_tokens(ref_tokens, split=split)
        for n in (1, 2):
            cand_total = max(len(cand_tokens) - n + 1, 0)
            ref_total = max(len(ref_tokens) - n + 1, 0)
            if cand_total == 0 and ref_total == 0:
                continue
            expected = precision_recall_f1(
                clipped_match_count(cand_tokens, ref_tokens, n), cand_total, ref_total
            )
            got = rouge_n(cand, ref, n)
            assert (got.precision, got.recall, got.f1) == expected
        expected_l = precision_recall_f1(
            lcs_full_table(cand_tokens, ref_tokens), len(cand_tokens), len(ref_tokens)
        )
        got_l = rouge_l(cand, ref)
        assert (got_l.precision, got_l.recall, got_l.f1) == expected_l
        checked += 1
    elapsed = time.monotonic() - started
    assert 5_000 <= checked <= 8_000
    assert elapsed < 10.0
    _report(1, f"rouge-1/2/L equal brute-force oracles on {checked} pairs in {elapsed:.1f}s")


def test_criterion_2_repeat_rate_anchors_and_monotonicity():
    assert repeat_rate(make_document(["a b c"])) == 0.0
    assert repeat_rate(make_document(["q w e r t"])) == 0.0
    for copies in (2, 3, 5):
        assert repeat_rate(make_document(["a b c"] * copies)) == 100.0
    assert repeat_rate(make_document(["a b", "b c"])) == 50.0

    vocabulary = [f"w{i}" for i in range(8)]
    rng = random.Random(2024)
    for _ in range(1_000):
        sentences = [
            " ".join(rng.choice(vocabulary) for _ in range(rng.randint(1, 5)))
            for _ in range(rng.randint(1, 5))
        ]
        doc = make_document(sentences)
        extended = make_document(sentences + [rng.choice(sentences)])
        assert repeat_rate(extended) >= repeat_rate(doc) - 1e-12
        assert repetition_count(extended) >= repetition_count(doc)
    _report(2, "anchors exact; appending a duplicate never lowered the rate over 1000 summaries")


def test_criterion_3_repeat_noise_round_trips_through_overlap_denoise():
    corpus = synth_corpus(1_000, seed=101)
    recovered = 0
    for i, record in enumerate(corpus):
        clean = record.summary_doc()
        for x in clean.sentences:
            for y in clean.sentences:
                if x is not y:
                    assert unigram_overlap(x, y) <= 0.8
        rng = random.Random(3_000 + i)
        k = sample_noise_count(NOISE_PROBS, rng)
        noisy, _ = apply_repeat(clean, k, rng)
        result = overlap_denoise(noisy, threshold=0.8)
        if result.output.raw_sentences() == clean.raw_sentences():
            recovered += 1
    assert recovered == 1_000
    _report(3, "overlap denoising recovered all 1000 repeat-noised summaries exactly")


def _noise_cli(tmp_path, capsys, corpus, *flags: str):
    """Noise ``corpus`` at the 15/85 split with the ``noise`` subcommand; read the records back."""
    source, out = tmp_path / "clean.jsonl", tmp_path / "noised.jsonl"
    write_records(corpus, source)
    assert cli_main(["noise", "-i", str(source), "-o", str(out), "--dist", "0.15,0.85", *flags]) == 0
    assert capsys.readouterr().err.endswith(", skipped 0\n")
    return list(read_corpus(out))


def test_criterion_4_noise_distribution_fidelity_and_variant_count(tmp_path, capsys):
    corpus = synth_corpus(3_334, seed=404)
    records = _noise_cli(tmp_path, capsys, corpus, "--type", "repeat", "--seed", "404")
    assert len(records) == 3 * len(corpus)
    variants_per_source: dict[str, set[int]] = {}
    for record in records:
        variants_per_source.setdefault(record.provenance["source_id"], set()).add(
            record.provenance["variant_index"]
        )
    assert len(variants_per_source) == len(corpus)
    assert all(variants == {0, 1, 2} for variants in variants_per_source.values())
    zero_fraction = sum(1 for r in records if not r.provenance["noised_indices"]) / len(records)
    assert 0.13 <= zero_fraction <= 0.17
    _report(
        4,
        f"{len(records)} records, 3 variants each, zero-noise fraction {zero_fraction:.3f} in [0.13, 0.17]",
    )


def test_criterion_5_every_noise_type_injects_redundancy(tmp_path, capsys):
    corpus = synth_corpus(500, seed=505)
    clean_mean = sum(repeat_rate(r.summary_doc()) for r in corpus) / len(corpus)
    noised_means = {}
    for noise_type in ("repeat", "replace", "extra"):
        records = _noise_cli(tmp_path, capsys, corpus, "--type", noise_type, "--seed", "55", "--variants", "1")
        assert len(records) == 500
        noisy = [r.working_doc() for r in records]
        noised_means[noise_type] = sum(repeat_rate(doc) for doc in noisy) / len(noisy)
        assert noised_means[noise_type] > clean_mean
        if noise_type == "repeat":
            mean_repetitions = sum(repetition_count(doc) for doc in noisy) / len(noisy)
            assert mean_repetitions >= 0.8
    summary = ", ".join(f"{t}={m:.1f}" for t, m in noised_means.items())
    _report(5, f"mean repeat rate clean={clean_mean:.1f} vs noised {summary}")


def test_criterion_6_overlap_denoise_is_monotone_and_idempotent_on_noised_data(tmp_path, capsys):
    records = _noise_cli(tmp_path, capsys, synth_corpus(334, seed=606), "--type", "mixture", "--seed", "66")
    assert len(records) >= 1_000
    for record in records:
        noisy = record.working_doc()
        first = overlap_denoise(noisy)
        assert repeat_rate(first.output) <= repeat_rate(noisy) + 1e-9
        assert repetition_count(first.output) <= repetition_count(noisy)
        second = overlap_denoise(first.output)
        assert second.deleted_indices == ()
        assert second.output.raw_sentences() == first.output.raw_sentences()
    _report(6, f"denoising {len(records)} noised summaries never raised either metric; idempotent")


def test_criterion_7_mixture_keeps_dataset_size_with_uniform_types(tmp_path, capsys):
    corpus = synth_corpus(3_334, seed=707)
    records = _noise_cli(tmp_path, capsys, corpus, "--type", "mixture", "--seed", "77")
    assert len(records) == 3 * len(corpus)
    frequencies = {
        noise_type: sum(1 for r in records if r.provenance["noise_type"] == noise_type) / len(records)
        for noise_type in ("repeat", "replace", "extra")
    }
    for noise_type, frequency in frequencies.items():
        assert 0.30 <= frequency <= 0.37, f"{noise_type} frequency {frequency}"
    summary = ", ".join(f"{t}={f:.3f}" for t, f in frequencies.items())
    _report(7, f"{len(records)} mixture records; type frequencies {summary} all in [0.30, 0.37]")


def test_criterion_8_cli_subcommands_are_byte_deterministic(tmp_path, fixture_corpus, capsys):
    fixture = str(fixture_corpus)

    def run(args: list[str]) -> None:
        assert cli_main(args) == 0

    def twice(name: str, args_for) -> None:
        outputs = []
        for attempt in ("one", "two"):
            out = tmp_path / f"{name}.{attempt}"
            run(args_for(str(out)))
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"{name} differed between runs"

    twice("noise", lambda out: [
        "noise", "-i", fixture, "-o", out, "--type", "mixture", "--seed", "21",
    ])
    noised = tmp_path / "noise.one"

    lines = fixture_corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    shards = []
    for name, part in (("first", lines[:25]), ("second", lines[25:])):
        shard, out = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.noised"
        shard.write_text("".join(part), encoding="utf-8")
        run(["noise", "-i", str(shard), "-o", str(out), "--type", "mixture", "--seed", "21"])
        shards.append(out.read_bytes())
    assert b"".join(shards) == noised.read_bytes(), "sharding the input changed noise output"

    twice("denoise", lambda out: [
        "denoise", "-i", str(noised), "-o", out, "--method", "overlap",
    ])
    denoised = tmp_path / "denoise.one"

    twice("eval", lambda out: [
        "eval", "-b", str(noised), "-a", str(denoised), "-r", fixture, "-o", out,
    ])
    twice("analyze", lambda out: [
        "analyze", "-b", str(noised), "-a", str(denoised), "-o", out,
    ])
    twice("stats", lambda out: ["stats", "-i", str(noised), "-o", out])

    capsys.readouterr()
    _report(8, "noise/denoise/eval/analyze/stats byte-identical across reruns; noise shards concatenate to the whole")


CNNDM_PATH = os.environ.get("SUMNOISE_CNNDM_JSONL", "")


@pytest.mark.skipif(not CNNDM_PATH, reason="set SUMNOISE_CNNDM_JSONL to a converted corpus to enable")
def test_criterion_9_optional_cnn_dailymail_soft_check():
    total_sentences = 0
    total_tokens = 0
    total_repeat = 0.0
    records = 0
    for record in read_corpus(Path(CNNDM_PATH)):
        doc = record.summary_doc()
        sentences, tokens = summary_stats(doc)
        total_sentences += sentences
        total_tokens += tokens
        total_repeat += repeat_rate(doc)
        records += 1
    assert records > 0
    mean_sentences = total_sentences / records
    mean_tokens = total_tokens / records
    mean_repeat = total_repeat / records
    assert abs(mean_sentences - 3.88) <= 0.15
    assert abs(mean_tokens - 61.21) <= 5.0
    assert abs(mean_repeat - 28.86) <= 4.0
    _report(
        9,
        f"ground-truth stats over {records} records: "
        f"sents={mean_sentences:.2f}, toks={mean_tokens:.2f}, repeat={mean_repeat:.2f}",
    )
