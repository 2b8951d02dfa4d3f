"""Command-line surface: noise, denoise, eval, analyze, stats.

Every subcommand is deterministic for a fixed --seed: record-level seeds are
derived from the run seed and record ids, worker pools preserve input order,
and all serialization uses a fixed field order. Exit codes: 0 on success,
1 on a processing error (with a diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import re
import sys
from dataclasses import dataclass, replace
from multiprocessing import Pool
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .analysis import DEFAULT_MATCH_THRESHOLD, aggregate_operations, aligned_pairs, eval_report
from .corpus import CorpusRecord, read_corpus, record_to_line
from .denoise import external_denoise, overlap_denoise
from .errors import AlignmentError, EmptyCorpusError, SumnoiseError
from .metrics import DEFAULT_OVERLAP_THRESHOLD, repeat_rate, repetition_count, summary_stats
from .noising import (
    DEFAULT_VARIANTS,
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    Paraphraser,
    identity_paraphrase,
    make_noisy_record,
)
from .text import SummaryDoc

T = TypeVar("T")
U = TypeVar("U")

_VARIANT_SUFFIX = re.compile(r"\.v\d+$")


@dataclass(frozen=True)
class RunConfig:
    """Validated settings for a noise run."""

    noise_type: NoiseType
    probs: tuple[float, ...]
    seed: int
    variants: int
    paraphraser: str

    def __post_init__(self) -> None:
        NoiseDistribution(self.probs)  # validates
        if self.variants < 1:
            raise SumnoiseError(f"variants must be at least 1, got {self.variants}")
        if self.paraphraser not in ("identity", "drop-token"):
            raise SumnoiseError(f"unknown paraphraser {self.paraphraser!r}")

    def build_paraphraser(self) -> Paraphraser:
        if self.paraphraser == "drop-token":
            return DropTokenParaphraser(self.seed)
        return identity_paraphrase


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumnoise",
        description=(
            "Inject redundancy noise into summaries, denoise them, and "
            "measure the damage."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    noise = sub.add_parser("noise", help="generate noisy variants of clean summaries")
    noise.add_argument("-i", "--input", required=True, help="input corpus (JSONL)")
    noise.add_argument("-o", "--output", required=True, help="output corpus (JSONL)")
    noise.add_argument(
        "--type", default="mixture", choices=[t.value for t in NoiseType]
    )
    noise.add_argument(
        "--dist",
        default="0.15,0.85",
        help="comma-separated probabilities of corrupting 0,1,... sentences",
    )
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--variants", type=int, default=DEFAULT_VARIANTS)
    noise.add_argument(
        "--paraphraser", default="identity", choices=["identity", "drop-token"]
    )
    noise.add_argument("--workers", type=int, default=1)
    noise.add_argument("--raw-text", action="store_true", help="split string fields into sentences")
    noise.set_defaults(func=cmd_noise)

    denoise = sub.add_parser("denoise", help="remove redundant sentences")
    denoise.add_argument("-i", "--input", required=True)
    denoise.add_argument("-o", "--output", required=True)
    denoise.add_argument("--method", default="overlap", choices=["overlap", "external"])
    denoise.add_argument("--threshold", type=float, default=DEFAULT_OVERLAP_THRESHOLD)
    denoise.add_argument(
        "--command", help="external denoiser command (required with --method external)"
    )
    denoise.add_argument("--seed", type=int, default=0)
    denoise.add_argument("--workers", type=int, default=1)
    denoise.add_argument("--raw-text", action="store_true")
    denoise.set_defaults(func=cmd_denoise)

    evaluate = sub.add_parser("eval", help="metric table for before/after corpora")
    evaluate.add_argument("-b", "--before", required=True)
    evaluate.add_argument("-a", "--after", required=True)
    evaluate.add_argument(
        "-r",
        "--references",
        help="corpus whose summaries serve as ROUGE references (matched by id, "
        "variant suffixes like .v0 are ignored)",
    )
    evaluate.add_argument("-o", "--output", help="write the report as JSON here")
    evaluate.add_argument("--threshold", type=float, default=DEFAULT_OVERLAP_THRESHOLD)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.set_defaults(func=cmd_eval)

    analyze = sub.add_parser("analyze", help="classify denoising edit operations")
    analyze.add_argument("-b", "--before", required=True)
    analyze.add_argument("-a", "--after", required=True)
    analyze.add_argument("-o", "--output", help="write the distribution as JSON here")
    analyze.add_argument("--tau-match", type=float, default=DEFAULT_MATCH_THRESHOLD)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(func=cmd_analyze)

    stats = sub.add_parser("stats", help="redundancy and length statistics")
    stats.add_argument("-i", "--input", required=True)
    stats.add_argument("-o", "--output", help="write the statistics as JSON here")
    stats.add_argument("--threshold", type=float, default=DEFAULT_OVERLAP_THRESHOLD)
    stats.add_argument("--seed", type=int, default=0)
    stats.add_argument("--raw-text", action="store_true")
    stats.set_defaults(func=cmd_stats)

    return parser


def cli_main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_request:  # argparse handles usage errors and --help
        return int(exit_request.code or 0)
    try:
        return args.func(args)
    except SumnoiseError as error:
        print(f"sumnoise: error: {error}", file=sys.stderr)
        return 1
    except OSError as error:
        print(f"sumnoise: error: {error}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


# --- noise ---------------------------------------------------------------


def cmd_noise(args: argparse.Namespace) -> int:
    config = RunConfig(
        noise_type=NoiseType(args.type),
        probs=NoiseDistribution.parse(args.dist).probs,
        seed=args.seed,
        variants=args.variants,
        paraphraser=args.paraphraser,
    )
    records = read_corpus(args.input, raw_text=args.raw_text)
    worker = functools.partial(_noise_record_lines, config)
    produced = 0
    skipped = 0
    with open(args.output, "w", encoding="utf-8") as out:
        for lines, skips in _map_ordered(worker, records, args.workers):
            for line in lines:
                out.write(line + "\n")
            produced += len(lines)
            for message in skips:
                print(f"sumnoise: {message}", file=sys.stderr)
            skipped += len(skips)
    print(f"sumnoise: wrote {produced} records, skipped {skipped}", file=sys.stderr)
    return 0


def _noise_record_lines(
    config: RunConfig, record: CorpusRecord
) -> tuple[list[str], list[str]]:
    """Noise one input record into its serialized variants (worker-safe)."""
    dist = NoiseDistribution(config.probs)
    paraphraser = config.build_paraphraser()
    try:
        article = record.article_doc()
        clean = record.summary_doc()
    except SumnoiseError as error:
        return [], [f"skipped record {record.id!r}: {error}"]
    lines: list[str] = []
    skips: list[str] = []
    for variant in range(config.variants):
        try:
            noisy = make_noisy_record(
                article, clean, config.noise_type, dist, config.seed, variant, paraphraser
            )
        except SumnoiseError as error:
            skips.append(f"skipped record {record.id!r} variant {variant}: {error}")
            continue
        out = CorpusRecord(
            id=f"{record.id}.v{variant}",
            article=list(record.article),
            summary=list(record.summary),
            noisy=[sent.raw for sent in noisy.noisy.sentences],
            provenance={
                "source_id": noisy.source_id,
                "noise_type": noisy.noise_type.value,
                "noised_indices": list(noisy.noised_indices),
                "variant_index": noisy.variant_index,
                "seed": noisy.seed,
            },
        )
        lines.append(record_to_line(out))
    return lines, skips


def _map_ordered(
    fn: Callable[[T], U], items: Iterable[T], workers: int
) -> Iterator[U]:
    """Map over items, optionally on a process pool, preserving input order."""
    if workers <= 1:
        yield from map(fn, items)
        return
    with Pool(processes=workers) as pool:
        yield from pool.imap(fn, items, chunksize=16)


# --- denoise -------------------------------------------------------------


def cmd_denoise(args: argparse.Namespace) -> int:
    if args.method == "overlap":
        worker = functools.partial(_overlap_denoise_line, args.threshold)
        records = read_corpus(args.input, raw_text=args.raw_text)
        with open(args.output, "w", encoding="utf-8") as out:
            for line in _map_ordered(worker, records, args.workers):
                out.write(line + "\n")
        return 0
    if not args.command:
        print("sumnoise: error: --method external requires --command", file=sys.stderr)
        return 2
    docs = (record.working_doc() for record in read_corpus(args.input, raw_text=args.raw_text))
    cleaned = external_denoise(docs, args.command)
    with open(args.output, "w", encoding="utf-8") as out:
        # strict: the adapter's trailing checks (extra output, exit status)
        # run only when it is iterated to exhaustion.
        records = read_corpus(args.input, raw_text=args.raw_text)
        for record, doc in zip(records, cleaned, strict=True):
            record.noisy = [sent.raw for sent in doc.sentences]
            provenance = dict(record.provenance or {})
            provenance["denoise"] = {"method": "external"}
            record.provenance = provenance
            out.write(record_to_line(record) + "\n")
    return 0


def _overlap_denoise_line(threshold: float, record: CorpusRecord) -> str:
    result = overlap_denoise(record.working_doc(), threshold)
    record.noisy = [sent.raw for sent in result.output.sentences]
    provenance = dict(record.provenance or {})
    provenance["denoise"] = {
        "method": "overlap",
        "threshold": threshold,
        "deleted_indices": list(result.deleted_indices),
    }
    record.provenance = provenance
    return record_to_line(record)


# --- eval ----------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    before = (record.working_doc() for record in read_corpus(args.before))
    after = (record.working_doc() for record in read_corpus(args.after))
    references = None
    if args.references:
        reference_docs = {
            record.id: record.working_doc() for record in read_corpus(args.references)
        }
        # The two copies advance in lockstep inside eval_report, so tee
        # buffers at most one document.
        before, before_ids = itertools.tee(before)
        references = _resolve_references(before_ids, reference_docs)
    report = eval_report(before, after, references, repetition_threshold=args.threshold)
    if args.output:
        _write_json(args.output, report.to_dict())
    print(report.to_tsv())
    return 0


def _resolve_references(
    docs: Iterable[SummaryDoc], reference_docs: dict[str, SummaryDoc]
) -> Iterator[SummaryDoc]:
    """Pair each document with its reference; noise variant suffixes fall back to the base id."""
    for source in docs:
        doc = reference_docs.get(source.source_id)
        if doc is None:
            doc = reference_docs.get(_VARIANT_SUFFIX.sub("", source.source_id))
        if doc is None:
            raise AlignmentError(f"no reference for record {source.source_id!r}")
        yield replace(doc, source_id=source.source_id)


# --- analyze -------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    before = (record.working_doc() for record in read_corpus(args.before))
    after = (record.working_doc() for record in read_corpus(args.after))
    distribution = aggregate_operations(
        aligned_pairs(before, after), match_threshold=args.tau_match
    )
    payload = {
        "samples": distribution.sample_count,
        "tau_match": args.tau_match,
        "counts": {kind.value: distribution.counts[kind] for kind in distribution.counts},
        "fractions": {
            kind.value: distribution.fractions[kind] for kind in distribution.fractions
        },
    }
    if args.output:
        _write_json(args.output, payload)
    for kind, fraction in payload["fractions"].items():
        print(f"{kind}\t{payload['counts'][kind]}\t{fraction:.4f}")
    return 0


# --- stats ---------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    records = 0
    total_sentences = 0
    total_tokens = 0
    total_repeat = 0.0
    total_repetitions = 0
    for record in read_corpus(args.input, raw_text=args.raw_text):
        doc = record.working_doc()
        sentences, tokens = summary_stats(doc)
        records += 1
        total_sentences += sentences
        total_tokens += tokens
        total_repeat += repeat_rate(doc)
        total_repetitions += repetition_count(doc, args.threshold)
    if records == 0:
        raise EmptyCorpusError(f"no records in {args.input}")
    payload = {
        "records": records,
        "mean_sentences": total_sentences / records,
        "mean_tokens": total_tokens / records,
        "repeat_rate": total_repeat / records,
        "repetitions_total": total_repetitions,
        "repetition_threshold": args.threshold,
    }
    if args.output:
        _write_json(args.output, payload)
    for key, value in payload.items():
        print(f"{key}\t{value}")
    return 0


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
