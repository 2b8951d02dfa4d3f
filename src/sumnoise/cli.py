"""Command-line surface: noise, denoise, eval, analyze, stats.

Every subcommand is deterministic: noise derives record-level seeds from
--seed and the record ids, and all serialization uses a fixed field order.
An -o file appears only when its run succeeds, and never replaces one of the
run's inputs. Exit codes: 0 on success, 1 on a processing error (with a
diagnostic on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import stat
import sys
from typing import IO, Iterable, Iterator, Sequence

from .analysis import DEFAULT_MATCH_THRESHOLD, MetricAccumulator, aggregate_operations, aligned_pairs, eval_report
from .corpus import CorpusRecord, read_corpus, record_to_line
from .denoise import command_argv, external_denoise, overlap_denoise
from .errors import AlignmentError, EmptyCorpusError, InvalidCommandError, InvalidDistributionError, SumnoiseError
from .metrics import DEFAULT_OVERLAP_THRESHOLD
from .metrics import repeat_rate, repetition_count  # noqa: F401  (perfbench/spans.py wraps them here)
from .noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    Alignment,
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    identity_paraphrase,
    make_noisy_record,
)
from .text import SummaryDoc, has_tokens, tokenize

_VARIANT_SUFFIX = re.compile(r"\.v\d+$")


class UsageError(Exception):
    """A command line that parses but cannot be run as given; exits 2."""


def _unit_interval(text: str) -> float:
    """argparse type of every threshold flag: a float in [0, 1], NaN refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 <= value <= 1.0:  # false for NaN too
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text!r}")
    return value


def _at_least_one(text: str) -> int:
    """argparse type of --variants: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text!r}")
    return value


def _distribution(text: str) -> NoiseDistribution:
    """argparse type of --dist: comma-separated probabilities, checked by NoiseDistribution."""
    try:
        return NoiseDistribution.parse(text)
    except InvalidDistributionError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


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
        type=_distribution,
        default=",".join(map(str, DEFAULT_NOISE_PROBS)),
        help="comma-separated probabilities of corrupting 0,1,... sentences",
    )
    noise.add_argument("--seed", type=int, default=0)
    noise.add_argument("--variants", type=_at_least_one, default=DEFAULT_VARIANTS)
    noise.add_argument(
        "--paraphraser", default="identity", choices=["identity", "drop-token"]
    )
    noise.set_defaults(func=cmd_noise)

    denoise = sub.add_parser("denoise", help="remove redundant sentences")
    denoise.add_argument("-i", "--input", required=True)
    denoise.add_argument("-o", "--output", required=True)
    denoise.add_argument("--method", default="overlap", choices=["overlap", "external"])
    denoise.add_argument("--threshold", type=_unit_interval, default=DEFAULT_OVERLAP_THRESHOLD)
    denoise.add_argument(
        "--command", help="external denoiser command (required with --method external)"
    )
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
    evaluate.add_argument("--threshold", type=_unit_interval, default=DEFAULT_OVERLAP_THRESHOLD)
    evaluate.set_defaults(func=cmd_eval)

    analyze = sub.add_parser("analyze", help="classify denoising edit operations")
    analyze.add_argument("-b", "--before", required=True)
    analyze.add_argument("-a", "--after", required=True)
    analyze.add_argument("-o", "--output", help="write the distribution as JSON here")
    analyze.add_argument("--tau-match", type=_unit_interval, default=DEFAULT_MATCH_THRESHOLD)
    analyze.set_defaults(func=cmd_analyze)

    stats = sub.add_parser("stats", help="redundancy and length statistics")
    stats.add_argument("-i", "--input", required=True)
    stats.add_argument("-o", "--output", help="write the statistics as JSON here")
    stats.add_argument("--threshold", type=_unit_interval, default=DEFAULT_OVERLAP_THRESHOLD)
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
    except UsageError as error:
        print(f"sumnoise: error: {error}", file=sys.stderr)
        return 2
    except (SumnoiseError, OSError) as error:
        print(f"sumnoise: error: {error}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


@contextlib.contextmanager
def _output(args: argparse.Namespace) -> Iterator[IO[str]]:
    """Open ``args.output`` for writing; the file appears only if the block completes.

    Writes go to a temporary file beside the target, which replaces the
    target on success and is removed on failure. An output naming one of the
    run's inputs is refused before anything is written. Pipes and devices
    such as /dev/stdout cannot be replaced, so they are written directly.
    """
    path = args.output
    for flag in ("input", "before", "after", "references"):
        source = getattr(args, flag, None)
        if source and _same_file(path, source):
            raise UsageError(f"output {path!r} is the --{flag} file; refusing to overwrite it")
    try:
        mode = os.stat(path).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(path, "w", encoding="utf-8") as handle:
            yield handle
        return
    target = os.path.realpath(path)  # through symlinks, as open() writes
    directory, name = os.path.split(target)
    temp = os.path.join(directory, f".{name}.{os.urandom(4).hex()}.tmp")
    # 0o666 less the umask: the mode a plain open() gives a new file. An
    # existing target keeps its own mode, as it would under open(); the umask
    # masks os.open's mode, so that takes an fchmod.
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as handle:
            if mode is not None:
                os.fchmod(fd, stat.S_IMODE(mode))
            yield handle
        os.replace(temp, target)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(temp)


def _same_file(a: str, b: str) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # either side missing: nothing to clobber
        return False


def _write_json(args: argparse.Namespace, payload: dict) -> None:
    with _output(args) as handle:
        json.dump(payload, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


# --- noise ---------------------------------------------------------------


def cmd_noise(args: argparse.Namespace) -> int:
    noise_type = NoiseType(args.type)
    paraphraser = (
        DropTokenParaphraser(args.seed) if args.paraphraser == "drop-token" else identity_paraphrase
    )
    produced = 0
    skipped = 0
    with _output(args) as out:
        for record in read_corpus(args.input):
            try:
                if noise_type is NoiseType.REPEAT:
                    # Repeat never reads the article, but a record whose article
                    # has a sentence without tokens is skipped on every type.
                    article = None
                    for raw in record.article:
                        if not has_tokens(raw):
                            tokenize(raw)  # raises the error article_doc() would
                else:
                    article = record.article_doc()
                clean = record.summary_doc()
            except SumnoiseError as error:
                print(f"sumnoise: skipped record {record.id!r}: {error}", file=sys.stderr)
                skipped += 1
                continue
            alignment = None if article is None else Alignment(clean, article)
            for variant in range(args.variants):
                try:
                    noisy = make_noisy_record(
                        article, clean, noise_type, args.dist, args.seed, variant, paraphraser, alignment
                    )
                except SumnoiseError as error:
                    print(
                        f"sumnoise: skipped record {record.id!r} variant {variant}: {error}",
                        file=sys.stderr,
                    )
                    skipped += 1
                    continue
                line = record_to_line(CorpusRecord(
                    f"{record.id}.v{variant}",
                    record.article,
                    record.summary,
                    noisy=noisy.noisy.raw_sentences(),
                    provenance={
                        "source_id": noisy.source_id,
                        "noise_type": noisy.noise_type.value,
                        "noised_indices": list(noisy.noised_indices),
                        "variant_index": noisy.variant_index,
                        "seed": noisy.seed,
                    },
                ))
                out.write(line + "\n")
                produced += 1
    print(f"sumnoise: wrote {produced} records, skipped {skipped}", file=sys.stderr)
    return 0


# --- denoise -------------------------------------------------------------


def cmd_denoise(args: argparse.Namespace) -> int:
    if args.method == "external":
        if args.command is None:
            raise UsageError("--method external requires --command")
        try:
            argv = command_argv(args.command)
        except InvalidCommandError as error:
            raise UsageError(f"--command: {error}") from None
    elif args.command is not None:
        raise UsageError("--command requires --method external")
    records = read_corpus(args.input)
    with _output(args) as out:
        if args.method == "overlap":
            for record in records:
                result = overlap_denoise(record.working_doc(), args.threshold)
                out.write(_denoised_line(record, result.output, {
                    "method": "overlap",
                    "threshold": args.threshold,
                    "deleted_indices": list(result.deleted_indices),
                }) + "\n")
            return 0
        # The adapter's feeder thread reads the corpus; each record waits
        # here until the command's line for it comes back.
        from queue import SimpleQueue  # only this path needs it; see external_denoise

        pending: SimpleQueue[CorpusRecord] = SimpleQueue()

        def docs() -> Iterator[SummaryDoc]:
            for record in records:
                pending.put(record)
                yield record.working_doc()

        for doc in external_denoise(docs(), argv):
            out.write(_denoised_line(pending.get(), doc, {"method": "external"}) + "\n")
    return 0


def _denoised_line(record: CorpusRecord, doc: SummaryDoc, details: dict) -> str:
    record.noisy = doc.raw_sentences()
    record.provenance = {**(record.provenance or {}), "denoise": details}
    return record_to_line(record)


# --- eval ----------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    before = (record.working_doc() for record in read_corpus(args.before))
    after = (record.working_doc() for record in read_corpus(args.after))
    references = None
    if args.references:
        reference_docs = {
            record.id: record.summary_doc() for record in read_corpus(args.references)
        }
        # The two copies advance in lockstep inside eval_report, so tee
        # buffers at most one document.
        before, before_ids = itertools.tee(before)
        references = _resolve_references(before_ids, reference_docs)
    report = eval_report(before, after, references, repetition_threshold=args.threshold)
    if args.output:
        _write_json(args, report.to_dict())
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
        yield SummaryDoc(doc.sentences, source_id=source.source_id)


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
        _write_json(args, payload)
    for kind, fraction in payload["fractions"].items():
        print(f"{kind}\t{payload['counts'][kind]}\t{fraction:.4f}")
    return 0


# --- stats ---------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    accumulator = MetricAccumulator(args.threshold)
    for record in read_corpus(args.input):
        accumulator.add(record.working_doc())
    if accumulator.records == 0:
        raise EmptyCorpusError(f"no records in {args.input}")
    row = accumulator.row("stats")
    payload = {
        "records": row.records,
        "mean_sentences": row.mean_sentences,
        "mean_tokens": row.mean_tokens,
        "repeat_rate": row.repeat_rate,
        "repetitions_total": row.repetition_total,
        "repetition_threshold": args.threshold,
    }
    if args.output:
        _write_json(args, payload)
    for key, value in payload.items():
        print(f"{key}\t{value}")
    return 0


if __name__ == "__main__":
    main()
