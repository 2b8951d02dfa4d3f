"""Command-line surface: noise, denoise, eval, analyze, stats.

Every subcommand is deterministic: noise derives record-level seeds from
--seed and the record ids, and all serialization uses a fixed field order.
An -o file appears only when its run succeeds, and never replaces one of the
run's inputs. Exit codes: 0 on success, 1 on a processing error (with a
diagnostic on stderr), 2 on usage errors, and 128 plus the signal number
when SIGINT (130) or SIGTERM (143) ends the run; the temporary file of an -o
output is removed, and an external denoiser's process group killed, first.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import signal
import stat
import sys
from typing import IO, Callable, Iterator, Sequence

from .corpus import CorpusRecord, check_tokens, read_corpus, record_to_line
from .denoise import external_denoise, overlap_denoise
from .errors import EmptyCorpusError, EmptySentenceError, InvalidDistributionError, SumnoiseError
from .metrics import DEFAULT_MATCH_THRESHOLD, DEFAULT_OVERLAP_THRESHOLD
from .metrics import repeat_rate, repetition_count  # noqa: F401  (perfbench/spans.py wraps them here)
from .noising import (
    DEFAULT_NOISE_PROBS,
    DEFAULT_VARIANTS,
    Alignment,
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    derive_seed,
    identity_paraphrase,
    make_noisy_record,
)


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
    """argparse type of --variants, and of ``sumnoise.synth``'s --records: an int of at least 1."""
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
        return NoiseDistribution(tuple(map(float, text.split(","))))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse distribution {text!r}") from None
    except InvalidDistributionError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _command(text: str) -> list[str]:
    """argparse type of --command: the argv of a shell-style command line, refused when empty."""
    import shlex  # deferred: only the external denoiser needs it

    try:
        argv = shlex.split(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(f"cannot split command {text!r}: {error}") from None
    if not argv:
        raise argparse.ArgumentTypeError(f"empty command {text!r}")
    return argv


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
    denoise.add_argument(
        "--threshold",
        type=_unit_interval,
        help=f"overlap threshold, --method overlap only (default {DEFAULT_OVERLAP_THRESHOLD})",
    )
    denoise.add_argument(
        "--command",
        type=_command,
        help="external denoiser command line, split into an argv by shell quoting rules and run "
        "without a shell (required with --method external)",
    )
    denoise.set_defaults(func=cmd_denoise)

    evaluate = sub.add_parser("eval", help="metric table for before/after corpora")
    evaluate.add_argument("-b", "--before", required=True)
    evaluate.add_argument("-a", "--after", required=True)
    evaluate.add_argument(
        "-r",
        "--references",
        help="corpus whose summaries serve as ROUGE references: a record's reference is the one "
        "under its provenance.source_id, else the one under its own id",
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
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    """``args.func(args)``, with a failure it reports printed as one error line and its exit code returned."""
    try:
        return args.func(args)
    except UsageError as error:
        print(f"sumnoise: error: {error}", file=sys.stderr)
        return 2
    except (SumnoiseError, OSError) as error:
        print(f"sumnoise: error: {error}", file=sys.stderr)
        return 1


class _Terminated(BaseException):
    """Raised in the main thread when SIGTERM arrives.

    Not an Exception, like KeyboardInterrupt for SIGINT: no ``except
    Exception`` holds it back (the external denoiser adapter holds those
    until its output is read), and every ``finally`` on the way out runs.
    """


def _terminate(signum: int, frame: object) -> None:
    raise _Terminated()


def main(entry: Callable[[], int] = cli_main) -> None:
    """Exit with ``entry()``'s code, or with 128 plus the signal number when SIGINT or SIGTERM ends it."""
    signal.signal(signal.SIGTERM, _terminate)
    try:
        code = entry()
    except (KeyboardInterrupt, _Terminated) as stop:
        signum = signal.SIGINT if isinstance(stop, KeyboardInterrupt) else signal.SIGTERM
        print(f"sumnoise: error: interrupted by {signum.name}", file=sys.stderr)
        code = 128 + signum
    sys.exit(code)


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
    try:
        fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as error:  # name the -o path, as open(path, "w") would, not a random one
        raise type(error)(error.errno, error.strerror, path) from None
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


def _report(args: argparse.Namespace, payload: dict, text: str) -> None:
    """Write ``payload`` as JSON to the -o file, when there is one, then print ``text``."""
    if args.output:
        with _output(args) as handle:
            json.dump(payload, handle, indent=2, ensure_ascii=False)
            handle.write("\n")
    print(text)


def _pairs(args: argparse.Namespace) -> Iterator[tuple[CorpusRecord, CorpusRecord]]:
    """The records of the -b and -a corpora, paired by ``aligned_pairs``."""
    # The scoring layer is imported by the subcommands that score, here and
    # below, so that noise and denoise never load it.
    from .analysis import aligned_pairs

    return aligned_pairs(read_corpus(args.before), read_corpus(args.after))


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
                    check_tokens(record.id, record.article)
                    article = None
                else:
                    article = record.article_doc()
                clean = record.summary_doc()
            except EmptySentenceError as error:  # its message names the record
                print(f"sumnoise: skipped {error}", file=sys.stderr)
                skipped += args.variants  # every variant of the record is lost
                continue
            alignment = Alignment(clean, article)
            for variant in range(args.variants):
                seed = derive_seed(args.seed, record.id, variant)
                try:
                    noisy = make_noisy_record(alignment, noise_type, args.dist, seed, paraphraser)
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
                        "source_id": record.id,
                        "noise_type": noisy.noise_type.value,
                        "noised_indices": list(noisy.noised_indices),
                        "variant_index": variant,
                        "seed": seed,
                    },
                ))
                out.write(line + "\n")
                produced += 1
        if not produced:
            raise EmptyCorpusError(f"no records written from {args.input}, skipped {skipped}")
    print(f"sumnoise: wrote {produced} records, skipped {skipped}", file=sys.stderr)
    return 0


# --- denoise -------------------------------------------------------------


def cmd_denoise(args: argparse.Namespace) -> int:
    if args.method == "external":
        if args.command is None:
            raise UsageError("--method external requires --command")
        if args.threshold is not None:
            raise UsageError("--threshold requires --method overlap")
    elif args.command is not None:
        raise UsageError("--command requires --method external")
    threshold = DEFAULT_OVERLAP_THRESHOLD if args.threshold is None else args.threshold
    records = read_corpus(args.input)
    written = 0
    with _output(args) as out:
        if args.method == "overlap":
            for record in records:
                result = overlap_denoise(record.working_doc(), threshold)
                out.write(_denoised_line(record, result.output.raw_sentences(), {
                    "method": "overlap",
                    "threshold": threshold,
                    "deleted_indices": list(result.deleted_indices),
                }) + "\n")
                written += 1
        else:
            for record, sentences in external_denoise(records, args.command):
                out.write(_denoised_line(record, sentences, {"method": "external"}) + "\n")
                written += 1
        if not written:
            raise EmptyCorpusError(f"no records in {args.input}")
    return 0


def _denoised_line(record: CorpusRecord, sentences: list[str], details: dict) -> str:
    provenance = {**(record.provenance or {}), "denoise": details}
    return record_to_line(record._replace(noisy=sentences, provenance=provenance))


# --- eval ----------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    from .analysis import eval_report

    if args.references:
        from .references import CorpusIndex

        # Indexed, and so validated, before any before/after line is read.
        references = CorpusIndex(args.references)
    else:
        references = contextlib.nullcontext()
    with references as index:
        report = eval_report(_pairs(args), index, repetition_threshold=args.threshold)
    _report(args, report.to_dict(), report.to_tsv())
    return 0


# --- analyze -------------------------------------------------------------


def cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import aggregate_operations

    distribution = aggregate_operations(_pairs(args), match_threshold=args.tau_match)
    payload = {
        "samples": distribution.sample_count,
        "tau_match": args.tau_match,
        "counts": {kind.value: distribution.counts[kind] for kind in distribution.counts},
        "fractions": {
            kind.value: distribution.fractions[kind] for kind in distribution.fractions
        },
    }
    _report(args, payload, "\n".join(
        f"{kind}\t{payload['counts'][kind]}\t{fraction:.4f}" for kind, fraction in payload["fractions"].items()
    ))
    return 0


# --- stats ---------------------------------------------------------------


def cmd_stats(args: argparse.Namespace) -> int:
    from .analysis import MetricAccumulator

    accumulator = MetricAccumulator(args.threshold)
    for record in read_corpus(args.input):
        accumulator.add(record.working_doc())
    if accumulator.records == 0:
        raise EmptyCorpusError(f"no records in {args.input}")
    row = accumulator.row("stats")
    payload = row.to_dict(("records", "mean_sentences", "mean_tokens", "repeat_rate", "repetition_total"))
    payload["repetition_threshold"] = args.threshold
    _report(args, payload, "\n".join(f"{key}\t{value}" for key, value in payload.items()))
    return 0


if __name__ == "__main__":
    main()
