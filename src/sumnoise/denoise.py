"""Rule-based overlap denoising plus the adapter for external denoiser processes.

The overlap rule deletes any sentence whose unigram overlap with an earlier
retained sentence is strictly above the threshold, so the first member of
every duplicate group survives and deletions never cascade off already
deleted sentences.

External denoisers (for example trained rewriting models) plug in as a
subprocess speaking a line protocol in UTF-8: one summary per line on stdin,
sentences joined by the ``<S>`` separator token, and exactly one output line
per input line, in order.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InvalidCommandError, InvalidThresholdError, ProtocolViolationError
from .metrics import DEFAULT_OVERLAP_THRESHOLD
from .text import SummaryDoc, TokenizedSentence, cached_tokenize, has_tokens, unigram_overlap

SENTENCE_SEPARATOR = "<S>"


class DenoiseResult(NamedTuple):
    output: SummaryDoc
    deleted_indices: tuple[int, ...]


def overlap_denoise(doc: SummaryDoc, threshold: float = DEFAULT_OVERLAP_THRESHOLD) -> DenoiseResult:
    """Delete sentences that overlap an earlier retained sentence by more than ``threshold``.

    The comparison is strictly greater, so a pair at exactly the threshold is
    kept. The first sentence is never deleted, and a deleted sentence never
    justifies further deletions.
    """
    if not 0.0 <= threshold <= 1.0:
        raise InvalidThresholdError(f"threshold must be in [0, 1], got {threshold}")
    kept: list[TokenizedSentence] = []
    deleted: list[int] = []
    for i, sent in enumerate(doc.sentences):
        if any(unigram_overlap(sent, earlier) > threshold for earlier in kept):
            deleted.append(i)
        else:
            kept.append(sent)
    return DenoiseResult(SummaryDoc(tuple(kept), source_id=doc.source_id), tuple(deleted))


def command_argv(command: Sequence[str] | str) -> list[str]:
    """The argv of an external denoiser: a string is split shell-style, a sequence copied.

    Raises InvalidCommandError for a string that cannot be split and for an
    empty argv, so no process is started for either.
    """
    if isinstance(command, str):
        import shlex  # deferred, like the imports of external_denoise

        try:
            argv = shlex.split(command)
        except ValueError as error:
            raise InvalidCommandError(f"cannot split command {command!r}: {error}") from None
    else:
        argv = list(command)
    if not argv:
        raise InvalidCommandError(f"empty command {command!r}")
    return argv


def external_denoise(docs: Iterable[SummaryDoc], command: Sequence[str] | str) -> Iterator[SummaryDoc]:
    """Pipe summaries through an external line-filter command.

    Writes one UTF-8 line per document (sentences joined by
    ``SENTENCE_SEPARATOR``) to the command's stdin and yields one re-parsed
    document per output line. Sentences containing the separator are rejected
    on write. A missing, extra, unparseable or non-UTF-8 output line raises
    ProtocolViolationError naming the offending record. Writing happens on a
    feeder thread so the adapter works with filters that buffer arbitrarily.
    An error raised while iterating ``docs`` propagates as it is; only a
    failed write to the command becomes a ProtocolViolationError. An empty or
    unsplittable command raises InvalidCommandError (see ``command_argv``) on
    the first ``next``, before any process starts.
    """
    # Imported here, not at the top: only this path runs a process, and every
    # other subcommand would pay for them at start-up.
    import subprocess
    import threading
    from queue import SimpleQueue

    argv = command_argv(command)
    # Binary pipes, coded one line at a time, so that a line that is not
    # UTF-8 is reported against its own record.
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    assert proc.stdin is not None and proc.stdout is not None
    pending: SimpleQueue[tuple[int, str] | None] = SimpleQueue()
    feed_failure: list[Exception] = []

    def feed() -> None:
        index = 0
        try:
            for doc in docs:
                for sent in doc.sentences:
                    if SENTENCE_SEPARATOR in sent.raw:
                        raise ProtocolViolationError(
                            f"record {doc.source_id!r}: sentence contains "
                            f"separator token {SENTENCE_SEPARATOR!r}"
                        )
                pending.put((index, doc.source_id))
                line = f" {SENTENCE_SEPARATOR} ".join(sent.raw for sent in doc.sentences)
                try:
                    proc.stdin.write(line.encode("utf-8") + b"\n")
                    proc.stdin.flush()
                except (OSError, ValueError) as error:  # a closed pipe, or text UTF-8 cannot hold
                    raise ProtocolViolationError(
                        f"failed writing to external command: {error}"
                    ) from error
                index += 1
        except Exception as error:  # surfaced to the consumer below
            feed_failure.append(error)
        finally:
            try:
                proc.stdin.close()
            except OSError:
                pass
            pending.put(None)

    feeder = threading.Thread(target=feed, daemon=True)
    feeder.start()
    try:
        while (item := pending.get()) is not None:
            index, source_id = item
            line = proc.stdout.readline()
            if line == b"":
                feeder.join()
                if feed_failure:
                    raise feed_failure[0]
                raise ProtocolViolationError(
                    f"no output line for record {source_id!r} (input line {index})"
                )
            yield _parse_line(line, source_id)
        feeder.join()
        if feed_failure:
            raise feed_failure[0]
        extra = proc.stdout.readline()
        if extra != b"":
            raise ProtocolViolationError(
                "external command emitted more lines than it was given"
            )
        returncode = proc.wait()
        if returncode != 0:
            raise ProtocolViolationError(
                f"external command exited with status {returncode}"
            )
    finally:
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def _parse_line(raw_line: bytes, source_id: str) -> SummaryDoc:
    try:
        line = raw_line.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolViolationError(
            f"record {source_id!r}: output line is not valid UTF-8: {error}"
        ) from error
    pieces = (piece.strip() for piece in line.rstrip("\n").split(SENTENCE_SEPARATOR))
    sentences = tuple(map(cached_tokenize, filter(has_tokens, pieces)))
    if not sentences:
        raise ProtocolViolationError(
            f"record {source_id!r}: unparseable output line {line!r}"
        )
    return SummaryDoc(sentences, source_id=source_id)
