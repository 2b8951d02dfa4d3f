"""Rule-based overlap denoising plus the adapter for external denoiser processes.

The overlap rule deletes any sentence whose unigram overlap with an earlier
retained sentence is strictly above the threshold, so the first member of
every duplicate group survives and deletions never cascade off already
deleted sentences.

External denoisers (for example trained rewriting models) plug in as a
subprocess speaking a line protocol in UTF-8: one summary per line on stdin,
sentences joined by the ``<S>`` separator token, and exactly one output line
per input line, in order. The adapter runs on one thread and needs POSIX
pipes (``select.poll``).
"""

from __future__ import annotations

import os
import signal
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Sequence

from .corpus import CorpusRecord, check_tokens
from .errors import InvalidCommandError, InvalidThresholdError, ProtocolViolationError
from .metrics import DEFAULT_OVERLAP_THRESHOLD
from .text import SummaryDoc, TokenizedSentence, has_tokens, unigram_overlap

SENTENCE_SEPARATOR = "<S>"
# Bytes of protocol lines the adapter queues ahead of the command: it reads
# the next record only while less than this waits to be sent.
_BLOCK = 64 * 1024


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
    return DenoiseResult(SummaryDoc(tuple(kept)), tuple(deleted))


def external_denoise(records: Iterable[CorpusRecord], argv: Sequence[str]) -> Iterator[tuple[CorpusRecord, list[str]]]:
    """Pipe each record's ``working_sentences()`` through the external line-filter command ``argv``.

    Writes one UTF-8 line per record (sentences joined by
    ``SENTENCE_SEPARATOR``) to the command's stdin and yields each record
    with the sentences of its output line: the pieces between separators,
    stripped, that have a token. The adapter moves text only; whoever reads
    tokens builds the document. A sentence without a token raises the
    EmptySentenceError that the record's ``working_doc()`` raises, and
    sentences containing the separator or a newline are rejected, all before
    their line is queued. A missing, extra, unparseable or non-UTF-8 output
    line raises ProtocolViolationError naming the offending record.

    One thread does all the work: it queues lines until a block of bytes
    waits to be sent, and ``select.poll`` tells it when the command can take
    more input or has output ready. It never waits for a line's reply before
    sending the next, and never blocks on a write, so it works both with
    filters that answer line by line and with filters that read all their
    input first.

    The first failure in input order is the one raised. An error raised
    while iterating ``records`` or checking a record's sentences is held: no
    further record is read, stdin is closed once the lines already queued
    are sent, and the output lines still due are yielded, or raise their own
    error, before the held error is raised. A write the command refuses
    (because it exited or closed its stdin) only ends the input, so every
    record it did not answer fails as owed a line. A last output line
    without a newline is still a line. Once the command's output ends, the
    run ends: at most one more record is read, and a record still owed a
    line raises without waiting for the command to exit. ``argv`` is the
    program and its arguments, already split. An empty one, or a string (a
    sequence of characters, so ``"cat"`` would run ``c``), raises
    InvalidCommandError on the first ``next``, before any process starts.

    The command runs in its own session. A run that ends before the command
    has exited (an error, a signal, or a caller that stops iterating) kills
    the command's whole process group, so nothing it started outlives it.
    """
    # Imported here, not at the top: only this path runs a process, and every
    # other subcommand would pay for them at start-up.
    import select
    import subprocess

    if isinstance(argv, str) or not argv:
        raise InvalidCommandError(f"external command must be a non-empty argv sequence, got {argv!r}")
    # Binary pipes, decoded one line at a time, so that a line that is not
    # UTF-8 is reported against its own record; a session of its own, so
    # that an early end can kill all it started.
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0, start_new_session=True)
    assert proc.stdin is not None and proc.stdout is not None
    stdin, stdout = proc.stdin.fileno(), proc.stdout.fileno()
    os.set_blocking(stdin, False)
    poller = select.poll()
    poller.register(stdin, select.POLLOUT)
    poller.register(stdout, select.POLLIN)
    records = iter(records)
    unsent = bytearray()  # queued lines the command has not taken yet
    pending: deque[CorpusRecord] = deque()  # the records of queued lines still owed an output line
    answered = 0  # output lines matched to a record so far
    held: Exception | None = None
    pulling = reading = True
    partial = b""  # output after the last newline
    try:
        while True:
            # Queue records while output runs and less than a block waits to be sent, or none is owed a line.
            while pulling and (reading and len(unsent) < _BLOCK or not pending):
                try:
                    record = next(records)
                    unsent.extend(_protocol_line(record.id, record.working_sentences()))
                except StopIteration:
                    pulling = False
                except Exception as error:  # raised once the output still due is read
                    held, pulling = error, False
                else:
                    pending.append(record)
            if held is not None and not pending:
                raise held
            if not reading:
                break
            if not pulling and not unsent and not proc.stdin.closed:
                poller.unregister(stdin)
                proc.stdin.close()
            for fd, _ in poller.poll():
                if fd == stdin:
                    try:
                        del unsent[: os.write(stdin, unsent)]
                    except BlockingIOError:
                        pass
                    except OSError:  # the command closed its stdin: the input ends here
                        pulling = False
                        unsent.clear()
                    continue
                chunk = os.read(stdout, _BLOCK)
                if chunk:
                    lines = (partial + chunk).split(b"\n")
                    partial = lines.pop()
                    end = "\n"
                else:
                    reading = False
                    lines = [partial] if partial else []
                    end = ""
                for line in lines:
                    if not pending:
                        raise held or ProtocolViolationError("external command emitted more lines than it was given")
                    record = pending.popleft()
                    answered += 1
                    yield record, _parse_line(line, record.id, end)
        # The output has ended. A record still owed a line comes before any held error in the input.
        if pending:
            raise ProtocolViolationError(f"no output line for record {pending[0].id!r} (input line {answered + 1})")
        proc.stdin.close()
        returncode = proc.wait()
        if returncode != 0:
            raise ProtocolViolationError(f"external command exited with status {returncode}")
    finally:
        proc.stdin.close()
        proc.stdout.close()
        # Not yet reaped, so the run ended early. The group is killed first:
        # an unreaped leader keeps its group id from being reused.
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def _protocol_line(record_id: str, sentences: list[str]) -> bytes:
    """The stdin line of ``sentences``, newline included; refuses text the protocol cannot carry.

    Every sentence is checked for a token before any for the separator, so
    a record fails as its ``working_doc()`` would first.
    """
    check_tokens(record_id, sentences)
    for raw in sentences:
        if SENTENCE_SEPARATOR in raw:
            raise ProtocolViolationError(
                f"record {record_id!r}: sentence contains "
                f"separator token {SENTENCE_SEPARATOR!r}"
            )
    line = f" {SENTENCE_SEPARATOR} ".join(sentences)
    if "\n" in line:
        raise ProtocolViolationError(
            f"record {record_id!r}: sentence contains a newline, "
            "which would end its protocol line early"
        )
    try:
        return line.encode("utf-8") + b"\n"
    except UnicodeEncodeError as error:  # text UTF-8 cannot hold, such as a lone surrogate
        raise ProtocolViolationError(f"record {record_id!r}: {error}") from error


def _parse_line(raw_line: bytes, record_id: str, end: str) -> list[str]:
    """The sentences of one output line: its stripped pieces that have a token.

    ``end`` is the newline that ended the line, if any. A line without such
    a piece is unparseable.
    """
    try:
        line = raw_line.decode("utf-8")
    except UnicodeDecodeError as error:
        raise ProtocolViolationError(
            f"record {record_id!r}: output line is not valid UTF-8: {error}"
        ) from error
    sentences = list(filter(has_tokens, map(str.strip, line.split(SENTENCE_SEPARATOR))))
    if not sentences:
        raise ProtocolViolationError(
            f"record {record_id!r}: unparseable output line {line + end!r}"
        )
    return sentences
