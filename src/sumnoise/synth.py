"""Deterministic synthetic article/summary corpora for tests, demos, and fixtures.

Summaries are built so that no two sentences of the same summary share more
than a small fraction of their distinct tokens, which keeps them clean under
the 0.8 overlap rules. Each article contains one expanded version of every
summary sentence (its tokens plus filler plus a couple of tokens borrowed
from the next summary sentence) and a few filler sentences that also borrow
summary tokens, so replacement and insertion noise genuinely add redundancy.

Run ``python -m sumnoise.synth --records 50 --seed 13 -o corpus.jsonl`` to
write a corpus file. Errors and signals end it as they end ``sumnoise``.
"""

from __future__ import annotations

import argparse
import random
from typing import Iterator, Sequence

from .cli import _at_least_one, _output, _run, main as _cli_main
from .corpus import CorpusRecord, record_to_line

_SHARED_WORDS = ("the", "on", "in", "with", "said")
# Sentences per summary, drawn uniformly from this inclusive range.
MIN_SENTENCES = 2
MAX_SENTENCES = 5


def synth_record(index: int, rng: random.Random) -> CorpusRecord:
    """One synthetic record with record-unique content words."""
    sentence_count = rng.randint(MIN_SENTENCES, MAX_SENTENCES)
    summary_tokens: list[list[str]] = []
    for i in range(sentence_count):
        tokens = [f"s{index}x{i}w{j}" for j in range(4)]
        tokens.insert(rng.randrange(len(tokens) + 1), rng.choice(_SHARED_WORDS))
        summary_tokens.append(tokens)

    article: list[str] = []
    for i, tokens in enumerate(summary_tokens):
        neighbour = summary_tokens[(i + 1) % sentence_count]
        expansion = (
            tokens
            + [f"a{index}x{i}f{j}" for j in range(3)]
            + [t for t in neighbour if t not in _SHARED_WORDS][:2]
        )
        article.append(" ".join(expansion))
    for extra in range(rng.randint(2, 4)):
        target = summary_tokens[rng.randrange(sentence_count)]
        filler = [f"a{index}e{extra}f{j}" for j in range(5)]
        words = filler + [t for t in target if t not in _SHARED_WORDS][:2]
        words.append(rng.choice(_SHARED_WORDS))
        article.append(" ".join(words))
    rng.shuffle(article)

    return CorpusRecord(
        id=f"r{index:05d}",
        article=article,
        summary=[" ".join(tokens) for tokens in summary_tokens],
    )


def synth_corpus(records: int, seed: int = 0) -> Iterator[CorpusRecord]:
    """``records`` records from ``seed``, made one at a time as they are read."""
    rng = random.Random(seed)
    return (synth_record(i, rng) for i in range(records))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m sumnoise.synth",
        description="Write a deterministic synthetic article/summary corpus.",
    )
    parser.add_argument("--records", type=_at_least_one, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("-o", "--output", required=True)
    parser.set_defaults(func=_write)
    return _run(parser.parse_args(argv))


def _write(args: argparse.Namespace) -> int:
    with _output(args) as handle:  # a run that ends early leaves any earlier file as it was
        handle.writelines(record_to_line(record) + "\n" for record in synth_corpus(args.records, args.seed))
    return 0


if __name__ == "__main__":
    _cli_main(main)
