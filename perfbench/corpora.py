"""Seeded corpus generators for the benchmark workloads.

These are written independently of ``sumnoise.synth`` so that no edit under
``src/`` can change what a workload feeds the program. Both shapes guarantee
what the benchmark's output checks rely on:

* no pair of clean-summary sentences has a directional unigram overlap above
  ``MAX_CLEAN_OVERLAP`` (the overlap denoiser's default rule is "> 0.8"), so
  overlap denoising leaves a clean summary intact and removes an exact repeat;
* every article has at least two more sentences than its summary, so
  ``extra`` noise (one inserted sentence at most, with the default noise
  distribution) always finds an unaligned article sentence;
* sentences are non-empty, have no edge whitespace and never contain the
  external-denoiser separator ``<S>``, so ``cat`` round-trips them.
"""

from __future__ import annotations

import itertools
import json
import random

MAX_CLEAN_OVERLAP = 0.8

_SHARED_WORDS = ("the", "on", "in", "with", "said")
_ONSETS = ("b", "br", "c", "ch", "d", "f", "g", "gr", "h", "j", "k", "l", "m",
           "n", "p", "pr", "r", "s", "st", "t", "tr", "v", "w", "z")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_CODAS = ("", "n", "r", "s", "t", "l", "nd", "st")


def _overlap(a: list[str], b: list[str]) -> float:
    """Share of ``a``'s distinct tokens that also occur in ``b``."""
    types_a = set(a)
    return len(types_a & set(b)) / len(types_a)


def _too_close(candidate: list[str], others: list[list[str]]) -> bool:
    return any(
        _overlap(candidate, other) > MAX_CLEAN_OVERLAP
        or _overlap(other, candidate) > MAX_CLEAN_OVERLAP
        for other in others
    )


def synth_record(index: int, rng: random.Random) -> dict:
    """One record of the ROADMAP synth shape: record-unique tokens, short sentences.

    2-5 summary sentences of five tokens (four record-unique plus one shared
    word); the article has one expansion of each summary sentence plus 2-4
    filler sentences, shuffled, so 4-9 sentences in all.
    """
    count = rng.randint(2, 5)
    summary = []
    for i in range(count):
        tokens = [f"q{index}k{i}u{j}" for j in range(4)]
        tokens.insert(rng.randrange(5), rng.choice(_SHARED_WORDS))
        summary.append(tokens)
    article = []
    for i, tokens in enumerate(summary):
        borrowed = [t for t in summary[(i + 1) % count] if t not in _SHARED_WORDS][:2]
        article.append(tokens + [f"p{index}k{i}f{j}" for j in range(3)] + borrowed)
    for extra in range(rng.randint(2, 4)):
        target = [t for t in summary[rng.randrange(count)] if t not in _SHARED_WORDS]
        words = [f"p{index}e{extra}f{j}" for j in range(5)] + target[:2]
        words.append(rng.choice(_SHARED_WORDS))
        article.append(words)
    rng.shuffle(article)
    return _record(f"m{index:06d}", article, summary)


class NewsShape:
    """CNN/DailyMail proportions over a shared Zipfian vocabulary.

    20-35 article sentences of 12-30 tokens; 3-4 summary sentences of 10-15
    tokens, each a span of a distinct article sentence with about one token
    in ten swapped for another vocabulary word.
    """

    VOCABULARY = 6000
    ZIPF_EXPONENT = 1.05

    def __init__(self, rng: random.Random):
        words: list[str] = []
        seen: set[str] = set()
        while len(words) < self.VOCABULARY:
            word = "".join(
                rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS)
                for _ in range(rng.choice((1, 2, 2, 3)))
            )
            if word not in seen:
                seen.add(word)
                words.append(word)
        # Frequent words are short, as in natural text.
        words.sort(key=len)
        self.words = words
        self.cum_weights = list(
            itertools.accumulate(
                1.0 / rank ** self.ZIPF_EXPONENT for rank in range(1, self.VOCABULARY + 1)
            )
        )

    def _sentence(self, rng: random.Random, length: int) -> list[str]:
        return rng.choices(self.words, cum_weights=self.cum_weights, k=length)

    def record(self, index: int, rng: random.Random) -> dict:
        article = [self._sentence(rng, rng.randint(12, 30)) for _ in range(rng.randint(20, 35))]
        count = rng.randint(3, 4)
        summary: list[list[str]] = []
        sources = rng.sample(range(min(len(article), 12)), count)
        for source in sources:
            while True:
                sentence = article[source]
                length = min(len(sentence), rng.randint(10, 15))
                start = rng.randrange(len(sentence) - length + 1)
                span = list(sentence[start:start + length])
                for position in range(len(span)):
                    if rng.random() < 0.1:
                        span[position] = rng.choice(self.words)
                if not _too_close(span, summary):
                    break
            summary.append(span)
        return _record(f"n{index:06d}", article, summary)


def _record(record_id: str, article: list[list[str]], summary: list[list[str]]) -> dict:
    return {
        "id": record_id,
        "article": [_surface(tokens) for tokens in article],
        "summary": [_surface(tokens) for tokens in summary],
    }


def _surface(tokens: list[str]) -> str:
    text = " ".join(tokens)
    return text[0].upper() + text[1:] + "."


def write_corpus(path: str, shape: str, records: int, seed: int) -> None:
    """Write ``records`` records of ``shape`` ("synth" or "news") generated from ``seed``."""
    rng = random.Random(seed)
    if shape == "synth":
        make = synth_record
    elif shape == "news":
        make = NewsShape(rng).record
    else:
        raise ValueError(f"unknown corpus shape {shape!r}")
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(records):
            record = make(index, rng)
            handle.write(json.dumps(record, ensure_ascii=False, separators=(",", ":")) + "\n")
