"""Sentence tokenization and the unigram-overlap primitives.

Everything else in this package (metrics, noise, denoising, analysis) works
on the ``TokenizedSentence`` and ``SummaryDoc`` values built here, so text
normalization lives in exactly one place. It is deliberately simple and
deterministic: lowercase, split on whitespace, strip punctuation from both
ends of each unit. No stemming, no stopword removal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import EmptySentenceError

# Characters stripped from the edges of whitespace-delimited units: ASCII
# punctuation plus the common typographic quotes, dashes, and ellipsis.
_EDGE_CHARS = (
    "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
    "‘’“”–—…«»"
)

# Words that end with a period without ending a sentence.
_ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
    "eg", "ie", "e.g", "i.e", "no", "fig", "gen", "col", "lt", "sgt",
    "capt", "maj", "rev", "hon", "inc", "ltd", "co",
})

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])[\"')\]]*\s+")


@dataclass(frozen=True)
class TokenizedSentence:
    """One sentence: the original surface text plus its lowercase unigram tokens."""

    raw: str
    tokens: tuple[str, ...]

    @cached_property
    def token_types(self) -> frozenset[str]:
        """The distinct tokens; duplicates inside the sentence collapse here."""
        return frozenset(self.tokens)


@dataclass(frozen=True)
class SummaryDoc:
    """An ordered sequence of sentences with an opaque record identifier."""

    sentences: tuple[TokenizedSentence, ...]
    source_id: str = ""

    def __len__(self) -> int:
        return len(self.sentences)

    @cached_property
    def all_tokens(self) -> tuple[str, ...]:
        """Every token of the document, flattened in sentence order."""
        return tuple(token for sent in self.sentences for token in sent.tokens)

    def raw_sentences(self) -> list[str]:
        return [sent.raw for sent in self.sentences]


def tokenize(raw: str) -> TokenizedSentence:
    """Turn one sentence string into its lowercase unigram tokens.

    Tokens are the whitespace-delimited units of ``raw``, lowercased, with
    punctuation stripped from both ends. The surface string is kept as is.
    Raises EmptySentenceError when nothing tokenizable remains.
    """
    tokens = []
    for unit in raw.lower().split():
        stripped = unit.strip(_EDGE_CHARS)
        if stripped:
            tokens.append(stripped)
    if not tokens:
        raise EmptySentenceError(f"no tokens in sentence: {raw!r}")
    return TokenizedSentence(raw=raw, tokens=tuple(tokens))


def make_document(sentences: Iterable[str], source_id: str = "") -> SummaryDoc:
    """Tokenize pre-split sentence strings into a SummaryDoc."""
    return SummaryDoc(tuple(tokenize(text) for text in sentences), source_id=source_id)


def split_sentences(raw_text: str) -> list[TokenizedSentence]:
    """Split running text on sentence-final punctuation and tokenize each piece.

    Splits after ``.``, ``!`` or ``?`` (plus any closing quote or bracket)
    followed by whitespace. A small abbreviation list and single-letter
    initials keep titles like "Mr." or "J. Smith" from breaking mid-sentence.
    Text without a terminator still yields one sentence.
    """
    pieces: list[str] = []
    for piece in _SENTENCE_BREAK.split(raw_text):
        piece = piece.strip()
        if not piece:
            continue
        if pieces and _ends_with_abbreviation(pieces[-1]):
            pieces[-1] = f"{pieces[-1]} {piece}"
        else:
            pieces.append(piece)
    sentences = []
    for piece in pieces:
        try:
            sentences.append(tokenize(piece))
        except EmptySentenceError:
            continue
    if not sentences:
        raise EmptySentenceError("no splittable content")
    return sentences


def _ends_with_abbreviation(piece: str) -> bool:
    words = piece.split()
    if not words:
        return False
    last = words[-1]
    if not last.endswith("."):
        return False
    word = last.rstrip(".")
    # Capitalized single letters are initials ("J. Smith"), lowercase ones are words.
    if len(word) == 1 and word.isalpha() and word.isupper():
        return True
    return word.lower() in _ABBREVIATIONS


def unigram_overlap(a: TokenizedSentence, b: TokenizedSentence) -> float:
    """Fraction of ``a``'s distinct unigrams that also occur in ``b``.

    Directional containment relative to the first argument: a sentence
    repeated verbatim scores exactly 1.0 against its original no matter how
    long the other sentence is, which is what threshold rules need.
    """
    if not a.token_types or not b.token_types:
        raise EmptySentenceError("overlap needs non-empty token sets")
    return len(a.token_types & b.token_types) / len(a.token_types)


def sentence_similarity(a: TokenizedSentence, b: TokenizedSentence) -> float:
    """Symmetric closeness: harmonic mean of the two directional unigram overlaps."""
    forward = unigram_overlap(a, b)
    backward = unigram_overlap(b, a)
    if forward + backward == 0.0:
        return 0.0
    return 2.0 * forward * backward / (forward + backward)


def drop_token(sentence: TokenizedSentence, index: int) -> TokenizedSentence:
    """The sentence without its ``index``-th token.

    The whitespace unit that produced the token is removed from the surface
    text, so the rest keeps its case and punctuation.
    """
    units = sentence.raw.split()
    producing = [i for i, unit in enumerate(units) if unit.lower().strip(_EDGE_CHARS)]
    dropped = producing[index]
    return TokenizedSentence(
        raw=" ".join(units[:dropped] + units[dropped + 1:]),
        tokens=sentence.tokens[:index] + sentence.tokens[index + 1:],
    )
