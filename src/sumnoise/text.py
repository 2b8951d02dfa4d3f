"""Sentence tokenization and the unigram-overlap primitives.

Two sentences are compared on their sets of distinct tokens (token types):
``unigram_overlap`` is directional containment, ``sentence_similarity`` the
symmetric Dice coefficient, exact for equal scores.

Everything else in this package (metrics, noise, denoising, analysis) works
on the ``TokenizedSentence`` and ``SummaryDoc`` values built here, so text
normalization lives in exactly one place. It is deliberately simple and
deterministic: lowercase, split on whitespace, strip punctuation from both
ends of each unit. No stemming, no stopword removal.
"""

from __future__ import annotations

import re
from collections import Counter
from functools import lru_cache
from typing import Iterable

from .errors import EmptyDocumentError, EmptySentenceError

# Characters stripped from the edges of whitespace-delimited units: ASCII
# punctuation plus the common typographic quotes, dashes, and ellipsis.
_EDGE_CHARS = (
    "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~"
    "‘’“”–—…«»"
)
# A character that survives tokenize: neither whitespace nor an edge character.
_TOKEN_CHAR = re.compile(f"[^\\s{re.escape(_EDGE_CHARS)}]")

# Words that end with a period without ending a sentence.
_ABBREVIATIONS = frozenset({
    "mr", "mrs", "ms", "dr", "prof", "sr", "jr", "st", "vs", "etc",
    "eg", "ie", "e.g", "i.e", "no", "fig", "gen", "col", "lt", "sgt",
    "capt", "maj", "rev", "hon", "inc", "ltd", "co",
})

_SENTENCE_BREAK = re.compile(r"(?<=[.!?])[\"')\]]*\s+")


class FrozenValue:
    """Base of the slotted record classes that validate their input or build fields lazily.

    A subclass lists its constructor fields, in order, in ``_fields`` and its
    storage in ``__slots__``, and its ``__init__`` sets each slot once,
    through ``object.__setattr__``; assigning or deleting an attribute
    afterwards raises AttributeError. Objects compare, hash, print and pickle
    as the tuple of their fields. (``dataclasses`` would generate the same,
    but importing it loads ``inspect``, ``ast`` and ``dis``, and every
    subcommand would pay for them at start-up.)
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is frozen: cannot delete {name!r}")


class TokenizedSentence(FrozenValue):
    """One sentence: the original surface text plus its lowercase unigram tokens, at least one."""

    __slots__ = ("raw", "tokens", "token_types")
    _fields = ("raw", "tokens")

    def __init__(self, raw: str, tokens: tuple[str, ...]) -> None:
        if not tokens:
            raise EmptySentenceError(f"no tokens in sentence: {raw!r}")
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "tokens", tokens)
        # The distinct tokens; duplicates inside the sentence collapse here.
        object.__setattr__(self, "token_types", frozenset(tokens))


class SummaryDoc(FrozenValue):
    """An ordered sequence of at least one sentence; the record that holds it owns its id."""

    __slots__ = ("sentences", "_all_tokens", "_tables")
    _fields = ("sentences",)

    def __init__(self, sentences: tuple[TokenizedSentence, ...]) -> None:
        if not sentences:
            raise EmptyDocumentError("no sentences in document")
        object.__setattr__(self, "sentences", sentences)
        object.__setattr__(self, "_all_tokens", None)
        # The ROUGE tables of ``ngram_counts`` and ``match_masks``, keyed by n
        # and by 0 for the masks. Not a field: equality, hash, repr and pickle
        # ignore it.
        object.__setattr__(self, "_tables", None)

    def __len__(self) -> int:
        return len(self.sentences)

    @property
    def all_tokens(self) -> tuple[str, ...]:
        """Every token of the document, flattened in sentence order; built on first use."""
        if self._all_tokens is None:
            tokens = tuple(token for sent in self.sentences for token in sent.tokens)
            object.__setattr__(self, "_all_tokens", tokens)
        return self._all_tokens

    def ngram_counts(self, n: int) -> Counter:
        """How often each n-gram of ``all_tokens`` occurs; built on first use for each ``n``.

        A unigram is keyed by the token itself, a longer n-gram by a tuple of
        tokens. A reference scored against several candidates counts once.
        """
        tables = self._table_dict()
        counts = tables.get(n)
        if counts is None:
            tokens = self.all_tokens
            if n == 1:
                counts = Counter(tokens)
            else:
                counts = Counter(zip(*(tokens[i:] for i in range(n))))
            tables[n] = counts
        return counts

    def match_masks(self) -> dict[str, int]:
        """Each token's positions in ``all_tokens`` as the bits of an int; built on first use.

        This is the match table of the bit-parallel LCS in ``metrics``.
        """
        tables = self._table_dict()
        masks = tables.get(0)
        if masks is None:
            masks = {}
            for j, token in enumerate(self.all_tokens):
                masks[token] = masks.get(token, 0) | (1 << j)
            tables[0] = masks
        return masks

    def _table_dict(self) -> dict:
        if self._tables is None:
            object.__setattr__(self, "_tables", {})
        return self._tables

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
    return TokenizedSentence(raw=raw, tokens=tuple(tokens))


# Strings recur within a few documents of each other: a record's noised
# variants, a before/after pair. So a small memo of recent strings catches
# the reuse without growing peak RSS; equal strings then share one immutable
# TokenizedSentence. Errors are not cached, so an untokenizable string raises
# on every call.
SENTENCE_CACHE_SIZE = 64
cached_tokenize = lru_cache(maxsize=SENTENCE_CACHE_SIZE)(tokenize)


def has_tokens(raw: str) -> bool:
    """Whether ``tokenize(raw)`` yields a token, decided without building any."""
    return _TOKEN_CHAR.search(raw) is not None


def make_document(sentences: Iterable[str]) -> SummaryDoc:
    """Tokenize pre-split sentence strings into a SummaryDoc, through ``cached_tokenize``."""
    return SummaryDoc(tuple(map(cached_tokenize, sentences)))


def split_sentences(raw_text: str) -> list[str]:
    """Split running text on sentence-final punctuation into sentence strings.

    Splits after ``.``, ``!`` or ``?`` (plus any closing quote or bracket)
    followed by whitespace. A small abbreviation list and single-letter
    initials keep titles like "Mr." or "J. Smith" from breaking mid-sentence.
    Text without a terminator still yields one sentence. Pieces without a
    token are dropped; raises EmptySentenceError when none is left.
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
    sentences = list(filter(has_tokens, pieces))
    if not sentences:
        raise EmptySentenceError("no splittable content")
    return sentences


def _ends_with_abbreviation(piece: str) -> bool:
    last = piece.split()[-1]  # called on stripped, non-empty pieces only
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
    return len(a.token_types & b.token_types) / len(a.token_types)


def sentence_similarity(a: TokenizedSentence, b: TokenizedSentence) -> float:
    """Symmetric closeness: the Dice coefficient ``2|A∩B| / (|A|+|B|)`` of the token types.

    This is the harmonic mean of the two directional unigram overlaps,
    computed as one integer division. That division is correctly rounded, so
    mathematically equal scores are equal floats, and tie-breaks and
    threshold checks on the score are exact.
    """
    a_types, b_types = a.token_types, b.token_types
    return 2 * len(a_types & b_types) / (len(a_types) + len(b_types))


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
