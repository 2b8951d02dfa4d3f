"""Synthetic redundancy noise for clean article/summary pairs.

Three corruptions, all of which inject repeated or peripheral content:

* repeat:  duplicate random summary sentences at the end
* replace: swap random summary sentences for the closest article sentence
           that differs from every summary sentence
* extra:   insert paraphrased article sentences, keeping article order
* mixture: per variant, one of the above chosen uniformly

How many sentences get corrupted is sampled per variant from a noise-count
distribution (default: 15% of variants untouched, 85% with one noisy
sentence). ``derive_seed`` mixes the run seed, the record id, and the variant
index into each variant's own 64-bit seed, so generation replays exactly, and
a corpus noised in shards concatenates to the same output. A record's clean
summary and article reach the noise functions as one ``Alignment``.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, NamedTuple

from .errors import InsufficientArticleError, InsufficientSummaryError, InvalidDistributionError
from .text import FrozenValue, SummaryDoc, TokenizedSentence, drop_token, sentence_similarity

Paraphraser = Callable[[TokenizedSentence], TokenizedSentence]

DEFAULT_NOISE_PROBS = (0.15, 0.85)
DEFAULT_VARIANTS = 3


class NoiseType(Enum):
    REPEAT = "repeat"
    REPLACE = "replace"
    EXTRA = "extra"
    MIXTURE = "mixture"


CONCRETE_NOISE_TYPES = (NoiseType.REPEAT, NoiseType.REPLACE, NoiseType.EXTRA)


class NoiseDistribution(FrozenValue):
    """Probabilities ``probs[k]`` of corrupting exactly k sentences in a summary."""

    __slots__ = _fields = ("probs",)

    def __init__(self, probs: tuple[float, ...]) -> None:
        if len(probs) < 1:
            raise InvalidDistributionError("distribution needs at least one entry")
        if not all(0.0 <= p <= 1.0 for p in probs):  # false for NaN too
            raise InvalidDistributionError(f"probabilities must be in [0, 1], got {probs!r}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise InvalidDistributionError(
                f"probabilities sum to {sum(probs)!r}, expected 1.0"
            )
        object.__setattr__(self, "probs", probs)

    @property
    def max_count(self) -> int:
        return len(self.probs) - 1


def identity_paraphrase(sentence: TokenizedSentence) -> TokenizedSentence:
    """Default paraphrase hook: the sentence itself."""
    return sentence


class NoisyRecord(NamedTuple):
    """One noised summary and what the noise call decided."""

    noisy: SummaryDoc
    noise_type: NoiseType
    noised_indices: tuple[int, ...]


def sample_noise_count(dist: NoiseDistribution, rng: random.Random) -> int:
    """Draw how many sentences to corrupt; deterministic given the rng state."""
    u = rng.random()
    cumulative = 0.0
    for k, p in enumerate(dist.probs):
        cumulative += p
        if u < cumulative:
            return k
    return dist.max_count


class Alignment:
    """A clean summary and its article, with each summary sentence's closest article index.

    The one document input of the noise functions. The closest index is
    computed on first use; one instance per record, passed to every variant,
    aligns each summary sentence at most once per record. Repeat noise never
    reads the article, so it may be None there.
    """

    __slots__ = ("clean", "article", "_closest", "_replacement")

    def __init__(self, clean: SummaryDoc, article: SummaryDoc | None) -> None:
        self.clean = clean
        self.article = article
        self._closest: list[int | None] = [None] * len(clean)
        self._replacement: list[int | None] = [None] * len(clean)

    def closest(self, position: int) -> int:
        """Article index most similar to summary sentence ``position``; ties go to the lowest index."""
        index = self._closest[position]
        if index is None:
            target = self.clean.sentences[position]
            index, best_sim = 0, -1.0
            for i, candidate in enumerate(self.article.sentences):
                sim = sentence_similarity(target, candidate)
                if sim > best_sim:
                    index, best_sim = i, sim
            self._closest[position] = index
        return index

    def replacement(self, position: int) -> int:
        """Article index that replace noise puts at summary sentence ``position``; cached like ``closest``.

        The most similar article sentence (ties to the lowest index) whose
        token types equal no clean summary sentence's: ``closest(position)``
        unless that one is excluded. Raises InsufficientArticleError when
        every article sentence is.
        """
        index = self._replacement[position]
        if index is None:
            index, article = self.closest(position), self.article.sentences
            excluded = [sent.token_types for sent in self.clean.sentences]
            if article[index].token_types in excluded:
                candidates = [i for i, sent in enumerate(article) if sent.token_types not in excluded]
                if not candidates:
                    raise InsufficientArticleError("every article sentence has the token types of a summary sentence")
                target = self.clean.sentences[position]
                index = max(candidates, key=lambda i: sentence_similarity(target, article[i]))
            self._replacement[position] = index
        return index


def apply_repeat(
    clean: SummaryDoc, k: int, rng: random.Random
) -> tuple[SummaryDoc, list[int]]:
    """Append k sentences drawn from the summary itself.

    Draws without replacement while k fits, with replacement beyond that.
    Returns the noised document and the output positions of the appended
    duplicates; existing sentences are never touched.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return clean, []
    n = len(clean)
    if k <= n:
        picks = rng.sample(range(n), k)
    else:
        picks = [rng.randrange(n) for _ in range(k)]
    appended = tuple(clean.sentences[i] for i in picks)
    noisy = SummaryDoc(clean.sentences + appended)
    return noisy, list(range(n, n + k))


def apply_replace(alignment: Alignment, k: int, rng: random.Random) -> tuple[SummaryDoc, list[int]]:
    """Replace k distinct summary sentences with article sentences (see ``Alignment.replacement``).

    Closeness is ``sentence_similarity`` (Dice); exact ties go to the earliest
    article sentence. Returns the noised document and the replaced positions.
    """
    clean = alignment.clean
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > len(clean):
        raise InsufficientSummaryError(
            f"cannot replace {k} of {len(clean)} summary sentences"
        )
    if k == 0:
        return clean, []
    positions = sorted(rng.sample(range(len(clean)), k))
    sentences = list(clean.sentences)
    for pos in positions:
        sentences[pos] = alignment.article.sentences[alignment.replacement(pos)]
    return SummaryDoc(tuple(sentences)), positions


def apply_extra(
    alignment: Alignment,
    k: int,
    rng: random.Random,
    paraphraser: Paraphraser = identity_paraphrase,
) -> tuple[SummaryDoc, list[int]]:
    """Insert k paraphrased article sentences, preserving article order.

    Each summary sentence is first aligned to its most-similar article index.
    Insertions are drawn from the article sentences left unaligned; a sentence
    with article index e goes immediately before the first summary sentence
    whose aligned index exceeds e, or at the end when none does. Returns the
    noised document and the output positions of the insertions.
    """
    clean, article = alignment.clean, alignment.article
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return clean, []
    aligned = [alignment.closest(i) for i in range(len(clean))]
    pool = sorted(set(range(len(article))) - set(aligned))
    if k > len(pool):
        raise InsufficientArticleError(
            f"need {k} unmatched article sentences, only {len(pool)} available"
        )
    draws = sorted(rng.sample(pool, k), reverse=True)  # the lowest pops first
    aligned.append(len(article))  # above every draw: what is left goes at the end
    output: list[TokenizedSentence] = []
    inserted_at: list[int] = []
    for i, limit in enumerate(aligned):
        while draws and draws[-1] < limit:
            inserted_at.append(len(output))
            output.append(paraphraser(article.sentences[draws.pop()]))
        if i < len(clean):
            output.append(clean.sentences[i])
    return SummaryDoc(tuple(output)), inserted_at


class DropTokenParaphraser:
    """Light lexical paraphrase: drop one interior token, picked by a stable hash.

    A stand-in for a learned paraphraser, so insertion noise can produce
    non-verbatim sentences while staying deterministic regardless of call
    order. Sentences with fewer than three tokens pass through unchanged.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed

    def __call__(self, sentence: TokenizedSentence) -> TokenizedSentence:
        if len(sentence.tokens) < 3:
            return sentence
        payload = f"{self.seed}:{' '.join(sentence.tokens)}".encode("utf-8")
        drop = 1 + _stable_hash64(payload) % (len(sentence.tokens) - 2)
        return drop_token(sentence, drop)


def derive_seed(base_seed: int, record_id: str, variant_index: int) -> int:
    """Mix the run seed, record id, and variant into an independent 64-bit seed."""
    return _stable_hash64(f"{base_seed}:{variant_index}:{record_id}".encode("utf-8"))


def _stable_hash64(payload: bytes) -> int:
    """The 8-byte BLAKE2b digest of ``payload`` as a big-endian int."""
    # Imported here, not at the top, because only noise hashes. This is the
    # object hashlib.blake2b binds (hashlib always takes BLAKE2 from _blake2),
    # but importing hashlib also loads OpenSSL, about 3.5 MB of peak RSS that
    # noise does not use.
    from _blake2 import blake2b

    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "big")


def make_noisy_record(
    alignment: Alignment,
    noise_type: NoiseType,
    dist: NoiseDistribution,
    seed: int,
    paraphraser: Paraphraser = identity_paraphrase,
) -> NoisyRecord:
    """Produce one noisy variant of ``alignment.clean`` from its own ``seed`` (see ``derive_seed``).

    For mixture the concrete noise type is drawn first, then the noise count,
    then the corruption itself, all from ``seed``; replaying the same inputs
    reproduces the variant exactly. Pass the same ``alignment`` to every
    variant of a record to align it once.
    """
    clean = alignment.clean
    rng = random.Random(seed)
    concrete = noise_type
    if noise_type is NoiseType.MIXTURE:
        concrete = rng.choice(CONCRETE_NOISE_TYPES)
    k = sample_noise_count(dist, rng)
    if concrete is NoiseType.REPEAT:
        noisy, indices = apply_repeat(clean, k, rng)
    elif concrete is NoiseType.REPLACE:
        noisy, indices = apply_replace(alignment, k, rng)
    else:
        noisy, indices = apply_extra(alignment, k, rng, paraphraser)
    return NoisyRecord(noisy, concrete, tuple(indices))
