"""Synthetic redundancy noise for clean article/summary pairs.

Three corruptions, all of which inject repeated or peripheral content:

* repeat:  duplicate random summary sentences at the end
* replace: swap random summary sentences for the closest article sentence
* extra:   insert paraphrased article sentences, keeping article order
* mixture: per record, one of the above chosen uniformly

How many sentences get corrupted is sampled per record from a noise-count
distribution (default: 15% of records untouched, 85% with one noisy
sentence). Every record derives its own 64-bit seed from the run seed, the
record id, and the variant index, so generation replays exactly, and a
corpus noised in shards concatenates to the same output.
"""

from __future__ import annotations

import random
from enum import Enum
from typing import Callable, NamedTuple, Sequence

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

    @classmethod
    def parse(cls, text: str) -> "NoiseDistribution":
        try:
            probs = tuple(float(part) for part in text.split(","))
        except ValueError as exc:
            raise InvalidDistributionError(f"cannot parse distribution {text!r}") from exc
        return cls(probs)


class NoisyRecord(NamedTuple):
    """One noised summary plus everything needed to reproduce it."""

    source_id: str
    noisy: SummaryDoc
    clean: SummaryDoc
    noise_type: NoiseType
    noised_indices: tuple[int, ...]
    variant_index: int
    seed: int


def sample_noise_count(dist: NoiseDistribution, rng: random.Random) -> int:
    """Draw how many sentences to corrupt; deterministic given the rng state."""
    u = rng.random()
    cumulative = 0.0
    for k, p in enumerate(dist.probs):
        cumulative += p
        if u < cumulative:
            return k
    return dist.max_count


def closest_sentence_index(target: TokenizedSentence, pool: Sequence[TokenizedSentence]) -> int:
    """Index of the pool sentence most similar to target; ties go to the lowest index."""
    best_index, best_sim = 0, -1.0
    for i, candidate in enumerate(pool):
        sim = sentence_similarity(target, candidate)
        if sim > best_sim:
            best_index, best_sim = i, sim
    return best_index


class Alignment:
    """Each summary sentence's closest article index, computed on first use.

    Replace and extra noise both read it. One instance per record, passed to
    every variant, aligns each summary sentence at most once per record.
    """

    def __init__(self, clean: SummaryDoc, article: SummaryDoc) -> None:
        self._clean = clean
        self._article = article
        self._closest: list[int | None] = [None] * len(clean)

    def closest(self, position: int) -> int:
        """Article index closest to summary sentence ``position``."""
        index = self._closest[position]
        if index is None:
            index = closest_sentence_index(self._clean.sentences[position], self._article.sentences)
            self._closest[position] = index
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
    noisy = SummaryDoc(clean.sentences + appended, source_id=clean.source_id)
    return noisy, list(range(n, n + k))


def apply_replace(
    clean: SummaryDoc,
    article: SummaryDoc,
    k: int,
    rng: random.Random,
    alignment: Alignment | None = None,
) -> tuple[SummaryDoc, list[int]]:
    """Replace k distinct summary sentences with their closest article sentence.

    Closeness is ``sentence_similarity`` (Dice); exact ties go to the earliest
    article sentence. Returns the noised document and the replaced positions.
    An ``alignment`` of ``clean`` to ``article`` reuses other variants' work.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k > len(clean):
        raise InsufficientSummaryError(
            f"cannot replace {k} of {len(clean)} summary sentences"
        )
    if k == 0:
        return clean, []
    if alignment is None:
        alignment = Alignment(clean, article)
    positions = sorted(rng.sample(range(len(clean)), k))
    sentences = list(clean.sentences)
    for pos in positions:
        sentences[pos] = article.sentences[alignment.closest(pos)]
    return SummaryDoc(tuple(sentences), source_id=clean.source_id), positions


def apply_extra(
    clean: SummaryDoc,
    article: SummaryDoc,
    k: int,
    rng: random.Random,
    paraphraser: Paraphraser | None = None,
    alignment: Alignment | None = None,
) -> tuple[SummaryDoc, list[int]]:
    """Insert k paraphrased article sentences, preserving article order.

    Each summary sentence is first aligned to its most-similar article index.
    Insertions are drawn from the article sentences left unaligned; a sentence
    with article index e goes immediately before the first summary sentence
    whose aligned index exceeds e, or at the end when none does. Returns the
    noised document and the output positions of the insertions. An
    ``alignment`` of ``clean`` to ``article`` reuses other variants' work.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        return clean, []
    if paraphraser is None:
        paraphraser = identity_paraphrase
    if alignment is None:
        alignment = Alignment(clean, article)
    aligned = [alignment.closest(i) for i in range(len(clean))]
    pool = sorted(set(range(len(article))) - set(aligned))
    if k > len(pool):
        raise InsufficientArticleError(
            f"need {k} unmatched article sentences, only {len(pool)} available"
        )
    chosen = sorted(rng.sample(pool, k))
    slots: dict[int, list[int]] = {}
    for article_index in chosen:
        slot = next((i for i, a in enumerate(aligned) if a > article_index), len(clean))
        slots.setdefault(slot, []).append(article_index)
    output: list[TokenizedSentence] = []
    inserted_at: list[int] = []
    for i in range(len(clean) + 1):
        for article_index in slots.get(i, ()):
            inserted_at.append(len(output))
            output.append(paraphraser(article.sentences[article_index]))
        if i < len(clean):
            output.append(clean.sentences[i])
    return SummaryDoc(tuple(output), source_id=clean.source_id), inserted_at


def identity_paraphrase(sentence: TokenizedSentence) -> TokenizedSentence:
    """Default paraphrase hook: the sentence itself."""
    return sentence


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
        import hashlib  # deferred, as in derive_seed

        payload = f"{self.seed}:{' '.join(sentence.tokens)}".encode("utf-8")
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        drop = 1 + int.from_bytes(digest, "big") % (len(sentence.tokens) - 2)
        return drop_token(sentence, drop)


def derive_seed(base_seed: int, source_id: str, variant_index: int) -> int:
    """Mix the run seed, record id, and variant into an independent 64-bit seed."""
    import hashlib  # here, not at the top: it loads OpenSSL, which only noise needs

    payload = f"{base_seed}:{variant_index}:{source_id}".encode("utf-8")
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def make_noisy_record(
    article: SummaryDoc | None,
    clean: SummaryDoc,
    noise_type: NoiseType,
    dist: NoiseDistribution,
    base_seed: int,
    variant_index: int,
    paraphraser: Paraphraser | None = None,
    alignment: Alignment | None = None,
) -> NoisyRecord:
    """Produce one noisy variant of a clean summary.

    For mixture the concrete noise type is drawn first, then the noise count,
    then the corruption itself, all from the record's derived seed; replaying
    the same inputs reproduces the record exactly. Repeat noise never reads
    the article, so it may be None there. Pass the same ``alignment`` of
    ``clean`` to ``article`` to every variant of a record to align it once.
    """
    seed = derive_seed(base_seed, clean.source_id, variant_index)
    rng = random.Random(seed)
    concrete = noise_type
    if noise_type is NoiseType.MIXTURE:
        concrete = rng.choice(CONCRETE_NOISE_TYPES)
    k = sample_noise_count(dist, rng)
    if concrete is NoiseType.REPEAT:
        noisy, indices = apply_repeat(clean, k, rng)
    elif concrete is NoiseType.REPLACE:
        noisy, indices = apply_replace(clean, article, k, rng, alignment)
    else:
        noisy, indices = apply_extra(clean, article, k, rng, paraphraser, alignment)
    return NoisyRecord(
        source_id=clean.source_id,
        noisy=noisy,
        clean=clean,
        noise_type=concrete,
        noised_indices=tuple(indices),
        variant_index=variant_index,
        seed=seed,
    )

