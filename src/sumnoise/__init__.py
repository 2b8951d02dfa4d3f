"""Redundancy noise injection, denoising, and evaluation for text summaries."""

from .analysis import (
    EditClassification,
    EditKind,
    EvalReport,
    OperationDistribution,
    aggregate_operations,
    aligned_pairs,
    classify_edit,
    eval_report,
)
from .corpus import CorpusRecord, read_corpus, write_corpus
from .denoise import SENTENCE_SEPARATOR, DenoiseResult, external_denoise, overlap_denoise
from .errors import SumnoiseError
from .metrics import (
    RougeScore,
    repeat_rate,
    repetition_count,
    rouge_l,
    rouge_n,
    summary_stats,
)
from .noising import (
    Alignment,
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    NoisyRecord,
    apply_extra,
    apply_repeat,
    apply_replace,
    derive_seed,
    identity_paraphrase,
    make_noisy_record,
    sample_noise_count,
)
from .text import SummaryDoc, TokenizedSentence, make_document, sentence_similarity, split_sentences, tokenize, unigram_overlap

__version__ = "0.1.0"

__all__ = [
    "Alignment",
    "CorpusRecord",
    "DenoiseResult",
    "DropTokenParaphraser",
    "EditClassification",
    "EditKind",
    "EvalReport",
    "NoiseDistribution",
    "NoiseType",
    "NoisyRecord",
    "OperationDistribution",
    "RougeScore",
    "SENTENCE_SEPARATOR",
    "SummaryDoc",
    "SumnoiseError",
    "TokenizedSentence",
    "aggregate_operations",
    "aligned_pairs",
    "apply_extra",
    "apply_repeat",
    "apply_replace",
    "classify_edit",
    "derive_seed",
    "eval_report",
    "external_denoise",
    "identity_paraphrase",
    "make_document",
    "make_noisy_record",
    "overlap_denoise",
    "read_corpus",
    "repeat_rate",
    "repetition_count",
    "rouge_l",
    "rouge_n",
    "sample_noise_count",
    "sentence_similarity",
    "split_sentences",
    "summary_stats",
    "tokenize",
    "unigram_overlap",
    "write_corpus",
]
