"""Redundancy noise injection, denoising, and evaluation for text summaries."""

from .analysis import (
    EditClassification,
    EditKind,
    EvalReport,
    OperationDistribution,
    aggregate_operations,
    classify_edit,
    eval_report,
)
from .corpus import CorpusRecord, read_corpus, write_corpus
from .denoise import SENTENCE_SEPARATOR, DenoiseResult, external_denoise, overlap_denoise
from .errors import SumnoiseError
from .metrics import (
    RedundancyReport,
    RougeScore,
    redundancy_report,
    repeat_rate,
    repetition_count,
    rouge_l,
    rouge_n,
    summary_stats,
)
from .noising import (
    DropTokenParaphraser,
    NoiseDistribution,
    NoiseType,
    NoisyRecord,
    apply_extra,
    apply_repeat,
    apply_replace,
    generate_noisy_dataset,
    identity_paraphrase,
    make_noisy_record,
    sample_noise_count,
)
from .text import SummaryDoc, TokenizedSentence, make_document, sentence_similarity, split_sentences, tokenize, unigram_overlap

__version__ = "0.1.0"

__all__ = [
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
    "RedundancyReport",
    "RougeScore",
    "SENTENCE_SEPARATOR",
    "SummaryDoc",
    "SumnoiseError",
    "TokenizedSentence",
    "aggregate_operations",
    "apply_extra",
    "apply_repeat",
    "apply_replace",
    "classify_edit",
    "eval_report",
    "external_denoise",
    "generate_noisy_dataset",
    "identity_paraphrase",
    "make_document",
    "make_noisy_record",
    "overlap_denoise",
    "read_corpus",
    "redundancy_report",
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
