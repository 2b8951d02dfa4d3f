"""Redundancy noise injection, denoising, and evaluation for text summaries.

The names below are loaded from their modules on first use (PEP 562), so
``python -m sumnoise.cli`` loads only the modules its subcommand needs.
"""

import importlib

__version__ = "0.1.0"

# Each exported name and the module that defines it.
_SOURCES = {
    "Alignment": "noising",
    "CorpusRecord": "corpus",
    "DenoiseResult": "denoise",
    "DropTokenParaphraser": "noising",
    "EditClassification": "analysis",
    "EditKind": "analysis",
    "EvalReport": "analysis",
    "NoiseDistribution": "noising",
    "NoiseType": "noising",
    "NoisyRecord": "noising",
    "OperationDistribution": "analysis",
    "RougeScore": "metrics",
    "SENTENCE_SEPARATOR": "denoise",
    "SummaryDoc": "text",
    "SumnoiseError": "errors",
    "TokenizedSentence": "text",
    "aggregate_operations": "analysis",
    "aligned_pairs": "analysis",
    "apply_extra": "noising",
    "apply_repeat": "noising",
    "apply_replace": "noising",
    "classify_edit": "analysis",
    "derive_seed": "noising",
    "eval_report": "analysis",
    "external_denoise": "denoise",
    "identity_paraphrase": "noising",
    "make_document": "text",
    "make_noisy_record": "noising",
    "overlap_denoise": "denoise",
    "read_corpus": "corpus",
    "repeat_rate": "metrics",
    "repetition_count": "metrics",
    "rouge_l": "metrics",
    "rouge_n": "metrics",
    "sample_noise_count": "noising",
    "sentence_similarity": "text",
    "split_sentences": "text",
    "summary_stats": "metrics",
    "tokenize": "text",
    "unigram_overlap": "text",
}

__all__ = list(_SOURCES)


def __getattr__(name: str) -> object:
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
