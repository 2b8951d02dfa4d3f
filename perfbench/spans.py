"""Span recording for the traced benchmark run.

The traced run wraps each layer's public function where its calling module
binds it (``sumnoise.cli.read_corpus``, ``sumnoise.analysis.rouge_l``, ...),
so the program itself is untouched. Every wrapped call records a span
``[name, start_ns, end_ns, parent, thread]``; a wrapped generator records one
span per item it yields. Counts come from the calls' inputs and outputs, or
from counting-only wrappers that record no span, so they repeat exactly.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator


def _bytes_in(counts: Counter, args: tuple, result: Any) -> None:
    counts["corpus.bytes_in"] += os.path.getsize(args[0])


def _bytes_out(counts: Counter, args: tuple, result: str) -> None:
    counts["corpus.bytes_out"] += len(result.encode("utf-8")) + 1


def _tokens(counts: Counter, args: tuple, result: Any) -> None:
    counts["text.tokens"] += sum(len(sentence.tokens) for sentence in result.sentences)


def _deleted(counts: Counter, args: tuple, result: Any) -> None:
    counts["denoise.deleted_sentences"] += len(result.deleted_indices)


def _lcs_cells(counts: Counter, args: tuple, result: Any) -> None:
    candidate, reference = args[0], args[1]
    counts["metrics.lcs_cells"] += len(candidate.all_tokens) * len(reference.all_tokens)


# (module, attribute as that module binds it, layer name, wrapper kind, count hook).
# A "function" hook runs after the call, outside its span; a "generator" hook
# runs when the generator is created.
LAYERS = (
    ("sumnoise.cli", "read_corpus", "corpus.read_corpus", "generator", _bytes_in),
    ("sumnoise.cli", "record_to_line", "corpus.record_to_line", "function", _bytes_out),
    ("sumnoise.corpus", "make_document", "text.make_document", "function", _tokens),
    ("sumnoise.cli", "make_noisy_record", "noising.make_noisy_record", "function", None),
    ("sumnoise.noising", "sentence_similarity", "noising.similarity_calls", "counter", None),
    ("sumnoise.cli", "overlap_denoise", "denoise.overlap_denoise", "function", _deleted),
    ("sumnoise.cli", "external_denoise", "denoise.external_denoise", "generator", None),
    ("sumnoise.analysis", "classify_edit", "analysis.classify_edit", "function", None),
    ("sumnoise.analysis", "sentence_similarity", "analysis.similarity_calls", "counter", None),
    ("sumnoise.analysis", "rouge_n", "metrics.rouge_n", "function", None),
    ("sumnoise.analysis", "rouge_l", "metrics.rouge_l", "function", _lcs_cells),
    ("sumnoise.analysis", "repeat_rate", "metrics.repeat_rate", "function", None),
    ("sumnoise.analysis", "repetition_count", "metrics.repetition_count", "function", None),
    ("sumnoise.cli", "repeat_rate", "metrics.repeat_rate", "function", None),
    ("sumnoise.cli", "repetition_count", "metrics.repetition_count", "function", None),
)

SPAN_LAYERS = tuple(dict.fromkeys(layer for _, _, layer, kind, _ in LAYERS if kind != "counter"))


class Tracer:
    """Wraps layer functions and records their spans and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._local = threading.local()
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, attribute, layer, kind, hook in LAYERS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            if kind == "function":
                wrapped = self._function(layer, original, hook)
            elif kind == "generator":
                wrapped = self._generator(layer, original, hook)
            else:
                wrapped = self._counter(layer, original)
            self._patched.append((module, attribute, original))
            setattr(module, attribute, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            module, attribute, original = self._patched.pop()
            setattr(module, attribute, original)

    def reset(self) -> None:
        self.spans = []
        self.counts.clear()

    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, time.perf_counter_ns(), 0, stack[-1] if stack else None, threading.get_ident()]
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter_ns()
        self._local.stack.pop()

    def _function(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(span)
                self.counts[name + ".raised"] += 1
                raise
            self._close(span)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def _generator(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self.counts, args, None)
            return self._iterate(name, fn(*args, **kwargs))

        return traced

    def _iterate(self, name: str, iterator: Iterator) -> Iterator:
        try:
            while True:
                span = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(span)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def summarize(spans: list[list], main_thread: int) -> dict[str, Any]:
    """Per-layer self time, call count and call durations of one traced pass.

    A span's self time is its duration minus the durations of its direct
    children. ``main_self_s`` sums self time over the main thread only: the
    external denoiser's feeder thread runs while the main thread waits inside
    the adapter, so adding its spans would count that interval twice.
    """
    children_ns: dict[int, int] = defaultdict(int)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children_ns[id(parent)] += end - start
    self_ns: Counter[str] = Counter()
    durations: dict[str, list[int]] = defaultdict(list)
    main_ns = 0
    for span in spans:
        name, start, end, _, thread = span
        own = end - start - children_ns.get(id(span), 0)
        self_ns[name] += own
        durations[name].append(end - start)
        if thread == main_thread:
            main_ns += own
    return {
        "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
        "calls": {name: len(values) for name, values in durations.items()},
        "durations_ns": dict(durations),
        "main_self_s": main_ns / 1e9,
    }


def write_spans(spans: list[list], path: str) -> None:
    """Write spans as JSON lines with ids, parent ids and times relative to the first span."""
    ids = {id(span): index for index, span in enumerate(spans)}
    origin = spans[0][1] if spans else 0
    threads: dict[int, int] = {}
    with open(path, "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, thread) in enumerate(spans):
            handle.write(json.dumps({
                "id": index,
                "name": name,
                "start_ns": start - origin,
                "end_ns": end - origin,
                "parent": None if parent is None else ids[id(parent)],
                "thread": threads.setdefault(thread, len(threads)),
            }, separators=(",", ":")) + "\n")
