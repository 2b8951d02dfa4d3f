"""Peak memory of ``eval -r`` against the size of the reference corpus, in-process under tracemalloc."""

from __future__ import annotations

import gc
import tracemalloc

from corpus_files import write_records
from sumnoise.cli import cli_main
from sumnoise.synth import synth_corpus

SIZES = (500, 2000)
# Measured with CPython 3.10 to 3.13 on synth corpora of these sizes: the peak
# of `eval -r` above that of `eval` grows by 262-307 bytes per added
# reference. The id -> byte-offset index keeps about 113 of them (id string,
# offset int, dict slot); the rest is the seen-id set while the index is
# built and the tuple free lists, which fill as more documents are scored.
# Holding every tokenized reference, as `eval -r` did before the index, grew
# it by about 2,850 bytes per reference.
BYTES_PER_REFERENCE = 512


def traced_peak(argv: list[str]) -> int:
    gc.collect()  # a full collection also empties the free lists, so every run starts alike
    tracemalloc.start()
    try:
        assert cli_main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_eval_references_add_no_more_than_an_id_index_to_peak_memory(tmp_path, fixture_corpus, capsys):
    # Warm up once, so one-time costs land in neither measured run.
    traced_peak(["eval", "-b", str(fixture_corpus), "-a", str(fixture_corpus), "-r", str(fixture_corpus)])
    excess = []
    for records in SIZES:
        corpus = tmp_path / f"corpus{records}.jsonl"
        write_records(synth_corpus(records, seed=1), corpus)
        plain = traced_peak(["eval", "-b", str(corpus), "-a", str(corpus)])
        with_references = traced_peak(["eval", "-b", str(corpus), "-a", str(corpus), "-r", str(corpus)])
        excess.append(with_references - plain)
    capsys.readouterr()
    assert excess[1] - excess[0] <= BYTES_PER_REFERENCE * (SIZES[1] - SIZES[0]), excess
