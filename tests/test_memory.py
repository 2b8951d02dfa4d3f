"""Peak memory of each subcommand against the size of its input, in-process under tracemalloc."""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from corpus_files import write_records
from sumnoise.cli import cli_main
from sumnoise import synth
from sumnoise.synth import synth_corpus

# Clean records; noise writes three variants of each. At both sizes the
# noised corpus has more than 2,000 records, and a set of its ids, or of the
# clean ids, takes a larger table at the larger size.
SIZES = (700, 1700)
WARM_UP = 20
# Measured with CPython 3.10 to 3.13 at these sizes: each id an input stream
# adds grows a subcommand's peak by 13-44 bytes. Most of it is the stream's
# id-hash table: 8 bytes a slot at a load of 1/3 to 2/3, and the old table
# beside the new one while it doubles. Keeping each id in a set, as the
# reader did before the table, grew it by 157-257 bytes per id.
BYTES_PER_ID = 80
# The peak of `eval -r` above that of `eval` grows by 33-82 bytes per added
# reference: the index's 16-byte slots (a hash and the offset of the id's
# line in the copy) and the hash table of the reference stream. An id ->
# offset dict beside a set of ids grew it by 116-156 bytes.
BYTES_PER_REFERENCE = 100
# python -m sumnoise.synth writes each record before it makes the next, so its
# peak grows by under 1 byte per added record. Made as a list first, the
# corpus grew it by about 1,500 bytes per record.
BYTES_PER_SYNTH_RECORD = 64


def traced_peak(argv: list[str], main=cli_main) -> int:
    gc.collect()  # a full collection also empties the free lists, so every run starts alike
    # Then fill the tuple free lists (2,000 for each length below 20), so that
    # a run reuses them and its peak does not count them as they fill.
    spare = [tuple([None] * length) for length in range(1, 20) for _ in range(2000)]
    del spare
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Each invocation, and the number of ids it reads per clean record.
INVOCATIONS = {
    "noise": (lambda clean, noisy, denoised, out: ["noise", "-i", clean, "-o", out, "--type", "mixture", "--seed", "7"], 1),
    "denoise": (lambda clean, noisy, denoised, out: ["denoise", "-i", noisy, "-o", out], 3),
    "eval": (lambda clean, noisy, denoised, out: ["eval", "-b", noisy, "-a", denoised], 6),
    "eval -r": (lambda clean, noisy, denoised, out: ["eval", "-b", noisy, "-a", denoised, "-r", clean], 7),
    "analyze": (lambda clean, noisy, denoised, out: ["analyze", "-b", noisy, "-a", denoised], 6),
    "stats": (lambda clean, noisy, denoised, out: ["stats", "-i", noisy], 3),
}


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """Each invocation's traced peak at each of SIZES, run on a clean corpus, its noise variants and their denoised copy."""
    found = {name: [] for name in INVOCATIONS}
    # A first, small run of each invocation takes the one-time costs.
    for records in (WARM_UP, *SIZES):
        directory = tmp_path_factory.mktemp(f"corpus{records}")
        clean, noisy, denoised, out = (
            str(directory / name) for name in ("clean.jsonl", "noisy.jsonl", "denoised.jsonl", "out.jsonl")
        )
        write_records(synth_corpus(records, seed=1), clean)
        assert cli_main(["noise", "-i", clean, "-o", noisy, "--type", "mixture", "--seed", "7"]) == 0
        assert cli_main(["denoise", "-i", noisy, "-o", denoised]) == 0
        for name, (argv, _) in INVOCATIONS.items():
            found[name].append(traced_peak(argv(clean, noisy, denoised, out)))
    return {name: measured[1:] for name, measured in found.items()}


@pytest.mark.parametrize("invocation", INVOCATIONS)
def test_peak_memory_grows_by_less_than_a_set_of_ids(invocation, peaks):
    ids = INVOCATIONS[invocation][1] * (SIZES[1] - SIZES[0])
    assert peaks[invocation][1] - peaks[invocation][0] <= BYTES_PER_ID * ids, peaks[invocation]


def test_eval_references_add_no_more_than_an_id_index_to_peak_memory(peaks):
    excess = [with_references - plain for with_references, plain in zip(peaks["eval -r"], peaks["eval"])]
    assert excess[1] - excess[0] <= BYTES_PER_REFERENCE * (SIZES[1] - SIZES[0]), excess


def test_synth_peak_memory_does_not_grow_with_the_corpus(tmp_path):
    out = str(tmp_path / "corpus.jsonl")
    traced_peak(["--records", str(WARM_UP), "-o", out], synth.main)
    peaks = [traced_peak(["--records", str(records), "-o", out], synth.main) for records in SIZES]
    assert peaks[1] - peaks[0] <= BYTES_PER_SYNTH_RECORD * (SIZES[1] - SIZES[0]), peaks
