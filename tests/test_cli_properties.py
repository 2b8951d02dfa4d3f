"""Properties of `eval` and `analyze` over generated corpora, run in-process through ``cli_main``."""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sumnoise.cli import cli_main
from sumnoise.text import _EDGE_CHARS

NBSP = "\u00a0"
BASE_IDS = ["r1", "r2", "r3"]

# Letters, the characters tokenize strips from word edges, spaces and NBSPs;
# the "a" between two runs of them makes sure of one token.
chars = st.text("aB " + NBSP + _EDGE_CHARS, max_size=6)
worded = st.tuples(chars, chars).map(lambda halves: f"{halves[0]}a{halves[1]}")
# One sentence in twenty has no token, which fails its record when it is read.
sentences = st.integers(0, 19).flatmap(lambda n: st.text(_EDGE_CHARS, min_size=1, max_size=2) if n == 0 else worded)
# A field is a list of sentences or running text, which is split on read.
fields = st.lists(sentences, min_size=1, max_size=3) | st.lists(sentences, min_size=1, max_size=3).map(" ".join)
variant_ids = st.tuples(st.sampled_from(BASE_IDS), st.sampled_from(["", ".v0", ".v1", ".v12"])).map("".join)


def records(ids):
    return st.fixed_dictionaries(
        {"id": ids, "article": fields, "summary": fields}, optional={"noisy": fields}
    )


def write_jsonl(path, corpus):
    path.write_text("".join(json.dumps(record, ensure_ascii=False) + "\n" for record in corpus), encoding="utf-8")


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main([str(arg) for arg in argv])
    # A traceback would have propagated out of cli_main and failed the example.
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("sumnoise: error: ")
    return code, out.getvalue()


def assert_rows_equal_but_for_system(table):
    header, before, after = table.splitlines()
    assert header.startswith("system\t")
    assert before.split("\t")[0] == "before" and after.split("\t")[0] == "after"
    assert before.split("\t")[1:] == after.split("\t")[1:]


@settings(derandomize=True, max_examples=75, deadline=None)
@given(
    st.lists(records(variant_ids), max_size=5, unique_by=lambda record: record["id"]),
    st.lists(records(st.sampled_from(BASE_IDS)), min_size=2, max_size=3, unique_by=lambda record: record["id"]),
)
def test_eval_and_analyze_of_a_corpus_against_itself(corpus, base_references):
    with tempfile.TemporaryDirectory() as directory:
        check_corpus_against_itself(Path(directory), corpus, base_references)


def check_corpus_against_itself(directory, corpus, base_references):
    corpus_path, references_path, report_path = (directory / name for name in ("x.jsonl", "refs.jsonl", "report.json"))
    write_jsonl(corpus_path, corpus)
    write_jsonl(references_path, base_references)

    code, table = run("eval", "-b", corpus_path, "-a", corpus_path)
    if code == 0:
        assert_rows_equal_but_for_system(table)

    # -r X holds every record's own id. The base references hold ids without
    # a .vN suffix, and may lack one, which fails the run.
    for references in (corpus_path, references_path):
        code, table = run("eval", "-b", corpus_path, "-a", corpus_path, "-r", references, "-o", report_path)
        if code == 0:
            assert_rows_equal_but_for_system(table)
            before, after = json.loads(report_path.read_text(encoding="utf-8"))["systems"]
            assert {**before, "system": "after"} == after
            report_path.unlink()
        assert not report_path.exists()

    code, lines = run("analyze", "-b", corpus_path, "-a", corpus_path)
    if code == 0:
        assert f"no_change\t{len(corpus)}\t1.0000" in lines.splitlines()
