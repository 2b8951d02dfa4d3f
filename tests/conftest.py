from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # only the property tests need it, and they import it themselves
    HYPOTHESIS_HOME = None
else:
    # The same examples on every run, and no example database. Tests that set
    # max_examples keep their own.
    settings.register_profile("sumnoise", derandomize=True, database=None)
    settings.load_profile("sumnoise")
    # Hypothesis also caches constants from the source at collection time;
    # keep that out of the working directory too.
    HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="sumnoise-hypothesis-")
    set_hypothesis_home_dir(HYPOTHESIS_HOME.name)

FIXTURE_CORPUS = Path(__file__).resolve().parent.parent / "data" / "fixture_corpus.jsonl"


def pytest_unconfigure(config: pytest.Config) -> None:
    if HYPOTHESIS_HOME is not None:
        HYPOTHESIS_HOME.cleanup()


@pytest.fixture
def fixture_corpus() -> Path:
    assert FIXTURE_CORPUS.exists(), "fixture corpus missing; regenerate with python -m sumnoise.synth"
    return FIXTURE_CORPUS
