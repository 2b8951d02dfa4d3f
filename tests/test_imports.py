"""Start-up cost: what ``import sumnoise.cli`` loads, checked in a fresh interpreter."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Loaded only on the paths that need them: the external denoiser (subprocess,
# shlex), noise seeding (_blake2), `eval -r`'s copy of the reference
# summaries (tempfile), and nothing at all (dataclasses, which brings
# inspect, ast, dis and tokenize; hashlib, which loads OpenSSL; queue).
DEFERRED = {"dataclasses", "inspect", "subprocess", "_blake2", "hashlib", "shlex", "queue", "tempfile"}


def modules_added_by(statement: str) -> set[str]:
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "bare = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - bare)))\n"
    )
    # -I: no PYTHON* variables and no user site, so only the statement loads
    # modules; -B: write no bytecode into the source tree.
    result = subprocess.run(
        [sys.executable, "-I", "-B", "-c", probe], capture_output=True, text=True, check=True, timeout=60
    )
    return set(result.stdout.split())


def test_importing_the_cli_loads_no_path_specific_module():
    added = modules_added_by("import sumnoise.cli")
    assert "sumnoise.cli" in added
    assert added & DEFERRED == set()


def test_noise_seeding_does_not_load_openssl():
    added = modules_added_by("import sumnoise.cli, sumnoise.noising as n; n.derive_seed(1, 'r1', 0)")
    assert "_blake2" in added
    assert {"hashlib", "_hashlib"} & added == set()


def test_importing_the_cli_loads_no_scoring_code():
    # noise and denoise run `python -m sumnoise.cli`, which imports the
    # package first; only eval, analyze and stats load the scoring layer.
    assert "sumnoise.analysis" not in modules_added_by("import sumnoise.cli")
    assert modules_added_by("import sumnoise") == {"sumnoise"}
