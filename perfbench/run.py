#!/usr/bin/env python3
"""Benchmark of the sumnoise pipeline: noise, denoise, eval, analyze, stats.

Run from the root of a source checkout (the package is used from ``src/``):

    python3 perfbench/run.py --workload synth-mixture --seed 1 --seconds 58 --trace 0

Each run generates its workload's corpus from ``--seed``, checks the corpus
digest, runs one untimed reference pass and then timed passes until
``--seconds`` are used up. The benchmark runs one subcommand at a time (a
closed loop); ``news-repeat-par`` adds the subcommands' own worker pool.

``--trace 0`` runs every subcommand as a child process with ``PYTHONPATH=src``
and prints the end-to-end metrics. ``--trace 1`` replays the same subcommands
in-process and serially through ``sumnoise.cli.cli_main``, alternating
untraced and traced passes, and prints the per-layer metrics; spans of the
last traced pass go to ``.perfbench_work/spans-<workload>-<seed>.jsonl``.

Every invocation is checked: exit status 0, output bytes identical across
passes and equal to the digest recorded in ``digests.json`` for the workload
and seed (when one is recorded), plus the semantic checks in
``check_reference``. The last line of standard output is the JSON result;
the line before it holds the run context and each metric's quartiles.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import corpora
import spans

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "digests.json")
LAUNCHER = os.path.join(HERE, "launcher.py")
VARIANTS = 3  # the noise subcommand's default --variants


@dataclass(frozen=True)
class Workload:
    shape: str
    records: int
    noise_type: str
    references: bool
    parallel: bool


# Sizes are chosen so that one pass takes about 3 s on a 2-CPU box: long
# enough that each subcommand's own work outweighs interpreter start-up,
# short enough for many passes (and so a steadier median) in one run. Each
# workload exercises one planned optimization that the other bypasses: LCS
# and noising alignment run on synth-mixture only, the worker pool on
# news-repeat-par only.
WORKLOADS = {
    # The paper's standard pipeline; eval -r (almost all LCS) dominates.
    "synth-mixture": Workload("synth", 700, "mixture", references=True, parallel=False),
    # Trivial per-record work: parse, serialize and the worker pool dominate.
    "news-repeat-par": Workload("news", 600, "repeat", references=False, parallel=True),
}

STEPS = ("noise", "denoise", "denoise_ext", "eval", "analyze", "stats")
RSS_STEPS = ("noise", "denoise", "eval", "analyze", "stats")

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_rps": "rec/s",
    **{f"{step}_rps": "rec/s" for step in STEPS},
    **{f"{step}_rss_mb": "MB" for step in RSS_STEPS},
}

# Per-layer metrics every workload reports. The ROUGE spans only run on
# workloads that pass references to eval; their self times are reported in
# the context line instead, and metrics.self_s carries them here.
PER_CALL_LAYERS = ("noising.make_noisy_record", "denoise.overlap_denoise", "analysis.classify_edit")
TIMED_LAYERS = tuple(layer for layer in spans.SPAN_LAYERS if not layer.startswith("metrics.rouge"))
COUNTS = (
    "metrics.lcs_cells", "noising.similarity_calls", "analysis.similarity_calls", "text.tokens",
    "corpus.bytes_in", "corpus.bytes_out", "denoise.deleted_sentences",
)
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in TIMED_LAYERS},
    "metrics.self_s": "s",
    "cli.other_s": "s",
    **{f"{layer}.calls": "count" for layer in spans.SPAN_LAYERS},
    **{f"{layer}.{q}_us": "us" for layer in PER_CALL_LAYERS for q in ("p50", "p99")},
    **{name: "count" for name in COUNTS},
    "noising.skipped_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple[str, ...]
    output: str
    stdout: bool  # the output is the subcommand's standard output


@dataclass(frozen=True)
class Result:
    code: int
    wall_s: float
    rss_mb: float


def pipeline(workload: Workload, seed: int, directory: str, workers: dict[str, int]) -> list[Step]:
    """The workload's subcommand invocations in run order.

    ``--seed`` goes only to noise, the one subcommand it affects; ``--workers``
    only to subcommands listed in ``workers``.
    """
    clean, noisy, denoised, external, eval_out, analyze_out, stats_out = (
        os.path.join(directory, name)
        for name in ("clean.jsonl", "noisy.jsonl", "denoised.jsonl", "external.jsonl",
                     "eval.tsv", "analyze.tsv", "stats.tsv")
    )

    def pool(step: str) -> tuple[str, ...]:
        return ("--workers", str(workers[step])) if step in workers else ()

    references = ("-r", clean) if workload.references else ()
    return [
        Step("noise", ("noise", "-i", clean, "-o", noisy, "--type", workload.noise_type,
                       "--seed", str(seed), *pool("noise")), noisy, False),
        Step("denoise", ("denoise", "-i", noisy, "-o", denoised, *pool("denoise")), denoised, False),
        Step("denoise_ext", ("denoise", "-i", noisy, "-o", external, "--method", "external",
                             "--command", "cat"), external, False),
        Step("eval", ("eval", "-b", noisy, "-a", denoised, *references), eval_out, True),
        Step("analyze", ("analyze", "-b", noisy, "-a", denoised), analyze_out, True),
        Step("stats", ("stats", "-i", noisy), stats_out, True),
    ]


def primary_records(step: str, clean_records: int) -> int:
    """Records of the subcommand's primary input: the clean corpus for noise, else the noisy one."""
    return clean_records if step == "noise" else clean_records * VARIANTS


# --- invoking the CLI -----------------------------------------------------


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


class Launcher:
    """Runs subcommands through ``launcher.py`` and reports wall time and peak RSS per child.

    Start it before building any corpus: its children's peak RSS counts from
    its own small address space (see ``launcher.py``).
    """

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", LAUNCHER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True,
        )

    def run(self, step: Step) -> Result:
        stdout = step.output if step.stdout else os.devnull
        argv = [sys.executable, "-m", "sumnoise.cli", *step.argv]
        self.proc.stdin.write(json.dumps([argv, stdout, step.output + ".stderr"]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the child-process launcher exited")
        code, wall, maxrss_kib = json.loads(reply)
        return Result(code, wall, maxrss_kib / 1024)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def call_in_process(step: Step, cli_main) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(step.argv))
    wall = time.perf_counter() - start
    if step.stdout:
        with open(step.output, "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())
    with open(step.output + ".stderr", "w", encoding="utf-8") as handle:
        handle.write(err.getvalue())
    return Result(code, wall, 0.0)


def lists_workers(subcommand: str) -> bool:
    helptext = subprocess.run(
        [sys.executable, "-m", "sumnoise.cli", subcommand, "--help"],
        env=child_env(), capture_output=True, text=True, timeout=60, check=False,
    ).stdout
    return "--workers" in helptext


# --- checks ---------------------------------------------------------------


def digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


def read_lines(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class Checker:
    """Counts invocations and failures; compares output digests with the reference pass."""

    def __init__(self, recorded: dict[str, str]):
        self.recorded = recorded
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)

    def invocation(self, key: str, step: Step, result: Result) -> None:
        """Check one invocation's exit status and output digest; the first output of ``key`` is the reference."""
        self.attempted += 1
        ok = result.code == 0
        if not ok:
            self.fail(f"{key}: exit status {result.code}: {tail(step.output + '.stderr')}")
        else:
            got = digest(step.output)
            want = self.reference.setdefault(key, got)
            if got != want:
                ok = False
                self.fail(f"{key}: output digest {got} differs from {want}")
            elif key in self.recorded and got != self.recorded[key]:
                ok = False
                self.fail(f"{key}: output digest {got} differs from recorded {self.recorded[key]}")
        self.failed += not ok

    def check(self, ok: bool, message: str) -> None:
        """Count one check; ``message`` describes its failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail(message)


def tail(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as handle:
            return handle.read()[-400:].strip()
    except OSError:
        return ""


def check_reference(workload: Workload, steps: list[Step], clean_records: int) -> list[str]:
    """Semantic checks on one complete pass's outputs."""
    paths = {step.name: step.output for step in steps}
    problems = []
    noisy = read_lines(paths["noise"])
    if len(noisy) != clean_records * VARIANTS:
        problems.append(f"noise wrote {len(noisy)} records, expected {clean_records * VARIANTS}")
    external = read_lines(paths["denoise_ext"])
    if [(r["id"], r["noisy"]) for r in external] != [(r["id"], r["noisy"]) for r in noisy]:
        problems.append("external denoise through cat changed the working summaries")
    if workload.noise_type == "repeat":
        restored = sum(r["noisy"] == r["summary"] for r in read_lines(paths["denoise"]))
        if restored != len(noisy):
            problems.append(f"overlap denoise restored {restored} of {len(noisy)} repeat variants")
    return problems


# --- the two modes ----------------------------------------------------------


def prepare(workload: Workload, seed: int, directory: str, recorded: dict[str, str], checker: Checker) -> None:
    """Write the corpus and a one-record probe corpus; check the corpus digest."""
    os.makedirs(os.path.join(directory, "probe"))
    clean = os.path.join(directory, "clean.jsonl")
    again = os.path.join(directory, "clean-again.jsonl")
    corpora.write_corpus(clean, workload.shape, workload.records, seed)
    corpora.write_corpus(again, workload.shape, workload.records, seed)
    got = digest(clean)
    checker.check(got == digest(again) == recorded.get("corpus", got),
                  f"corpus digest {got} is not reproducible or differs from recorded {recorded.get('corpus')}")
    os.remove(again)
    with open(clean, encoding="utf-8") as source, open(
        os.path.join(directory, "probe", "clean.jsonl"), "w", encoding="utf-8"
    ) as probe:
        probe.write(source.readline())


def reference_pass(workload: Workload, seed: int, directory: str, invoke, checker: Checker) -> None:
    """Untimed serial pass that fixes the reference digests and runs the semantic checks.

    It also warms the bytecode cache and lets lazy set-up finish, and its
    serial output is what a pooled run must reproduce byte for byte.
    """
    steps = pipeline(workload, seed, directory, {})
    for step in steps:
        checker.invocation(step.name, step, invoke(step))
    problems = check_reference(workload, steps, workload.records)
    checker.check(not problems, "; ".join(problems))


def run_end_to_end(workload: Workload, seed: int, seconds: float, directory: str, checker: Checker,
                   launcher: Launcher) -> tuple[dict, dict]:
    workers: dict[str, int] = {}
    if workload.parallel:
        nproc = len(os.sched_getaffinity(0))
        workers = {name: nproc for name in ("noise", "denoise") if lists_workers(name)}
    steps = pipeline(workload, seed, directory, workers)
    probe_steps = pipeline(workload, seed, os.path.join(directory, "probe"), workers)
    reference_pass(workload, seed, directory, launcher.run, checker)

    walls: dict[str, list[float]] = {step: [] for step in STEPS}
    rss: dict[str, list[float]] = {step: [] for step in RSS_STEPS}
    setup: list[float] = []
    pipeline_rps: list[float] = []
    start = time.perf_counter()
    passes = 0
    while True:
        pass_start = time.perf_counter()
        if passes % 2 == 0:
            probe_total = 0.0
            for step in probe_steps:
                result = launcher.run(step)
                checker.invocation("probe." + step.name, step, result)
                probe_total += result.wall_s
            setup.append(probe_total)
        total = 0.0
        for step in steps:
            result = launcher.run(step)
            checker.invocation(step.name, step, result)
            total += result.wall_s
            walls[step.name].append(result.wall_s)
            if step.name in rss:
                rss[step.name].append(result.rss_mb)
        pipeline_rps.append(workload.records / total)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= 5 and elapsed + (time.perf_counter() - pass_start) > seconds:
            break

    samples = {"setup_s": setup, "pipeline_rps": pipeline_rps}
    for step in STEPS:
        records = primary_records(step, workload.records)
        samples[f"{step}_rps"] = [records / wall for wall in walls[step]]
    for step in RSS_STEPS:
        samples[f"{step}_rss_mb"] = rss[step]
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    info = {"passes": passes, "workers": workers, "quartiles": quartiles(samples)}
    return metrics, info


def run_traced(workload: Workload, seed: int, seconds: float, directory: str, checker: Checker,
               spans_path: str) -> tuple[dict, dict]:
    sys.path.insert(0, SRC)
    from sumnoise.cli import cli_main  # noqa: E402  (the package is used from the source tree)

    steps = pipeline(workload, seed, directory, {})
    reference_pass(workload, seed, directory, lambda step: call_in_process(step, cli_main), checker)

    tracer = spans.Tracer()
    main_thread = threading.get_ident()
    untraced_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    counts: list[dict] = []
    last_spans: list[list] = []

    def one_pass(traced: bool) -> None:
        nonlocal last_spans
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall = 0.0
            for step in steps:
                result = call_in_process(step, cli_main)
                checker.invocation(step.name, step, result)
                wall += result.wall_s
        finally:
            tracer.uninstall()
        if traced:
            traced_walls.append(wall)
            summary = spans.summarize(tracer.spans, main_thread)
            summary["wall_s"] = wall
            layers.append(summary)
            counts.append(dict(tracer.counts))
            last_spans = tracer.spans
        else:
            untraced_walls.append(wall)

    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        # Alternate which side goes first so drift does not favour either.
        for traced in ((False, True) if rounds % 2 == 0 else (True, False)):
            one_pass(traced)
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= 2 and elapsed + (time.perf_counter() - round_start) > seconds:
            break

    spans.write_spans(last_spans, spans_path)
    metrics, extra = layer_metrics(workload, layers, counts, checker)
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1
    info = {"rounds": rounds, "spans_file": os.path.relpath(spans_path, ROOT), **extra}
    return metrics, info


def layer_metrics(workload: Workload, layers: list[dict], counts: list[dict], checker: Checker) -> tuple[dict, dict]:
    """Medians over traced passes; counts must repeat exactly from pass to pass."""
    checker.check(all(c == counts[0] for c in counts), "layer counts differ between traced passes")
    count = counts[0]

    def median_of(get) -> float:
        return statistics.median(get(layer) for layer in layers)

    metrics: dict[str, float] = {f"{layer}.calls": layers[0]["calls"].get(layer, 0) for layer in spans.SPAN_LAYERS}
    for name in COUNTS:
        metrics[name] = count.get(name, 0)
    not_run = set()
    if not workload.references:
        not_run |= {"metrics.rouge_n.calls", "metrics.rouge_l.calls", "metrics.lcs_cells"}
    if workload.noise_type == "repeat":
        not_run.add("noising.similarity_calls")
    missing = [name for name, value in metrics.items() if value == 0 and name not in not_run
               and name != "denoise.deleted_sentences"]
    checker.check(not missing, f"no spans or counts for {', '.join(missing)} on a workload that runs them")
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.self_s"] = median_of(lambda s, layer=layer: s["self_s"].get(layer, 0.0))
    metrics["metrics.self_s"] = median_of(
        lambda s: sum(v for k, v in s["self_s"].items() if k.startswith("metrics."))
    )
    metrics["cli.other_s"] = median_of(lambda s: s["wall_s"] - s["main_self_s"])
    for layer in PER_CALL_LAYERS:
        for name, q in (("p50", 0.50), ("p99", 0.99)):
            metrics[f"{layer}.{name}_us"] = median_of(
                lambda s, layer=layer, q=q: percentile(s["durations_ns"].get(layer, [0]), q) / 1e3
            )
    attempts = metrics["noising.make_noisy_record.calls"]
    metrics["noising.skipped_frac"] = count.get("noising.make_noisy_record.raised", 0) / max(attempts, 1)
    extra = {
        f"{layer}.self_s": median_of(lambda s, layer=layer: s["self_s"].get(layer, 0.0))
        for layer in spans.SPAN_LAYERS if layer.startswith("metrics.rouge")
    }
    if workload.references:
        for name, q in (("p50", 0.50), ("p99", 0.99)):
            extra[f"metrics.rouge_l.{name}_us"] = median_of(
                lambda s, q=q: percentile(s["durations_ns"]["metrics.rouge_l"], q) / 1e3
            )
    return metrics, {"workload_specific": extra}


def percentile(values: list[int], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def quartiles(samples: dict[str, list[float]]) -> dict[str, list[float]]:
    return {
        name: [round(v, 6) for v in statistics.quantiles(values, n=4)]
        for name, values in samples.items() if len(values) >= 2
    }


def run_context() -> dict:
    lines = 0
    for directory, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    lines += sum(1 for _ in handle)
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "src_lines": lines,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digests", action="store_true",
        help="run only the reference pass and store its digests in digests.json",
    )
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "sumnoise", "cli.py")):
        print(f"perfbench: no sumnoise source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            all_digests = json.load(handle)
    except FileNotFoundError:
        all_digests = {}
    recorded = {} if args.record_digests else all_digests.get(args.workload, {}).get(str(args.seed), {})
    checker = Checker(recorded)
    os.makedirs(WORK_ROOT, exist_ok=True)
    directory = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    launcher = None if args.trace else Launcher(child_env())
    try:
        prepare(workload, args.seed, directory, recorded, checker)
        if args.record_digests:
            reference_pass(workload, args.seed, directory, launcher.run, checker)
            if checker.failed:
                print("\n".join(checker.problems), file=sys.stderr)
                return 1
            checker.reference["corpus"] = digest(os.path.join(directory, "clean.jsonl"))
            all_digests.setdefault(args.workload, {})[str(args.seed)] = dict(sorted(checker.reference.items()))
            with open(DIGESTS, "w", encoding="utf-8") as handle:
                json.dump(all_digests, handle, indent=1, sort_keys=True)
                handle.write("\n")
            return 0
        if args.trace:
            spans_path = os.path.join(WORK_ROOT, f"spans-{args.workload}-{args.seed}.jsonl")
            metrics, info = run_traced(workload, args.seed, args.seconds, directory, checker, spans_path)
            units = PER_LAYER_UNITS
        else:
            metrics, info = run_end_to_end(workload, args.seed, args.seconds, directory, checker, launcher)
            units = END_TO_END_UNITS
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(directory, ignore_errors=True)

    for problem in checker.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **run_context(), **info,
        "failed_frac": checker.failed / checker.attempted,
    }
    print(json.dumps({"context": context}))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if checker.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
