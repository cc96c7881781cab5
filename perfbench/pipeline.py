"""The CLI sequence a user runs, one `python -m sympac.cli` command at a time.

ingest -> train -> generate -> validate -> evaluate, each as its own
process with `--jobs 1`, so interpreter start-up, training, model
save/load, MIDI export and evaluation all sit on the critical path.  A
separate one-file `ingest` of a known-crashing document runs after the
timed sequence; it is expected to be rejected with exit 2.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import common
import inputs
from tracing import Tracer, TimedModel, add_self_times, patched

STEPS = ("ingest", "train", "generate", "validate", "evaluate")
REPORTS = (
    "kld_report.json",
    "kld_report.txt",
    "kld_report.csv",
    "chord_accuracy.json",
    "structure_scores.json",
)
COMMAND_TIMEOUT_S = 120
# Root spans of the traced commands; everything else is a layer below them.
ROOTS = {f"cli.{step}" for step in (*STEPS, "crash")}


def _commands(files: dict, out: Path, seed: int) -> list[tuple[str, list[str], int]]:
    """(step, argv, expected exit code) for one pipeline into ``out``."""
    corpus, model, gen = str(out / "corpus.bin"), str(out / "model.bin"), str(out / "gen")
    controls = ["--chords", common.CHORDS_ARG, "--structure", common.STRUCTURE_ARG]
    return [
        ("ingest", ["ingest", str(files["ingest_dir"]), "--out", corpus, "--jobs", "1"], 0),
        ("train", ["train", "--corpus", corpus, "--out", model, "--order", str(common.ORDER)], 0),
        (
            "generate",
            ["generate", "--model", model, "--out-dir", gen, "-n", str(common.DIGEST_SONGS),
             "--seed", str(seed), *controls, "--genre", common.GENRE,
             "--max-tokens", str(common.MAX_TOKENS), "--midi", "--text", "--jobs", "1"],
            0,
        ),
        ("validate", ["validate", gen], 0),
        (
            "evaluate",
            ["evaluate", "--generated", gen, "--reference", corpus,
             "--which", "kld,chords,structure", *controls, "--jobs", "1"],
            0,
        ),
        # The expected outcome for a malformed file is a clean reject, exit 2.
        ("crash", ["ingest", str(files["crash_path"]), "--out", str(out / "crash.bin")], 2),
    ]


def _subprocess_runner(env: dict):
    def run(step: str, argv: list[str]) -> tuple[int, str, str]:
        proc = subprocess.run(
            [sys.executable, "-m", "sympac.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=COMMAND_TIMEOUT_S,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _inprocess_runner(main):
    """Runs ``main(step, argv)`` in this process, capturing its output."""

    def run(step: str, argv: list[str]) -> tuple[int, str, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(step, argv)
            except Exception as exc:  # an uncaught error exits 1 from a process
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                code = 1
        return code, out.getvalue(), err.getvalue()

    return run


def run_pipeline(runner, files: dict, out: Path, seed: int) -> dict:
    """Run every command; the timed sequence excludes the crash file."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    results = {}
    for step, argv, expected in _commands(files, out, seed):
        t0 = time.perf_counter()
        code, stdout, stderr = runner(step, argv)
        results[step] = (code, expected, stdout, stderr, time.perf_counter() - t0)
    return results


def check_pipeline(results: dict, files: dict, out: Path, control) -> dict:
    """Failed operations, wrong outputs, and the generated token streams.

    Operations: each ingest-directory file, the crash file, the four
    later commands, and each generated song.
    """
    from sympac.encoding import read_token_file

    problems, failures = [], []
    for step, (code, expected, _, stderr, _) in results.items():
        if code != expected:
            failures.append(f"{step}: exit {code}, expected {expected}")
            if step != "crash":
                problems.append(f"{step}: exit {code}: {stderr.strip()[-300:]}")

    ingest_out, ingest_err = results["ingest"][2], results["ingest"][3]
    n_files = len(list(files["ingest_dir"].iterdir()))
    rejected = sorted(Path(p).name for p in re.findall(r"^reject (.+?): ", ingest_err, re.M))
    lengths = [int(n) for n in re.findall(r"^ingest .+: (\d+) tokens$", ingest_out, re.M)]
    unexpected = sorted(set(rejected) ^ set(files["rejects"]))
    failures += [f"ingest: unexpected outcome for {name}" for name in unexpected]
    if unexpected or len(lengths) != inputs.N_SONGS:
        problems.append(f"ingest: {len(lengths)} songs, rejects {rejected}")

    gen = out / "gen"
    streams = []
    for i in range(common.DIGEST_SONGS):
        stem = gen / f"sample_{i:04d}"
        missing = [p.name for p in (stem.with_suffix(".tokens"), Path(f"{stem}.tokens.txt"),
                                    stem.with_suffix(".mid")) if not p.exists()]
        if missing:
            failures.append(f"song {i}: missing {missing}")
            problems.append(f"generate: missing {missing}")
            streams.append([])
            continue
        tokens = read_token_file(stem.with_suffix(".tokens"))
        streams.append(tokens)
        found = common.song_problems(tokens, control)
        if found:
            failures.append(f"song {i}: {found[0]}")
            problems.append(f"song {i}: {found[0]}")
    missing = [name for name in REPORTS if not (gen / "reports" / name).exists()]
    if missing:
        problems.append(f"evaluate: missing reports {missing}")
    return {
        "attempted": n_files + 1 + 4 + common.DIGEST_SONGS,
        "failures": failures,
        "problems": problems,
        "streams": streams,
        "lengths": lengths,
        "n_files": n_files,
        "rejected": len(rejected),
    }


def _write_inputs(seed: int, work: Path) -> dict:
    shutil.rmtree(work / "inputs", ignore_errors=True)
    return inputs.write_inputs(work / "inputs", seed)


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    files, setup_s = common.timed_setup(lambda: _write_inputs(seed, work))
    subprocess_runner = _subprocess_runner({**os.environ, "PYTHONPATH": str(common.SRC)})
    control = common.control_spec()
    if trace:
        return _traced(seed, seconds, files, work, subprocess_runner, control)

    walls, generate_s, checked = [], [], []
    probe_before = common.probe_ms()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        results = run_pipeline(subprocess_runner, files, work / "out", seed)
        walls.append(sum(results[step][4] for step in STEPS))
        generate_s.append(results["generate"][4])
        checked.append(check_pipeline(results, files, work / "out", control))
    probe_after = common.probe_ms()

    problems = common.digest_problems(workload, seed, [c["streams"] for c in checked])
    failures = [f for c in checked for f in c["failures"]]
    for c in checked:
        problems += c["problems"]
    for line in sorted(set(failures)):
        print(f"failed: {line}")
    tokens = sum(len(s) - 1 for c in checked for s in c["streams"] if s)
    tail_s, tail_pct = common.tail(walls)
    print(f"cli_pipeline: {len(walls)} pipelines; tail is p{tail_pct:.2f} of {len(walls)}")
    common.print_host(workload, probe_before, probe_after, common.median(walls) * 1e3)
    return {
        "correct": not problems,
        "attempted": sum(c["attempted"] for c in checked),
        "failed": len(failures),
        "problems": problems,
        "metrics": {
            "setup_s": (setup_s, "s"),
            # Generated tokens over the `generate` commands' wall time,
            # process start-up and model load included.
            "tokens_per_s": (tokens / sum(generate_s), "tokens/s"),
            "op_ms_p50": (common.median(walls) * 1e3, "ms"),
            "op_ms_tail": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        },
    }


def _cli_targets(tracer: Tracer):
    """Library functions `sympac.cli` calls, as (module, attr, span) triples.

    Loaded models come back wrapped, so `generate` scores through a proxy
    whose calls are spans too.
    """
    import sympac.cli as cli

    return [
        (cli, "parse_annotations", "ingest.parse"),
        (cli, "quantize_to_grid", "ingest.quantize"),
        (cli, "import_smf", "smf.import"),
        (cli, "encode_song", "encoding.encode"),
        (cli, "train_ngram", "lm.train"),
        (cli, "save_model_file", "lm.save"),
        (cli, "load_model_file", "lm.load", lambda model: TimedModel(model, tracer)),
        (cli, "perplexity", "lm.perplexity"),
        (cli, "constrained_sample", "sampler.constrained_sample"),
        (cli, "validate", "encoding.validate"),
        (cli, "decode_sequence", "encoding.decode"),
        (cli, "export_smf", "smf.export"),
        (cli, "class_report", "metrics.class_report"),
        (cli, "detect_bar_chords", "chroma.detect"),
        (cli, "estimate_structure", "structure.estimate"),
        (cli, "structure_scores", "structure.scores"),
        (cli, "oracle_scores", "structure.oracle"),
    ]


def _traced(seed, seconds, files, work, subprocess_runner, control) -> dict:
    """Per-command process times, then in-process runs without and with spans.

    Commands run in-process through `sympac.cli.main`, once plain and once
    with wrappers around the library functions it calls; their token
    streams must agree, and the wall-time gap is the tracing overhead.
    """
    import sympac.cli as cli

    startup = []
    for _ in range(3):
        t0 = time.perf_counter()
        subprocess_runner("startup", ["--help"])
        startup.append(time.perf_counter() - t0)
    plain_main = _inprocess_runner(lambda step, argv: cli.main(argv))
    run_pipeline(plain_main, files, work / "out", seed)  # warms caches in this process
    command_s = {step: [] for step in STEPS}
    rounds, problems, stats = [], [], {}
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        by_process = run_pipeline(subprocess_runner, files, work / "out", seed)
        for step in STEPS:
            command_s[step].append(by_process[step][4])
        plain = run_pipeline(plain_main, files, work / "out", seed)
        plain_check = check_pipeline(plain, files, work / "out", control)

        tracer = Tracer()
        with patched(tracer, _cli_targets(tracer) + common.sampler_targets()):

            def main(step, argv):
                tracer.request = step
                return tracer.wrap(f"cli.{step}", cli.main)(argv)

            traced = run_pipeline(_inprocess_runner(main), files, work / "out", seed)
        traced_check = check_pipeline(traced, files, work / "out", control)
        if traced_check["streams"] != plain_check["streams"]:
            problems.append("traced token streams differ from untraced ones")
        # Overhead over the timed sequence; accounting over every command.
        rounds.append(
            (
                sum(plain[step][4] for step in STEPS),
                sum(traced[step][4] for step in STEPS),
                sum(r[4] for r in traced.values()),
            )
        )
        add_self_times(stats, tracer.self_times())
        first = first or (plain_check, traced_check, tracer)

    plain_check, traced_check, tracer = first
    problems += plain_check["problems"] + common.digest_problems(
        "cli_pipeline", seed, [plain_check["streams"]]
    )
    tracer.write_jsonl(work / "trace_cli_pipeline.jsonl")
    streams = [s for s in traced_check["streams"] if s]
    steps = sum(len(s) - 1 for s in streams)
    lengths = traced_check["lengths"]

    from sympac.lm import load_model_file

    traced_s = sum(a for _, _, a in rounds)
    values = {f"cli.{step}_s": common.median(command_s[step]) for step in STEPS}
    values.update(common.sampler_layers(stats, max(steps, 1), len(rounds)))
    values.update(common.replay(load_model_file(work / "out" / "model.bin"), control, streams))
    values.update(
        {
            "cli.startup_s": common.median(startup),
            "ingest.parse_ms": common.per_call_ms(stats, "ingest.parse"),
            "ingest.quantize_ms": common.per_call_ms(stats, "ingest.quantize"),
            "smf.import_ms": common.per_call_ms(stats, "smf.import"),
            "encoding.encode_ms": common.per_call_ms(stats, "encoding.encode"),
            "ingest.files": traced_check["n_files"],
            "ingest.rejected": traced_check["rejected"],
            "lm.train_us_per_token": common.per_call_ms(stats, "lm.train") * 1e3 / max(sum(lengths), 1),
            "lm.save_ms": common.per_call_ms(stats, "lm.save"),
            "lm.load_ms": common.per_call_ms(stats, "lm.load"),
            # `train` scores its first 20 sequences for perplexity.
            "lm.perplexity_us_per_token": (
                common.per_call_ms(stats, "lm.perplexity") * 1e3 / max(sum(lengths[:20]), 1)
            ),
            "fsm.steps": steps,
            "fsm.conflicts": traced["generate"][0] == 3,
            "sampler.truncated": traced["generate"][3].count("truncated at"),
            "encoding.validate_ms": common.per_call_ms(stats, "encoding.validate"),
            "encoding.decode_ms": common.per_call_ms(stats, "encoding.decode"),
            "smf.export_ms": common.per_call_ms(stats, "smf.export"),
            "metrics.class_report_s": common.per_call_ms(stats, "metrics.class_report") / 1e3,
            "chroma.detect_ms": common.per_call_ms(stats, "chroma.detect"),
            "structure.estimate_ms": common.per_call_ms(stats, "structure.estimate"),
            "structure.scores_ms": common.per_call_ms(stats, "structure.scores", "structure.oracle"),
            "structure.skipped": stats.get("structure.scores", {}).get("failed", 0) / len(rounds),
            "trace.overhead_share": common.median([t / u - 1 for u, t, _ in rounds]),
            "trace.layer_share": common.layer_share(stats, traced_s, ROOTS),
        }
    )
    print(f"cli_pipeline: span self times add up to {common.self_share(stats, traced_s):.5f} of the traced time")
    print(f"cli_pipeline: {len(rounds)} traced rounds")
    return {
        "correct": not problems,
        "attempted": plain_check["attempted"],
        "failed": len(plain_check["failures"]),
        "problems": problems,
        "layers": values,
    }
