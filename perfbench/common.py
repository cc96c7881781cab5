"""Settings, output checks, statistics and per-layer metrics shared by the
benchmark's workloads."""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from pathlib import Path

import numpy as np

# Shared generation controls: a looped four-chord progression, a 24-bar
# structure, one genre, and the CLI's max_tokens (the library default of
# 2000 truncates these songs).
CHORDS_ARG = "F,C,G,A:min"
STRUCTURE_ARG = "intro*4,verse*8,chorus*8,outro*4"
GENRE = "Pop"
MAX_TOKENS = 20000
ORDER = 5

# Songs per run whose token streams are digested: seeds
# seed..seed+DIGEST_SONGS-1, the same set `generate -n 8` writes.
DIGEST_SONGS = 8
DEFAULT_SEED = 0
GOLDEN = Path(__file__).with_name("golden.json")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def control_spec():
    from sympac.fsm import ControlSpec, parse_chords_arg, parse_structure_arg

    return ControlSpec(
        genre=GENRE,
        sections=parse_structure_arg(STRUCTURE_ARG),
        chords=parse_chords_arg(CHORDS_ARG),
    )


def song_problems(tokens: list[int], control) -> list[str]:
    """Why a generated sequence is wrong; empty when it is right.

    It must pass the grammar check, decode, and match the controls bar
    by bar: the looped chord alone at step 0, the section, the genre.
    """
    from sympac.encoding import decode_sequence, validate
    from sympac.errors import SympacError

    violations = validate(list(tokens))
    if violations:
        return [f"invalid: {violations[0]}"]
    try:
        song = decode_sequence(list(tokens))
    except SympacError as exc:
        return [f"decode: {exc}"]
    problems = []
    if song.genre != control.genre:
        problems.append(f"genre {song.genre} != {control.genre}")
    if len(song.bars) != len(control.sections):
        problems.append(f"{len(song.bars)} bars != {len(control.sections)}")
    for i, (bar, section) in enumerate(zip(song.bars, control.sections)):
        chord = control.chords[i % len(control.chords)]
        if bar.section != section:
            problems.append(f"bar {i}: section {bar.section} != {section}")
        if list(bar.chords) != [(0, chord)]:
            problems.append(f"bar {i}: chords {bar.chords} != {[(0, chord)]}")
    return problems


def stream_digest(streams: list[list[int]]) -> str:
    return hashlib.sha256(json.dumps([list(map(int, s)) for s in streams]).encode()).hexdigest()


def digest_problems(workload: str, seed: int, runs: list) -> list[str]:
    """Print the digest of the first run's token streams; return why the
    runs disagree, or (for the default seed) why the digest differs from
    the one stored in golden.json."""
    digests = [stream_digest(streams) for streams in runs]
    print(f"{workload} token digest (seeds {seed}..{seed + DIGEST_SONGS - 1}): {digests[0]}")
    problems = []
    if len(set(digests)) > 1:
        problems.append(f"runs on one seed generated different songs: {sorted(set(digests))}")
    if seed == DEFAULT_SEED:
        want = json.loads(GOLDEN.read_text())[workload]
        if digests[0] != want:
            problems.append(f"token digest {digests[0]} != stored {want}")
    return problems


# Host speed.  Other tenants of a shared host slow every CPU-bound loop
# together, so the metrics alone cannot tell a slower program from a busier
# host.  Each workload therefore also times a fixed reference computation,
# the probe, before and after its measuring loop and prints it beside the
# metrics, which stay as measured.  The probe does the same kind of work as
# the library, interpreter loops and small NumPy calls on 336-wide vectors;
# its code must not change, or probe readings stop being comparable.
PROBE_REPEATS = 20
_PROBE_VECTOR = np.arange(336.0) / 336.0


def probe_ms(times: int = PROBE_REPEATS) -> float:
    """Median milliseconds of ``times`` runs of the reference computation."""
    v = _PROBE_VECTOR
    samples = []
    for _ in range(times):
        t0 = time.perf_counter()
        acc = 0
        for i in range(90):
            ids = np.flatnonzero(v > (i % 300) / 336.0)
            cumulative = np.cumsum(np.exp(v[ids] - 1.0))
            acc += int(np.searchsorted(cumulative, cumulative[-1] * 0.5)) + i % 9
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)


def print_host(workload: str, before_ms: float, after_ms: float, p50_ms: float) -> None:
    """Diagnostic line: the probe around the loop, and the median operation
    time divided by the mean probe (operation time in probe units)."""
    print(
        f"{workload}: host probe {before_ms:.4f} ms before, {after_ms:.4f} ms after; "
        f"op_ms_p50 / probe = {p50_ms * 2 / (before_ms + after_ms):.2f}"
    )


# Set-up runs at least this many times and for at least this long in every
# run, and setup_s is the median: a single set-up of a few milliseconds is
# at the mercy of one scheduler stall.
SETUP_REPEATS = 5
SETUP_MIN_S = 2.0


def timed_setup(setup):
    """(last result of ``setup()``, median seconds of its calls)."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_MIN_S:
        t0 = time.perf_counter()
        result = setup()
        times.append(time.perf_counter() - t0)
    return result, median(times)


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float]:
    """(value, percentile) of the sample with max(10, n/10) samples beyond it.

    That is p90 once a run has 100 samples and, below that, the highest
    percentile with ten samples beyond it; with ten or fewer samples, the
    largest.  A fixed p90 rather than p99 for long runs, because the
    highest percentiles of 15 ms songs on a shared host measure scheduler
    stalls, not the program.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return float(ordered[-1]), 100.0
    beyond = max(10, n // 10)
    return float(ordered[n - beyond - 1]), 100.0 * (n - beyond) / n


def replay(model, control, streams: list[list[int]]) -> dict:
    """Walk the machine over finished streams, outside every timed region.

    Returns the share of steps whose mask keeps a single id, the mean
    number of ids kept, and the mean model probability outside the mask.
    """
    from sympac import fsm

    rules = fsm.build_rules()
    cc = fsm.compile_control(control)
    steps = singles = kept = 0
    masked = 0.0
    for tokens in streams:
        state = fsm.initial_state(control)
        for i in range(1, len(tokens)):
            mask = np.asarray(fsm.mask_for_state(rules, state, cc))
            ids = np.flatnonzero(mask) if mask.dtype == bool else mask
            scores = np.asarray(model.score(tokens[:i]), dtype=float)
            probs = np.exp(scores - scores.max())
            probs /= probs.sum()
            steps += 1
            singles += len(ids) == 1
            kept += len(ids)
            masked += 1.0 - float(probs[ids].sum())
            state = fsm.update_state(rules, state, tokens[i])
    return {
        "fsm.singleton_share": singles / steps,
        "fsm.mask_ids_mean": kept / steps,
        "sampler.masked_mass_mean": masked / steps,
    }


def sampler_layers(stats: dict, steps: int, rounds: int) -> dict:
    """Per-step self times of the layers under constrained_sample, from
    ``rounds`` traced rounds of ``steps`` steps each."""

    def us(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0) * 1e6 / (steps * rounds)

    return {
        "lm.score_us_per_step": us("lm.score"),
        "lm.score_calls": stats.get("lm.score", {}).get("calls", 0) / rounds,
        "fsm.mask_us_per_step": us("fsm.mask"),
        "fsm.update_us_per_step": us("fsm.update"),
        "sampler.renormalize_us_per_step": us("sampler.renormalize"),
        "sampler.loop_self_us_per_step": us("sampler.constrained_sample"),
    }


def per_call_ms(stats: dict, *names: str) -> float:
    """Self milliseconds per call of the first name, summed over names."""
    calls = stats.get(names[0], {}).get("calls", 0)
    if not calls:
        return 0.0
    return sum(stats.get(n, {}).get("self_s", 0.0) for n in names) * 1e3 / calls


def layer_share(stats: dict, traced_s: float, roots: set[str]) -> float:
    """Share of the traced wall time spent in layer spans below the root
    spans: time the trace attributes to a named layer, not to the loop or
    command that called it."""
    return sum(row["self_s"] for name, row in stats.items() if name not in roots) / traced_s


def self_share(stats: dict, traced_s: float) -> float:
    """Share of the traced wall time all spans' self times add up to."""
    return sum(row["self_s"] for row in stats.values()) / traced_s


# Library functions constrained_sample calls, wrapped in a traced run.
def sampler_targets():
    import sympac.sampler as sampler

    return [
        (sampler, "get_sub_vocab", "fsm.mask"),
        (sampler, "update_state", "fsm.update"),
        (sampler, "renormalize", "sampler.renormalize"),
    ]


def layer_metrics(values: dict) -> dict:
    """Every per-layer metric BENCHMARK.json lists; a layer this workload
    does not run reads 0."""
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    unknown = set(values) - {m["name"] for m in listed}
    if unknown:
        raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
