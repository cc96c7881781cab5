"""In-process constrained generation: one caller, songs one after another.

``gen_ngram_controlled`` trains an order-5 n-gram model in set-up;
``gen_uniform_controlled`` plugs in the uniform model, so nearly all of
its time is the library's own per-token overhead.
"""

from __future__ import annotations

import resource
import shutil
import time
from pathlib import Path

import common
import inputs
from tracing import Tracer, TimedModel, add_self_times, patched

# Root span of a traced song; everything else is a layer below it.
ROOTS = {"sampler.constrained_sample"}
# The warm-up song's seed lies beyond every seed a run measures.
WARM_UP_OFFSET = 10**6


def encode_corpus(ingest_dir: Path) -> list[list[int]]:
    """Token sequences of every well-formed input file, in `ingest` order."""
    from sympac.encoding import encode_song
    from sympac.errors import SympacError
    from sympac.ingest import parse_annotations, quantize_to_grid
    from sympac.smf import import_smf

    corpus = []
    for path in sorted(ingest_dir.iterdir()):
        data = path.read_bytes()
        try:
            if path.suffix == ".mid":
                songs = [import_smf(data, source_id=path.stem, genre=common.GENRE)]
            elif path.suffix == ".jsonl":
                songs = [parse_annotations(line) for line in data.decode().splitlines() if line]
            else:
                songs = [parse_annotations(data)]
        except SympacError:
            continue
        corpus += [encode_song(quantize_to_grid(song)) for song in songs]
    return corpus


def _setup_once(workload: str, seed: int, work: Path):
    """Model, rules and control, warmed by one song outside the seeds used."""
    from sympac.fsm import build_rules
    from sympac.lm import UniformModel, train_ngram
    from sympac.sampler import SamplerConfig, constrained_sample

    info = {}
    if workload == "gen_ngram_controlled":
        shutil.rmtree(work, ignore_errors=True)
        written = inputs.write_inputs(work, seed)
        corpus = encode_corpus(written["ingest_dir"])
        if len(corpus) != inputs.N_SONGS:
            raise RuntimeError(f"set-up encoded {len(corpus)} of {inputs.N_SONGS} songs")
        t0 = time.perf_counter()
        model = train_ngram(corpus, order=common.ORDER)
        info["train_s"] = time.perf_counter() - t0
        info["train_tokens"] = sum(map(len, corpus))
    else:
        model = UniformModel()
    rules = build_rules()
    control = common.control_spec()
    warm_up = SamplerConfig(rng_seed=seed + WARM_UP_OFFSET, max_tokens=common.MAX_TOKENS)
    constrained_sample(model, rules, control, warm_up)
    return model, rules, control, info


def _sample(sample_fn, model, rules, control, seed: int):
    """(tokens, truncated, seconds); tokens is None on a constraint conflict."""
    from sympac.errors import ConstraintConflictError
    from sympac.sampler import SamplerConfig

    config = SamplerConfig(rng_seed=seed, max_tokens=common.MAX_TOKENS)
    t0 = time.perf_counter()
    try:
        result = sample_fn(model, rules, control, config)
    except ConstraintConflictError:
        return None, False, time.perf_counter() - t0
    return result.tokens, result.truncated, time.perf_counter() - t0


def run(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    import sympac.cli  # noqa: F401  imports every layer, outside the set-up timing

    (model, rules, control, info), setup_s = common.timed_setup(
        lambda: _setup_once(workload, seed, work / "inputs")
    )
    if trace:
        return _traced(workload, seed, seconds, model, rules, control, info, work)

    from sympac.sampler import constrained_sample

    song_s, song_tokens, streams, problems = [], [], [], []
    failed = 0
    probe_before = common.probe_ms()
    start = time.perf_counter()
    while len(song_s) < common.DIGEST_SONGS or time.perf_counter() - start < seconds:
        song_seed = seed + len(song_s)
        tokens, truncated, secs = _sample(constrained_sample, model, rules, control, song_seed)
        # Checked as it comes, so memory does not grow with the songs a run fits in.
        bad, wrong = _outcome(song_seed, tokens, truncated, control)
        failed += bad
        problems += wrong
        song_s.append(secs)
        song_tokens.append(None if tokens is None else len(tokens) - 1)
        if len(streams) < common.DIGEST_SONGS:
            streams.append(tokens or [])
    probe_after = common.probe_ms()
    wrong = common.digest_problems(workload, seed, [streams])
    failed += len(wrong)
    problems += wrong

    song_ms = [s * 1e3 for s in song_s]
    sampled = [(n, s) for n, s in zip(song_tokens, song_s) if n is not None]
    tail_ms, tail_pct = common.tail(song_ms)
    print(f"{workload}: {len(song_s)} songs; tail is p{tail_pct:.2f} of {len(song_s)}")
    common.print_host(workload, probe_before, probe_after, common.median(song_ms))
    return {
        "correct": not problems,
        "attempted": len(song_s),
        "failed": failed,
        "problems": problems,
        "metrics": {
            "setup_s": (setup_s, "s"),
            # Tokens of every song that returned, over those songs' time.
            "tokens_per_s": (sum(n for n, _ in sampled) / sum(s for _, s in sampled), "tokens/s"),
            "op_ms_p50": (common.median(song_ms), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }


def _outcome(song_seed: int, tokens, truncated: bool, control) -> tuple[bool, list[str]]:
    """(failed, wrong outputs) for one song: a conflict, a truncation or a
    song that breaks the grammar or the controls fails; only the last is wrong."""
    if tokens is None:
        print(f"seed {song_seed}: constraint conflict")
        return True, []
    if truncated:
        print(f"seed {song_seed}: truncated at {len(tokens)} tokens")
        return True, []
    found = common.song_problems(tokens, control)
    return bool(found), [f"seed {song_seed}: {found[0]}"] if found else []


def _traced(workload, seed, seconds, model, rules, control, info, work) -> dict:
    """Alternate untraced and traced rounds over the digested seeds.

    Each round samples the same songs both ways, so the token streams
    must agree, and the time gap between them is the tracing overhead.
    """
    import sympac.sampler as sampler

    seeds = range(seed, seed + common.DIGEST_SONGS)
    rounds, problems, stats = [], [], {}
    first = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        plain = [_sample(sampler.constrained_sample, model, rules, control, s) for s in seeds]
        tracer = Tracer()
        proxy = TimedModel(model, tracer)
        with patched(tracer, common.sampler_targets()):
            sample_fn = tracer.wrap("sampler.constrained_sample", sampler.constrained_sample)
            traced = []
            for s in seeds:
                tracer.request = f"song:{s}"
                traced.append(_sample(sample_fn, proxy, rules, control, s))
        if [t for t, _, _ in traced] != [t for t, _, _ in plain]:
            problems.append("traced token streams differ from untraced ones")
        rounds.append((sum(x for _, _, x in plain), sum(x for _, _, x in traced)))
        add_self_times(stats, tracer.self_times())
        first = first or (plain, traced, tracer)

    plain, traced, tracer = first
    found = common.digest_problems(workload, seed, [[t or [] for t, _, _ in plain]])
    failed = len(found)
    for song_seed, (tokens, truncated, _) in zip(seeds, plain):
        bad, wrong = _outcome(song_seed, tokens, truncated, control)
        failed += bad
        found += wrong
    tracer.write_jsonl(work / f"trace_{workload}.jsonl")
    streams = [t for t, _, _ in traced if t is not None]
    steps = sum(len(t) - 1 for t in streams)
    values = common.sampler_layers(stats, steps, len(rounds))
    values.update(common.replay(model, control, streams))
    traced_s = sum(t for _, t in rounds)
    values.update(
        {
            "fsm.steps": steps,
            "fsm.conflicts": sum(t is None for t, _, _ in traced),
            "sampler.truncated": sum(trunc for _, trunc, _ in traced),
            "trace.overhead_share": common.median([t / u - 1 for u, t in rounds]),
            "trace.layer_share": common.layer_share(stats, traced_s, ROOTS),
        }
    )
    print(f"{workload}: span self times add up to {common.self_share(stats, traced_s):.5f} of the traced time")
    if "train_s" in info:
        values["lm.train_us_per_token"] = info["train_s"] * 1e6 / info["train_tokens"]
    print(f"{workload}: {len(rounds)} traced rounds of {len(seeds)} songs, {steps} steps each")
    return {
        "correct": not problems and not found,
        "attempted": len(plain),
        "failed": failed,
        "problems": problems + found,
        "layers": values,
    }
