"""Command-line entry point: ingest, train, generate, evaluate, and the
detect-chords / validate debugging commands.

Every generate run writes a manifest capturing the exact configuration,
seed, and input digests; re-running from the manifest reproduces the
output byte for byte.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 constraint conflict.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import os
import sys
from pathlib import Path

from . import __version__
from .chroma import TemplateBank, chord_accuracy, detect_bar_chords, ideal_bank
from .encoding import (
    decode_sequence,
    encode_song,
    iter_corpus,
    read_corpus,
    read_token_file,
    tokens_to_bytes,
    tokens_to_text,
    validate,
    write_corpus,
)
from .errors import (
    ConstraintConflictError,
    ControlError,
    SympacError,
)
from .fsm import ControlSpec, build_rules, parse_chords_arg, parse_structure_arg
from .ingest import parse_annotations, quantize_to_grid
from .lm import (
    DEFAULT_DISCOUNT,
    DEFAULT_ORDER,
    NgramModel,
    load_model_file,
    perplexity,
    save_model_file,
    train_ngram,
)
from .metrics import class_report, save_report
from .sampler import SamplerConfig, constrained_sample
from .smf import export_smf, import_smf
from .structure import (
    estimate_structure,
    oracle_scores,
    reference_structure,
    song_tempo_bpm,
    structure_scores,
)
from .vocab import GENRES, as_real, as_whole

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CONFLICT = 3


class _Usage(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise _Usage(message)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _env_seed() -> int:
    raw = os.environ.get("SYMPAC_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise _Usage(f"SYMPAC_SEED must be an integer, got {raw!r}") from None


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _Usage(f"config file: {exc}") from None
    if not isinstance(doc, dict):
        raise _Usage("config file must hold a JSON object")
    unknown = sorted(doc.keys() - _CONFIG_KEYS)
    if unknown:
        raise _Usage(f"config file: no command reads the key(s) {unknown}")
    return doc


def _exact(kind: type):
    """A converter that passes a ``kind`` value through and rejects any other."""

    def convert(value):
        if not isinstance(value, kind):
            raise TypeError(value)
        return value

    return convert


# Sampler settings and their converters, for config values and manifests alike.
_SAMPLER_SETTINGS = {
    "temperature": as_real,
    "top_k": lambda value: None if value is None else as_whole(value),
    "top_p": lambda value: None if value is None else as_real(value),
    "max_tokens": as_whole,
}


# Every key some command reads; one config file may serve them all.
_CONFIG_KEYS = {"genre", "jobs", "order", "discount", "seed", "n_samples", "control", *_SAMPLER_SETTINGS}


def _field(source: str, record: dict, key: str, convert):
    """``convert(record[key])``; a value it cannot convert is a usage error."""
    value = record[key]
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise _Usage(f"{source} {key!r} has a value of the wrong type: {value!r}") from None


def _cfg(args, config: dict, key: str, default, convert=None):
    """Explicit flag wins, then config file, then the built-in default.

    A config value goes through ``convert``; one it cannot convert is a
    usage error."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if key not in config:
        return default
    return config[key] if convert is None else _field("config", config, key, convert)


def _gather_inputs(paths: list[str]) -> list[Path]:
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            out.extend(
                sorted(
                    p
                    for p in path.rglob("*")
                    if p.suffix.lower() in (".json", ".jsonl", ".mid", ".midi")
                )
            )
        else:
            out.append(path)
    return out


def _map_jobs(fn, items, jobs: int, initializer=None, initargs=()) -> list:
    """``[fn(item) for item in items]``, spread over ``jobs`` worker
    processes when ``jobs`` > 1.  ``initializer(*initargs)`` runs first in
    every process that calls ``fn``: each worker, or this one."""
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs, initializer=initializer, initargs=initargs
        ) as pool:
            return list(pool.map(fn, items))
    if initializer is not None:
        initializer(*initargs)
    return [fn(item) for item in items]


# ---------------------------------------------------------------------------
# ingest

def _ingest_file(path: Path, default_genre: str) -> list[tuple[str, list[int]]]:
    """Token sequences for one input file; raises SympacError on bad data."""
    suffix = path.suffix.lower()
    data = path.read_bytes()
    if suffix in (".mid", ".midi"):
        songs = [import_smf(data, source_id=path.stem, genre=default_genre)]
    elif suffix == ".jsonl":
        songs = []
        for lineno, line in enumerate(data.decode("utf-8").splitlines(), 1):
            if line.strip():
                song = parse_annotations(line)
                if not song.source_id:
                    song.source_id = f"{path.stem}:{lineno}"
                songs.append(song)
    else:
        songs = [parse_annotations(data)]
        if not songs[0].source_id:
            songs[0].source_id = path.stem
    return [(s.source_id, encode_song(quantize_to_grid(s))) for s in songs]


def _ingest_or_reject(path: Path, genre: str) -> list[tuple[str, list[int]]] | Exception:
    """The sequences of one input file, or the error that rejects it."""
    try:
        return _ingest_file(path, genre)
    except (SympacError, OSError, UnicodeDecodeError) as exc:
        return exc


def _cmd_ingest(args, config: dict) -> int:
    inputs = _gather_inputs(args.inputs)
    if not inputs:
        raise _Usage("no input files found")
    genre = _cfg(args, config, "genre", "Pop")
    if genre not in GENRES:
        raise _Usage(f"unknown genre {genre!r}")
    jobs = _cfg(args, config, "jobs", 1, as_whole)

    results = _map_jobs(functools.partial(_ingest_or_reject, genre=genre), inputs, jobs)

    sequences: list[list[int]] = []
    failures = 0
    for path, result in zip(inputs, results):  # input order, whatever the jobs
        if isinstance(result, Exception):
            failures += 1
            print(f"reject {path}: {result}", file=sys.stderr)
            continue
        for source_id, seq in result:
            sequences.append(seq)
            print(f"ingest {source_id}: {len(seq)} tokens")
    if not sequences:
        print("all inputs failed", file=sys.stderr)
        return EXIT_DATA
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_corpus(out, sequences)
    print(
        f"wrote {len(sequences)} sequences to {out} "
        f"(mean length {sum(map(len, sequences)) / len(sequences):.0f}, rejects {failures})"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# train

def _cmd_train(args, config: dict) -> int:
    order = _cfg(args, config, "order", DEFAULT_ORDER, as_whole)
    discount = _cfg(args, config, "discount", DEFAULT_DISCOUNT, as_real)
    try:
        NgramModel(order, discount)
    except ValueError as exc:
        raise _Usage(f"model settings: {exc}") from None
    corpus = read_corpus(args.corpus)
    if not any(corpus):
        print("corpus is empty" if not corpus else "corpus holds no tokens", file=sys.stderr)
        return EXIT_DATA
    model = train_ngram(corpus, order=order, discount=discount)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_model_file(model, out)
    sample = [seq for seq in corpus if seq][:20]
    print(
        f"trained order-{order} model on {len(corpus)} sequences; "
        f"training-sample perplexity {perplexity(model, sample):.1f}; wrote {out}"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate

def _control_from_args(args, config: dict) -> ControlSpec:
    if getattr(args, "control", None):
        spec = ControlSpec.from_file(args.control)
    else:
        spec = ControlSpec.from_json(config.get("control", {}))
    updates: dict = {}
    if getattr(args, "chords", None):
        updates["chords"] = parse_chords_arg(args.chords)
    if getattr(args, "structure", None):
        updates["sections"] = parse_structure_arg(args.structure)
    if getattr(args, "genre", None):
        updates["genre"] = args.genre
    if getattr(args, "bpm_level", None) is not None:
        updates["bpm_level"] = args.bpm_level
    if getattr(args, "tracks", None):
        updates["allowed_tracks"] = frozenset(t.strip() for t in args.tracks.split(","))
    if getattr(args, "forced_tracks", None):
        updates["forced_tracks"] = frozenset(
            t.strip() for t in args.forced_tracks.split(",")
        )
    if getattr(args, "bars", None) is not None:
        updates["n_bars"] = args.bars
    return dataclasses.replace(spec, **updates)


# What `generate` samples with in this process, set once by _gen_init (the
# pool initializer with --jobs N, a plain call otherwise), so the model is
# loaded and its score cache warmed once per process, not once per sample.
# A load error is kept and raised by each _gen_worker call, so it reaches
# the parent as itself rather than as a broken pool.
_worker_run: tuple | Exception | None = None


def _gen_init(model_path: str, control: ControlSpec, sampler_kwargs: dict) -> None:
    global _worker_run
    try:
        _worker_run = (load_model_file(model_path), control, sampler_kwargs)
    except (SympacError, OSError) as exc:
        _worker_run = exc


def _gen_worker(seed: int) -> tuple[list[int], bool]:
    if isinstance(_worker_run, Exception):
        raise _worker_run
    model, control, sampler_kwargs = _worker_run
    config = SamplerConfig(rng_seed=seed, **sampler_kwargs)
    result = constrained_sample(model, build_rules(), control, config)
    return result.tokens, result.truncated


def _cmd_generate(args, config: dict) -> int:
    if args.from_manifest:
        try:
            with open(args.from_manifest, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
            run = manifest["run"]
            control = ControlSpec.from_json({} if run["control"] is None else run["control"])
            sampler = _field("manifest field", run, "sampler", _exact(dict))
            if sampler.keys() != _SAMPLER_SETTINGS.keys():
                raise KeyError(f"sampler keys {sorted(sampler)} are not {list(_SAMPLER_SETTINGS)}")
            sampler_kwargs = {
                key: _field("manifest sampler", sampler, key, convert)
                for key, convert in _SAMPLER_SETTINGS.items()
            }
            n_samples = _field("manifest field", run, "n_samples", as_whole)
            seed = _field("manifest field", run, "seed", as_whole)
            model_path = _field("manifest field", run, "model", _exact(str))
            recorded_sha256 = _field("manifest field", run, "model_sha256", _exact(str))
            write_midi = _field("manifest field", run, "midi", _exact(bool))
            write_text = _field("manifest field", run, "text", _exact(bool))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise _Usage(f"manifest {args.from_manifest}: {exc!r}") from None
        model_sha256 = _sha256(Path(model_path))
        if model_sha256 != recorded_sha256:
            print(
                f"error: model {model_path} is not the model the manifest recorded "
                "(SHA-256 differs); refusing to rerun",
                file=sys.stderr,
            )
            return EXIT_DATA
    else:
        if not args.model:
            raise _Usage("--model is required (or --from-manifest)")
        model_path = args.model
        control = _control_from_args(args, config)
        seed = _cfg(args, config, "seed", None, as_whole)
        if seed is None:
            seed = _env_seed()
        n_samples = _cfg(args, config, "n_samples", 1, as_whole)
        sampler_kwargs = {
            key: _cfg(args, config, key, getattr(SamplerConfig, key), convert)
            for key, convert in _SAMPLER_SETTINGS.items()
        }
        write_midi = bool(args.midi)
        write_text = bool(args.text)
        model_sha256 = _sha256(Path(model_path))
    if n_samples < 1:
        raise _Usage(f"the sample count must be at least 1, got {n_samples}")
    try:
        SamplerConfig(rng_seed=seed, **sampler_kwargs)
    except (TypeError, ValueError) as exc:
        raise _Usage(f"sampler settings: {exc}") from None

    jobs = _cfg(args, config, "jobs", 1, as_whole)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    run_args = (str(model_path), control, sampler_kwargs)
    seeds = range(seed, seed + n_samples)
    results = _map_jobs(_gen_worker, seeds, jobs, _gen_init, run_args)

    outputs = []
    truncated_count = 0
    for i, (tokens, truncated) in enumerate(results):
        name = f"sample_{i:04d}.tokens"
        path = out_dir / name
        path.write_bytes(tokens_to_bytes(tokens))
        outputs.append(name)
        if truncated:
            truncated_count += 1
            print(f"{name}: truncated at {len(tokens)} tokens", file=sys.stderr)
            continue
        song = decode_sequence(tokens, source_id=name)
        print(f"{name}: {len(tokens)} tokens, {len(song.bars)} bars")
        if write_text:
            (out_dir / f"sample_{i:04d}.tokens.txt").write_text(tokens_to_text(tokens))
            outputs.append(f"sample_{i:04d}.tokens.txt")
        if write_midi:
            (out_dir / f"sample_{i:04d}.mid").write_bytes(export_smf(song, song_tempo_bpm(song)))
            outputs.append(f"sample_{i:04d}.mid")

    manifest = {
        "version": __version__,
        "run": {
            "command": "generate",
            "model": str(model_path),
            "model_sha256": model_sha256,
            "control": control.to_json() or None,
            "sampler": sampler_kwargs,
            "seed": seed,
            "n_samples": n_samples,
            "midi": write_midi,
            "text": write_text,
        },
        "outputs": {
            name: _sha256(out_dir / name) for name in sorted(outputs)
        },
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {n_samples} samples to {out_dir} ({truncated_count} truncated)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# evaluate

def _decode_file(file: str):
    return decode_sequence(read_token_file(file), source_id=Path(file).stem)


def _cmd_evaluate(args, config: dict) -> int:
    which = set((args.which or "kld").split(","))
    unknown = which - {"kld", "chords", "structure"}
    if unknown:
        raise _Usage(f"unknown evaluation(s): {', '.join(sorted(unknown))}")
    gen_dir = Path(args.generated)
    files = [str(f) for f in sorted(gen_dir.glob("*.tokens"))]
    songs = _map_jobs(_decode_file, files, _cfg(args, config, "jobs", 1, as_whole))
    if not songs:
        print(f"no token files in {gen_dir}", file=sys.stderr)
        return EXIT_DATA
    if "kld" in which:
        if not args.reference:
            raise _Usage("--reference is required for the kld evaluation")
        ref_songs = [decode_sequence(seq) for seq in iter_corpus(args.reference)]
        if not ref_songs:
            print(f"no token sequences in reference {args.reference}", file=sys.stderr)
            return EXIT_DATA
    out_dir = Path(args.out_dir or (gen_dir / "reports"))
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[str] = []

    if "kld" in which:
        report = class_report(songs, ref_songs)
        written += save_report(report, out_dir)
        print(report.to_text())

    if "chords" in which:
        if not args.chords:
            raise _Usage("--chords is required for the chords evaluation")
        progression = parse_chords_arg(args.chords)
        bank = TemplateBank.load(args.bank) if args.bank else ideal_bank()
        overall, counted = chord_accuracy(songs, progression, bank)
        doc = {
            "progression": list(progression),
            "bars_scored": counted,
            "accuracy": overall,
        }
        (out_dir / "chord_accuracy.json").write_text(json.dumps(doc, indent=2) + "\n")
        written.append("chord_accuracy.json")
        shown = "n/a" if overall is None else f"{overall:.3f}"
        print(f"chord accuracy: {shown} over {counted} bars")

    if "structure" in which:
        if not args.structure:
            raise _Usage("--structure is required for the structure evaluation")
        sections = parse_structure_arg(args.structure)
        rows = []
        for song in songs:
            ref = reference_structure(list(sections), song_tempo_bpm(song))
            est = estimate_structure(song)
            try:
                hr3f, pwf, sf = structure_scores(est, ref)
            except ValueError as exc:
                print(f"{song.source_id}: {exc}", file=sys.stderr)
                continue
            o_pwf, o_sf = oracle_scores(song, ref)
            rows.append(
                {
                    "song": song.source_id,
                    "HR3F": hr3f,
                    "PWF": pwf,
                    "Sf": sf,
                    "oracle_PWF": o_pwf,
                    "oracle_Sf": o_sf,
                }
            )
        if not rows:
            print("no songs scored", file=sys.stderr)
            return EXIT_DATA
        means = {
            key: sum(r[key] for r in rows) / len(rows)
            for key in ("HR3F", "PWF", "Sf", "oracle_PWF", "oracle_Sf")
        }
        doc = {"structure": list(sections), "songs": rows, "means": means}
        (out_dir / "structure_scores.json").write_text(json.dumps(doc, indent=2) + "\n")
        written.append("structure_scores.json")
        print(
            "structure scores (mean): "
            f"HR3F {means['HR3F']:.3f}  PWF {means['PWF']:.3f}  Sf {means['Sf']:.3f}  "
            f"| oracle PWF {means['oracle_PWF']:.3f}  Sf {means['oracle_Sf']:.3f}"
        )

    print(f"reports written to {out_dir}: {', '.join(written)}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# detect-chords / validate

def _token_files(paths: list[str]) -> list[Path]:
    """The named files, each directory replaced by its ``*.tokens`` files;
    finding none is a data error."""
    out: list[Path] = []
    for raw in paths:
        path = Path(raw)
        out.extend(sorted(path.glob("*.tokens")) if path.is_dir() else [path])
    if not out:
        raise FileNotFoundError(f"no token files in {', '.join(paths)}")
    return out


def _cmd_detect_chords(args, config: dict) -> int:
    bank = TemplateBank.load(args.bank) if args.bank else ideal_bank()
    for path in _token_files(args.inputs):
        for i, seq in enumerate(iter_corpus(path)):
            song = decode_sequence(seq, source_id=f"{path.stem}[{i}]")
            symbols = detect_bar_chords(song, bank)
            print(f"{song.source_id}: {' '.join(symbols)}")
    return EXIT_OK


def _cmd_validate(args, config: dict) -> int:
    failures = 0
    for path in _token_files(args.inputs):
        for i, seq in enumerate(iter_corpus(path)):
            violations = validate(seq)
            if violations:
                failures += 1
                for v in violations:
                    print(f"{path}[{i}]: {v}")
            else:
                print(f"{path}[{i}]: ok ({len(seq)} tokens)")
    return EXIT_DATA if failures else EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="sympac", description=__doc__)
    parser.add_argument("--config", help="JSON config file merged under explicit flags")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="annotation/MIDI files -> token corpus")
    p.add_argument("inputs", nargs="+", help="files or directories (.json/.jsonl/.mid)")
    p.add_argument("--out", required=True, help="output corpus path")
    p.add_argument("--genre", help="genre label for MIDI imports (default Pop)")
    p.add_argument("--jobs", type=int, help="parallel ingestion workers")

    p = sub.add_parser("train", help="token corpus -> n-gram model file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=int, help=f"n-gram order (default {DEFAULT_ORDER})")
    p.add_argument("--discount", type=float, help=f"absolute discount (default {DEFAULT_DISCOUNT})")

    p = sub.add_parser("generate", help="sample token sequences under constraints")
    p.add_argument("--model", help="model file from `train`")
    p.add_argument("--out-dir", required=True)
    p.add_argument("-n", "--n-samples", type=int, dest="n_samples")
    p.add_argument("--seed", type=int, help="base RNG seed (env SYMPAC_SEED, then 0)")
    p.add_argument("--control", help="ControlSpec JSON file")
    p.add_argument("--chords", help='looped progression, e.g. "F,C,G,A:min"')
    p.add_argument("--structure", help='per-bar sections, e.g. "intro*4,verse*8"')
    p.add_argument("--genre", choices=GENRES, metavar="GENRE")
    p.add_argument("--bpm-level", type=int, dest="bpm_level", choices=range(8), metavar="0..7")
    p.add_argument("--tracks", help="comma list of allowed tracks")
    p.add_argument("--forced-tracks", dest="forced_tracks", help="tracks required in every bar")
    p.add_argument("--bars", type=int, help="number of bars to generate")
    p.add_argument("--temperature", type=float)
    p.add_argument("--top-k", type=int, dest="top_k")
    p.add_argument("--top-p", type=float, dest="top_p")
    p.add_argument("--max-tokens", type=int, dest="max_tokens")
    p.add_argument("--midi", action="store_true", help="also render SMF files")
    p.add_argument("--text", action="store_true", help="also write readable token text")
    p.add_argument("--jobs", type=int)
    p.add_argument("--from-manifest", dest="from_manifest", help="re-run a recorded generate run")

    p = sub.add_parser("evaluate", help="score generated songs against references")
    p.add_argument("--generated", required=True, help="directory of .tokens files")
    p.add_argument("--reference", help="reference token corpus (for kld)")
    p.add_argument("--which", help="comma list from: kld,chords,structure (default kld)")
    p.add_argument("--chords", help="intended progression (for chords)")
    p.add_argument("--structure", help="intended structure (for structure)")
    p.add_argument("--bank", help="chroma template bank JSON (default: ideal triads)")
    p.add_argument("--out-dir", dest="out_dir", help="report directory (default GEN/reports)")
    p.add_argument("--jobs", type=int)

    p = sub.add_parser("detect-chords", help="print detected chords per bar")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--bank")

    p = sub.add_parser("validate", help="grammar-check token files")
    p.add_argument("inputs", nargs="+")

    return parser


_COMMANDS = {
    "ingest": _cmd_ingest,
    "train": _cmd_train,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
    "detect-chords": _cmd_detect_chords,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except _Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ControlError as exc:
        print(f"control error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConstraintConflictError as exc:
        print(f"constraint conflict: {exc}", file=sys.stderr)
        return EXIT_CONFLICT
    except (SympacError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
