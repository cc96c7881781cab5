"""Command-line entry point: ingest, train, generate, evaluate, and the
detect-chords / validate debugging commands.

Every generate run writes a manifest capturing the exact configuration,
seed, and input digests; re-running from the manifest reproduces the
output byte for byte.  Exit codes: 0 success, 1 usage error, 2 data
error, 3 constraint conflict.
"""

from __future__ import annotations

import argparse
import collections
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
from .errors import ConstraintConflictError, ControlError, DecodeError, SympacError
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
from .vocab import GENRES, as_real, as_whole, parse_real, parse_whole

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
            raise TypeError(f"not a {kind.__name__}: {value!r}")
        return value

    convert.__name__ = kind.__name__
    return convert


# One row per setting: its key, flags, the commands taking them, its rule for a JSON value
# (None: no config file sets it; a null stands for a None default) and for text, its default,
# the manifest record holding it, its help, and an environment variable read after the config.
_Setting = collections.namedtuple(
    "_Setting", "key flags commands json text default manifest help env", defaults=(None,))

_SETTINGS = {setting.key: setting for setting in (
    _Setting("genre", ("--genre",), ("ingest", "generate"), _exact(str), str, "Pop", None,
             "generate: the genre control; ingest: the genre of MIDI imports"),
    _Setting("jobs", ("--jobs",), ("ingest", "generate", "evaluate"), as_whole, parse_whole, 1,
             None, "worker processes, at most one per item and per CPU"),
    _Setting("order", ("--order",), ("train",), as_whole, parse_whole, DEFAULT_ORDER, None,
             "n-gram order"),
    _Setting("discount", ("--discount",), ("train",), as_real, parse_real, DEFAULT_DISCOUNT, None,
             "absolute discount"),
    _Setting("seed", ("--seed",), ("generate",), as_whole, parse_whole, SamplerConfig.rng_seed,
             "run", "base RNG seed, else env SYMPAC_SEED", "SYMPAC_SEED"),
    _Setting("n_samples", ("-n", "--n-samples"), ("generate",), as_whole, parse_whole, 1, "run",
             "number of samples"),
    _Setting("control", ("--control",), ("generate",), _exact(dict), str, None, None,
             "ControlSpec JSON file"),
    _Setting("temperature", ("--temperature",), ("generate",), as_real, parse_real,
             SamplerConfig.temperature, "sampler", "sampling temperature"),
    _Setting("top_k", ("--top-k",), ("generate",), as_whole, parse_whole, SamplerConfig.top_k,
             "sampler", "sample from the k likeliest legal tokens"),
    _Setting("top_p", ("--top-p",), ("generate",), as_real, parse_real, SamplerConfig.top_p,
             "sampler", "sample from the likeliest legal tokens holding this mass"),
    _Setting("max_tokens", ("--max-tokens",), ("generate",), as_whole, parse_whole,
             SamplerConfig.max_tokens, "sampler", "token budget of a sample"),
    _Setting("bars", ("--bars",), ("generate",), None, parse_whole, None, None,
             "number of bars to generate"),
    _Setting("bpm_level", ("--bpm-level",), ("generate",), None, parse_whole, None, None,
             "tempo bucket 0..7"),
)}

# Every key some command reads; one config file may serve them all.
_CONFIG_KEYS = {key for key, setting in _SETTINGS.items() if setting.json is not None}
# The manifest record, ``run`` or ``sampler``, that holds each setting it records.
_RECORDED = {key: setting.manifest for key, setting in _SETTINGS.items() if setting.manifest}


def _checked(rule, value, name: str):
    """``rule(value)``; a value the rule refuses is a usage error that names
    ``name``: the flag, variable or field that gave it."""
    try:
        return rule(value)
    except (TypeError, ValueError) as exc:
        raise _Usage(f"{name}: {exc}") from None


def _field(source: str, record: dict, key: str, convert=None):
    """``convert(record[key])``, by default the JSON rule of setting ``key``."""
    value = record[key]
    if convert is None:
        if value is None and _SETTINGS[key].default is None:
            return None
        convert = _SETTINGS[key].json
    return _checked(convert, value, f"{source} {key!r}")


def _setting(args, config: dict, key: str):
    """Explicit flag wins, then config file, then environment, then the built-in default."""
    setting = _SETTINGS[key]
    if getattr(args, key, None) is not None:
        return getattr(args, key)
    if key in config:
        return _field("config", config, key)
    if setting.env is None or setting.env not in os.environ:
        return setting.default
    return _checked(setting.text, os.environ[setting.env], setting.env)


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
    """``[fn(item) for item in items]`` over ``min(jobs, len(items), os.cpu_count()
    or 1)`` worker processes when that is over 1, as the results do not depend on
    the worker count; ``jobs`` < 1 is a usage error.  ``initializer(*initargs)``
    runs first in every process that calls ``fn``: each worker, or this one."""
    if jobs < 1:
        raise _Usage(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=initializer, initargs=initargs
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
    genre = _setting(args, config, "genre")
    if genre not in GENRES:
        raise _Usage(f"unknown genre {genre!r}")
    ingest = functools.partial(_ingest_or_reject, genre=genre)
    results = _map_jobs(ingest, inputs, _setting(args, config, "jobs"))

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
    order = _setting(args, config, "order")
    discount = _setting(args, config, "discount")
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
    control = _setting(args, config, "control")  # a file's path, or a config object
    spec = ControlSpec.from_file(control) if isinstance(control, str) else ControlSpec.from_json(control or {})
    flags = {  # an empty text flag leaves its control as the file or config has it
        "chords": args.chords and parse_chords_arg(args.chords),
        "sections": args.structure and parse_structure_arg(args.structure),
        "genre": args.genre,
        "bpm_level": args.bpm_level,
        "allowed_tracks": args.tracks and frozenset(t.strip() for t in args.tracks.split(",")),
        "forced_tracks": args.forced_tracks and frozenset(t.strip() for t in args.forced_tracks.split(",")),
        "n_bars": args.bars,
    }
    return dataclasses.replace(spec, **{field: v for field, v in flags.items() if v not in (None, "")})


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
            records = {"run": run, "sampler": _field("manifest field", run, "sampler", _exact(dict))}
            if records["sampler"].keys() != {k for k, r in _RECORDED.items() if r == "sampler"}:
                raise KeyError(f"sampler keys {sorted(records['sampler'])} are not the sampler settings")
            values = {key: _field(f"manifest {r}", records[r], key) for key, r in _RECORDED.items()}
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
        values = {key: _setting(args, config, key) for key in _RECORDED}
        write_midi, write_text = args.midi, args.text
        model_sha256 = _sha256(Path(model_path))
    seed, n_samples = values["seed"], values["n_samples"]
    sampler_kwargs = {key: values[key] for key, record in _RECORDED.items() if record == "sampler"}
    if n_samples < 1:
        raise _Usage(f"the sample count must be at least 1, got {n_samples}")
    try:
        SamplerConfig(rng_seed=seed, **sampler_kwargs)
    except (TypeError, ValueError) as exc:
        raise _Usage(f"sampler settings: {exc}") from None

    run_args = (str(model_path), control, sampler_kwargs)
    seeds = range(seed, seed + n_samples)
    results = _map_jobs(_gen_worker, seeds, _setting(args, config, "jobs"), _gen_init, run_args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

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
            **{key: values[key] for key, record in _RECORDED.items() if record == "run"},
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

def _decode(seq: list[int], where: str, source_id: str):
    """``decode_sequence``, whose error names ``where`` the sequence was read."""
    try:
        return decode_sequence(seq, source_id=source_id)
    except DecodeError as exc:
        raise DecodeError(exc.index, exc.message, exc.expected, where) from None


def _decode_file(file: str):
    return _decode(read_token_file(file), f"{file}[0]", Path(file).stem)


def _cmd_evaluate(args, config: dict) -> int:
    which = set((args.which or "kld").split(","))
    unknown = which - {"kld", "chords", "structure"}
    if unknown:
        raise _Usage(f"unknown evaluation(s): {', '.join(sorted(unknown))}")
    gen_dir = Path(args.generated)
    files = [str(f) for f in sorted(gen_dir.glob("*.tokens"))]
    songs = _map_jobs(_decode_file, files, _setting(args, config, "jobs"))
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
            song = _decode(seq, f"{path}[{i}]", f"{path.stem}[{i}]")
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
    commands = {name: sub.add_parser(name, help=summary) for name, (_, summary) in _COMMANDS.items()}

    p = commands["ingest"]
    p.add_argument("inputs", nargs="+", help="files or directories (.json/.jsonl/.mid)")
    p.add_argument("--out", required=True, help="output corpus path")

    p = commands["train"]
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)

    p = commands["generate"]
    p.add_argument("--model", help="model file from `train`")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--chords", help='looped progression, e.g. "F,C,G,A:min"')
    p.add_argument("--structure", help='per-bar sections, e.g. "intro*4,verse*8"')
    p.add_argument("--tracks", help="comma list of allowed tracks")
    p.add_argument("--forced-tracks", dest="forced_tracks", help="tracks required in every bar")
    p.add_argument("--midi", action="store_true", help="also render SMF files")
    p.add_argument("--text", action="store_true", help="also write readable token text")
    p.add_argument("--from-manifest", dest="from_manifest", help="re-run a recorded generate run")

    p = commands["evaluate"]
    p.add_argument("--generated", required=True, help="directory of .tokens files")
    p.add_argument("--reference", help="reference token corpus (for kld)")
    p.add_argument("--which", help="comma list from: kld,chords,structure (default kld)")
    p.add_argument("--chords", help="intended progression (for chords)")
    p.add_argument("--structure", help="intended structure (for structure)")
    p.add_argument("--bank", help="chroma template bank JSON (default: ideal triads)")
    p.add_argument("--out-dir", dest="out_dir", help="report directory (default GEN/reports)")

    commands["detect-chords"].add_argument("inputs", nargs="+")
    commands["detect-chords"].add_argument("--bank")
    commands["validate"].add_argument("inputs", nargs="+")

    for setting in _SETTINGS.values():
        shown = "" if setting.default is None else f" (default {setting.default})"
        for command in setting.commands:
            parse = functools.partial(_checked, setting.text, name="/".join(setting.flags))
            commands[command].add_argument(*setting.flags, dest=setting.key, type=parse, help=setting.help + shown)
    return parser


_COMMANDS = {
    "ingest": (_cmd_ingest, "annotation/MIDI files -> token corpus"),
    "train": (_cmd_train, "token corpus -> n-gram model file"),
    "generate": (_cmd_generate, "sample token sequences under constraints"),
    "evaluate": (_cmd_evaluate, "score generated songs against references"),
    "detect-chords": (_cmd_detect_chords, "print detected chords per bar"),
    "validate": (_cmd_validate, "grammar-check token files"),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config)
        return _COMMANDS[args.command][0](args, config)
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
