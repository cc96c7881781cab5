import json
import os
import subprocess
import sys

import numpy as np
import pytest

from sympac.cli import main
from sympac.encoding import encode_song, read_corpus, write_corpus
from sympac.fsm import ControlSpec
from sympac.ingest import render_annotations, serialize_annotations
from sympac.lm import load_model_file, save_model_file
from sympac.smf import export_smf
from synthcorpus import chord_following_song


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(202)
    songs = [chord_following_song(rng) for _ in range(6)]
    for i, song in enumerate(songs[:3]):
        annotated = render_annotations(song, 122.0)
        (tmp_path / f"song{i}.json").write_text(serialize_annotations(annotated))
    (tmp_path / "song3.mid").write_bytes(export_smf(songs[3], 122.0))
    lines = [serialize_annotations(render_annotations(s, 122.0)) for s in songs[4:]]
    (tmp_path / "more.jsonl").write_text("\n".join(lines) + "\n")
    return tmp_path


def test_ingest_mixed_inputs(workspace, capsys):
    rc = main(["ingest", str(workspace), "--out", str(workspace / "corpus.bin")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "wrote 6 sequences" in out
    assert len(read_corpus(workspace / "corpus.bin")) == 6


def test_ingest_reports_rejects_but_succeeds(workspace, capsys):
    (workspace / "broken.json").write_text("{")
    rc = main(["ingest", str(workspace), "--out", str(workspace / "corpus.bin")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "reject" in captured.err
    assert "rejects 1" in captured.out


def test_ingest_rejects_a_non_finite_time_and_keeps_the_rest(workspace, capsys):
    doc = json.loads((workspace / "song0.json").read_text())
    doc["vocal"][0][0] = float("nan")  # written as JSON NaN
    (workspace / "bad.json").write_text(json.dumps(doc))
    good = str(workspace / "song1.json")
    rc = main(["ingest", str(workspace / "bad.json"), good, "--out", str(workspace / "c.bin")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "bad.json" in captured.err and "finite" in captured.err
    assert len(read_corpus(workspace / "c.bin")) == 1


def test_ingest_reads_jobs_from_a_config_file_like_the_other_commands(workspace):
    (workspace / "cfg.json").write_text(json.dumps({"jobs": 1}))
    argv = ["--config", str(workspace / "cfg.json"), "ingest", str(workspace / "song0.json")]
    assert main([*argv, "--out", str(workspace / "c.bin")]) == 0


def test_ingest_all_failures_exit_data(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{")
    rc = main(["ingest", str(tmp_path / "broken.json"), "--out", str(tmp_path / "c.bin")])
    assert rc == 2


def test_ingest_parallel_matches_serial(workspace, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # three workers on any host
    rc = main(["ingest", str(workspace), "--out", str(workspace / "serial.bin")])
    assert rc == 0
    rc = main(["ingest", str(workspace), "--out", str(workspace / "parallel.bin"), "--jobs", "3"])
    assert rc == 0
    assert (workspace / "serial.bin").read_bytes() == (workspace / "parallel.bin").read_bytes()


def test_missing_corpus_is_data_error(tmp_path):
    rc = main(["train", "--corpus", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "m.bin")])
    assert rc == 2


@pytest.mark.parametrize(
    "key, value", [("order", 0), ("order", 9), ("discount", 1.5), ("discount", "nan")]
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_train_settings_out_of_range_exit_one(tmp_path, capsys, source, key, value):
    # the corpus does not exist, so exit 1 shows the settings are checked first
    argv = ["train", "--corpus", str(tmp_path / "nope.bin"), "--out", str(tmp_path / "m.bin")]
    if source == "flag":
        argv += [f"--{key}", str(value)]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps({key: value}))
        argv = ["--config", str(tmp_path / "cfg.json"), *argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "m.bin").exists()


@pytest.fixture
def trained(workspace):
    main(["ingest", str(workspace), "--out", str(workspace / "corpus.bin")])
    rc = main([
        "train", "--corpus", str(workspace / "corpus.bin"),
        "--out", str(workspace / "model.bin"), "--order", "4",
    ])
    assert rc == 0
    return workspace


def test_train_writes_loadable_model(trained):
    model = load_model_file(trained / "model.bin")
    assert model.order == 4


def test_generate_with_controls_and_rerun(trained, capsys):
    args = [
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "gen"), "-n", "2", "--seed", "9",
        "--chords", "F,C,G,A:min", "--structure", "intro*2,verse*2",
        "--midi", "--text",
    ]
    assert main(args) == 0
    manifest = json.loads((trained / "gen" / "manifest.json").read_text())
    assert manifest["run"]["seed"] == 9
    assert manifest["run"]["control"]["chords"] == ["F:maj", "C:maj", "G:maj", "A:min"]

    assert main([
        "generate", "--from-manifest", str(trained / "gen" / "manifest.json"),
        "--out-dir", str(trained / "gen2"),
    ]) == 0
    for name in manifest["outputs"]:
        assert (trained / "gen" / name).read_bytes() == (trained / "gen2" / name).read_bytes()


def test_generate_seed_from_environment(trained, monkeypatch):
    monkeypatch.setenv("SYMPAC_SEED", "77")
    assert main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "genenv"), "-n", "1", "--bars", "2",
    ]) == 0
    manifest = json.loads((trained / "genenv" / "manifest.json").read_text())
    assert manifest["run"]["seed"] == 77


@pytest.mark.parametrize("source", ["flag", "config"])
def test_an_explicit_seed_wins_over_a_malformed_environment_seed(trained, monkeypatch, source):
    monkeypatch.setenv("SYMPAC_SEED", "abc")
    if source == "flag":
        argv = ["generate", "--seed", "3"]
    else:
        (trained / "seed.json").write_text(json.dumps({"seed": 3}))
        argv = ["--config", str(trained / "seed.json"), "generate"]
    argv += ["--model", str(trained / "model.bin"), "--bars", "2", "--out-dir"]
    assert main([*argv, str(trained / "g1")]) == 0
    assert json.loads((trained / "g1" / "manifest.json").read_text())["run"]["seed"] == 3
    monkeypatch.delenv("SYMPAC_SEED")
    assert main([*argv, str(trained / "g2")]) == 0
    name = "sample_0000.tokens"
    assert (trained / "g1" / name).read_bytes() == (trained / "g2" / name).read_bytes()


def test_generate_parallel_matches_serial(trained, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # two workers on any host
    base = [
        "generate", "--model", str(trained / "model.bin"), "-n", "3",
        "--seed", "4", "--bars", "2",
    ]
    assert main(base + ["--out-dir", str(trained / "g1")]) == 0
    assert main(base + ["--out-dir", str(trained / "g2"), "--jobs", "2"]) == 0
    for i in range(3):
        name = f"sample_{i:04d}.tokens"
        assert (trained / "g1" / name).read_bytes() == (trained / "g2" / name).read_bytes()


def test_generate_worker_loads_the_model_once(trained, monkeypatch):
    import sympac.cli as cli

    loads = []

    def counting_load(path):
        loads.append(path)
        return load_model_file(path)

    monkeypatch.setattr(cli, "load_model_file", counting_load)
    monkeypatch.setattr(cli, "_worker_run", None)
    cli._gen_init(str(trained / "model.bin"), ControlSpec(n_bars=2), {"max_tokens": 20000})
    first = [cli._gen_worker(seed) for seed in (4, 5, 6)]
    assert len(loads) == 1
    assert first == [cli._gen_worker(seed) for seed in (4, 5, 6)]


def test_generate_parallel_leaves_the_model_to_the_workers(trained, monkeypatch):
    import sympac.cli as cli

    loads = []

    def counting_load(path):
        loads.append(path)
        return load_model_file(path)

    # Worker processes load through their own copy of the module, and of `loads`.
    monkeypatch.setattr(cli, "load_model_file", counting_load)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # two workers on any host
    assert main([
        "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "gp"),
        "-n", "2", "--jobs", "2", "--bars", "1",
    ]) == 0
    assert loads == []


def test_generate_parallel_reports_a_bad_model(trained, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)  # two workers on any host
    blob = (trained / "model.bin").read_bytes()
    (trained / "model.bin").write_bytes(blob[:-5])
    capsys.readouterr()
    rc = main([
        "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "gb"),
        "-n", "2", "--jobs", "2", "--bars", "1",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert "truncated model stream" in err
    assert "BrokenProcessPool" not in err


class _RecordingPool:
    """Stands in for ``concurrent.futures.ProcessPoolExecutor``: records the
    worker count it is asked for and maps in this process, starting none."""

    asked: list[int] = []

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.asked.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, items, cpus, asked",
    [(2, 5, 8, [2]), (10**5, 3, 8, [3]), (10**5, 20, 8, [8]), (10**5, 20, None, []), (3, 1, 8, [])],
)
def test_the_worker_count_is_clamped_to_the_items_and_the_cpus(monkeypatch, jobs, items, cpus, asked):
    import concurrent.futures

    import sympac.cli as cli

    monkeypatch.setattr(_RecordingPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert cli._map_jobs(str, range(items), jobs) == [str(i) for i in range(items)]
    assert _RecordingPool.asked == asked


def test_a_huge_jobs_flag_asks_for_one_worker_per_sample(trained, monkeypatch):
    import concurrent.futures

    import sympac.cli as cli

    monkeypatch.setattr(_RecordingPool, "asked", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(cli, "_worker_run", None)  # restored after the in-process initializer
    assert main([
        "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "g"),
        "-n", "3", "--jobs", "100000", "--bars", "1",
    ]) == 0
    assert _RecordingPool.asked == [3]


@pytest.mark.parametrize("jobs", [0, -3])
@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["ingest", "generate", "evaluate"])
def test_fewer_than_one_job_exits_one_and_writes_nothing(trained, capsys, command, source, jobs):
    argv = {
        "ingest": ["ingest", str(trained), "--out", str(trained / "out" / "c.bin")],
        "generate": ["generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "out")],
        "evaluate": ["evaluate", "--generated", str(trained), "--which", "chords", "--chords", "C",
                     "--out-dir", str(trained / "out")],
    }[command]
    if command == "evaluate":
        assert main(["generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained),
                     "--bars", "1"]) == 0
    if source == "flag":
        argv += ["--jobs", str(jobs)]
    else:
        (trained / "cfg.json").write_text(json.dumps({"jobs": jobs}))
        argv = ["--config", str(trained / "cfg.json"), *argv]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: jobs must be at least 1, got {jobs}\n"
    assert not (trained / "out").exists()


@pytest.mark.parametrize(
    "flags",
    [["--structure", "verse*1000000000"], ["--structure", "verse*65537"],
     ["--structure", "intro*65536,verse"], ["--bars", "65537"]],
)
def test_a_control_past_the_bar_bound_exits_one_and_writes_nothing(trained, capsys, flags):
    capsys.readouterr()
    assert main([
        "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "out"), *flags,
    ]) == 1
    assert capsys.readouterr().err.startswith("control error: ")
    assert not (trained / "out").exists()


def test_a_control_at_the_bar_bound_runs(trained):
    (trained / "ctrl.json").write_text(json.dumps({"structure": [["verse", 65535], ["outro", 1]]}))
    for flags in (["--structure", "verse*65536"], ["--control", str(trained / "ctrl.json")]):
        assert main([
            "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "out"),
            "--max-tokens", "3", *flags,
        ]) == 0
        manifest = json.loads((trained / "out" / "manifest.json").read_text())
        assert sum(n for _, n in manifest["run"]["control"]["structure"]) == 65536


def test_generate_needs_a_sample(trained):
    for n in ("0", "-2"):
        assert main([
            "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "g0"),
            "-n", n,
        ]) == 1
    assert not (trained / "g0").exists()


def test_rerun_hashes_the_model_once(trained, monkeypatch):
    import sympac.cli as cli

    base = ["generate", "--model", str(trained / "model.bin"), "-n", "1", "--bars", "1"]
    assert main(base + ["--out-dir", str(trained / "gh")]) == 0
    hashed = []
    real_sha256 = cli._sha256

    def counting_sha256(path):
        hashed.append(path.name)
        return real_sha256(path)

    monkeypatch.setattr(cli, "_sha256", counting_sha256)
    assert main([
        "generate", "--from-manifest", str(trained / "gh" / "manifest.json"),
        "--out-dir", str(trained / "gh2"),
    ]) == 0
    assert hashed.count("model.bin") == 1


def test_rerun_refuses_a_changed_model(trained, capsys):
    assert main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "gen"), "-n", "1", "--seed", "2", "--bars", "2",
    ]) == 0
    model = load_model_file(trained / "model.bin")
    model.add_sequence([0, 18, 3, 10, 1])
    save_model_file(model, trained / "model.bin")
    capsys.readouterr()
    rc = main([
        "generate", "--from-manifest", str(trained / "gen" / "manifest.json"),
        "--out-dir", str(trained / "gen2"),
    ])
    assert rc == 2
    assert "SHA-256" in capsys.readouterr().err
    assert not (trained / "gen2").exists()


def test_config_file_supplies_defaults(trained):
    config = {"seed": 123, "n_samples": 2}
    (trained / "cfg.json").write_text(json.dumps(config))
    assert main([
        "--config", str(trained / "cfg.json"),
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "gencfg"), "--bars", "1",
    ]) == 0
    manifest = json.loads((trained / "gencfg" / "manifest.json").read_text())
    assert manifest["run"]["seed"] == 123
    assert manifest["run"]["n_samples"] == 2


@pytest.mark.parametrize("command", ["ingest", "train", "generate", "evaluate", "validate"])
def test_a_config_key_no_command_reads_exits_one_and_writes_nothing(trained, capsys, command):
    (trained / "typo.json").write_text(json.dumps({"temprature": 0.01, "n_sample": 3, "seed": 4}))
    argv = {
        "ingest": ["ingest", str(trained), "--out", str(trained / "out" / "c.bin")],
        "train": ["train", "--corpus", str(trained / "corpus.bin"), "--out", str(trained / "out")],
        "generate": ["generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "out")],
        "evaluate": ["evaluate", "--generated", str(trained), "--out-dir", str(trained / "out")],
        "validate": ["validate", str(trained / "corpus.bin")],
    }[command]
    capsys.readouterr()
    assert main(["--config", str(trained / "typo.json"), *argv]) == 1
    err = capsys.readouterr().err
    assert "'n_sample', 'temprature'" in err and "'seed'" not in err
    assert not (trained / "out").exists()


def test_validate_command(trained, capsys):
    main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "genv"), "-n", "1", "--seed", "3", "--bars", "2",
    ])
    assert main(["validate", str(trained / "genv")]) == 0
    # corrupt a file: drop the end_of_song token
    from sympac.encoding import read_token_file, write_token_file

    tokens = read_token_file(trained / "genv" / "sample_0000.tokens")
    write_token_file(trained / "genv" / "sample_0000.tokens", tokens[:-1])
    assert main(["validate", str(trained / "genv")]) == 2
    assert "ends inside" in capsys.readouterr().out


def test_detect_chords_command(trained, capsys):
    main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "gend"), "-n", "1", "--seed", "6",
        "--chords", "C", "--bars", "2",
    ])
    assert main(["detect-chords", str(trained / "gend")]) == 0
    assert "sample_0000" in capsys.readouterr().out


_TWELVE = [1.0] + [0.0] * 11


@pytest.mark.parametrize(
    "text,named",
    [
        ("{}", "'maj'"),
        (json.dumps({"maj": _TWELVE, "min": [float("nan")] + _TWELVE[1:]}), "'min'"),
        ("{", "template bank"),
    ],
    ids=["empty", "nan", "not-json"],
)
def test_a_malformed_bank_exits_two(trained, capsys, text, named):
    assert main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "genb"), "--seed", "6", "--bars", "2",
    ]) == 0
    (trained / "bad.json").write_text(text)
    capsys.readouterr()
    assert main(["detect-chords", str(trained / "genb"), "--bank", str(trained / "bad.json")]) == 2
    assert named in capsys.readouterr().err
    assert main([
        "evaluate", "--generated", str(trained / "genb"), "--which", "chords",
        "--chords", "C", "--bank", str(trained / "bad.json"),
    ]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "detect-chords"])
def test_inputs_without_token_files_exit_two(tmp_path, capsys, command):
    (tmp_path / "empty").mkdir()
    assert main([command, str(tmp_path / "empty")]) == 2
    assert "no token files" in capsys.readouterr().err


def test_evaluate_kld_identity(trained, tmp_path, capsys):
    corpus = read_corpus(trained / "corpus.bin")
    gen_dir = trained / "asref"
    gen_dir.mkdir()
    from sympac.encoding import write_token_file

    for i, seq in enumerate(corpus):
        write_token_file(gen_dir / f"sample_{i:04d}.tokens", seq)
    rc = main([
        "evaluate", "--generated", str(gen_dir),
        "--reference", str(trained / "corpus.bin"), "--which", "kld",
    ])
    assert rc == 0
    report = json.loads((gen_dir / "reports" / "kld_report.json").read_text())
    for value in report["classes"].values():
        assert value in (0.0, None)


def test_evaluate_chords_and_structure(trained, capsys):
    rng = np.random.default_rng(7)
    gen_dir = trained / "genstruct"
    gen_dir.mkdir()
    from sympac.encoding import write_token_file

    sections = ("intro",) * 2 + ("verse",) * 4 + ("chorus",) * 4
    songs = [
        chord_following_song(rng, progression=("C:maj", "G:maj"), n_bars=10)
        for _ in range(2)
    ]
    for song, i in zip(songs, range(2)):
        for j, bar in enumerate(song.bars):
            bar.section = sections[j]
        write_token_file(gen_dir / f"s{i}.tokens", encode_song(song))
    rc = main([
        "evaluate", "--generated", str(gen_dir), "--which", "chords,structure",
        "--chords", "C,G", "--structure", "intro*2,verse*4,chorus*4",
    ])
    assert rc == 0
    chords_doc = json.loads((gen_dir / "reports" / "chord_accuracy.json").read_text())
    assert chords_doc["accuracy"] == 1.0
    structure_doc = json.loads((gen_dir / "reports" / "structure_scores.json").read_text())
    assert 0.0 <= structure_doc["means"]["Sf"] <= 1.0


def test_evaluate_empty_dir_is_data_error(tmp_path):
    (tmp_path / "empty").mkdir()
    rc = main(["evaluate", "--generated", str(tmp_path / "empty"), "--which", "kld"])
    assert rc == 2


def test_usage_errors_exit_one(tmp_path):
    assert main(["generate", "--out-dir", str(tmp_path)]) == 1
    assert main(["evaluate", "--generated", str(tmp_path), "--which", "bogus"]) == 1
    assert main(["nope"]) == 1


@pytest.mark.parametrize(
    "command, config",
    [
        (["evaluate", "--generated", "."], {"jobs": "x"}),
        (["train", "--corpus", "corpus.bin", "--out", "m.bin"], {"order": "five"}),
        (["train", "--corpus", "corpus.bin", "--out", "m.bin"], {"discount": [0.5]}),
        (["ingest", "song0.json", "--out", "c.bin"], {"jobs": None}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"seed": "x"}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"n_samples": "two"}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"max_tokens": 1e400}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"temperature": "hot"}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"top_k": "many"}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"top_k": 2.5}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"n_samples": True}),
        (["generate", "--model", "model.bin", "--out-dir", "g"], {"top_p": {}}),
    ],
)
def test_config_values_of_the_wrong_type_exit_one(trained, monkeypatch, capsys, command, config):
    monkeypatch.chdir(trained)
    (trained / "cfg.json").write_text(json.dumps(config))
    assert main(["--config", "cfg.json", *command]) == 1
    key = next(iter(config))
    assert f"config '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag",
    [
        ["--temperature", "0"],
        ["--top-k", "0"],
        ["--top-p", "1.5"],
        ["--max-tokens", "1"],
        ["--seed", "-3"],
    ],
)
def test_sampler_settings_out_of_range_exit_one(trained, capsys, flag):
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "g"), "--bars", "1", *flag,
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "sampler settings" in err
    assert flag[0].lstrip("-").replace("-", "_") in err
    assert not (trained / "g").exists()


def test_control_error_exits_one(trained):
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "bad"),
        "--structure", "intro*2", "--bars", "5",
    ])
    assert rc == 1


def test_generate_unconditioned(trained):
    assert main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "genfree"), "-n", "2", "--seed", "14",
    ]) == 0
    manifest = json.loads((trained / "genfree" / "manifest.json").read_text())
    assert manifest["run"]["control"] is None
    assert main(["validate", str(trained / "genfree")]) == 0


def test_train_single_sequence_corpus(tmp_path):
    rng = np.random.default_rng(3)
    write_corpus(tmp_path / "one.bin", [encode_song(chord_following_song(rng))])
    assert main([
        "train", "--corpus", str(tmp_path / "one.bin"),
        "--out", str(tmp_path / "m.bin"), "--order", "2",
    ]) == 0
    assert load_model_file(tmp_path / "m.bin").order == 2


def test_bad_chord_symbol_exits_one(trained):
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "badchord"), "--chords", "H:maj", "--bars", "2",
    ])
    assert rc == 1


def test_bad_control_file_types_exit_one(trained, tmp_path):
    (tmp_path / "ctrl.json").write_text(json.dumps({"bpm_level": "fast"}))
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "badctrl"), "--control", str(tmp_path / "ctrl.json"),
    ])
    assert rc == 1
    for structure in ([["verse", "many"]], 5, [["verse", 1e300]]):
        (tmp_path / "ctrl2.json").write_text(json.dumps({"structure": structure}))
        rc = main([
            "generate", "--model", str(trained / "model.bin"),
            "--out-dir", str(trained / "badctrl2"), "--control", str(tmp_path / "ctrl2.json"),
        ])
        assert rc == 1
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "badctrl3"), "--structure", "verse*" + "9" * 30,
    ])
    assert rc == 1


def _recorded_manifest(trained) -> dict:
    assert main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "rec"), "-n", "1", "--seed", "2", "--bars", "2",
    ]) == 0
    return json.loads((trained / "rec" / "manifest.json").read_text())


# (field of the run record, value written there, text the error must hold)
_CORRUPT_RUNS = [
    ("run", {}, "'control'"),
    ("seed", 3.5, "'seed'"),
    ("n_samples", True, "'n_samples'"),
    ("model", 5, "'model'"),
    ("model_sha256", None, "'model_sha256'"),
    ("midi", "yes", "'midi'"),
    ("text", 1, "'text'"),
    ("sampler", [], "'sampler'"),
    ("sampler.top_k", 2.5, "'top_k'"),
    ("sampler.temperature", "hot", "'temperature'"),
    ("sampler.max_tokens", None, "'max_tokens'"),
    ("sampler.rng_seed", 4, "'rng_seed'"),
    # a number written as a string is not a number
    ("seed", "2", "'seed'"),
    ("sampler.max_tokens", "20000", "'max_tokens'"),
]


def _case_ids(cases) -> list[str]:
    """Each case's field, with its value added when an earlier case has that field."""
    seen, ids = set(), []
    for field, value, _ in cases:
        ids.append(f"{field}={value!r}" if field in seen else field)
        seen.add(field)
    return ids


@pytest.mark.parametrize("field,value,named", _CORRUPT_RUNS, ids=_case_ids(_CORRUPT_RUNS))
def test_corrupt_manifest_exits_one(trained, capsys, field, value, named):
    manifest = _recorded_manifest(trained)
    *parents, key = field.split(".")
    record = manifest["run"] if field != "run" else manifest
    for name in parents:
        record = record[name]
    record[key] = value
    (trained / "bad.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    rc = main([
        "generate", "--from-manifest", str(trained / "bad.json"),
        "--out-dir", str(trained / "out"),
    ])
    assert rc == 1
    assert named in capsys.readouterr().err
    assert not (trained / "out").exists()


@pytest.mark.parametrize("source", ["env", "config", "manifest"])
def test_negative_seed_exits_one_and_writes_nothing(trained, monkeypatch, capsys, source):
    if source == "manifest":
        manifest = _recorded_manifest(trained)
        manifest["run"]["seed"] = -3
        (trained / "neg.json").write_text(json.dumps(manifest))
        argv = ["generate", "--from-manifest", str(trained / "neg.json")]
    else:
        if source == "env":
            monkeypatch.setenv("SYMPAC_SEED", "-3")
            argv = []
        else:
            (trained / "neg.json").write_text(json.dumps({"seed": -3}))
            argv = ["--config", str(trained / "neg.json")]
        argv += ["generate", "--model", str(trained / "model.bin"), "--bars", "1"]
    capsys.readouterr()
    assert main([*argv, "--out-dir", str(trained / "out")]) == 1
    assert "seed" in capsys.readouterr().err
    assert not (trained / "out").exists()


def test_manifest_values_convert_like_config_values(trained):
    manifest = _recorded_manifest(trained)
    manifest["run"].update(seed=2.0, n_samples=1.0)
    manifest["run"]["sampler"]["max_tokens"] = float(manifest["run"]["sampler"]["max_tokens"])
    (trained / "floats.json").write_text(json.dumps(manifest))
    assert main([
        "generate", "--from-manifest", str(trained / "floats.json"),
        "--out-dir", str(trained / "again"),
    ]) == 0
    again = json.loads((trained / "again" / "manifest.json").read_text())
    assert again == json.loads((trained / "rec" / "manifest.json").read_text())


def test_cli_import_leaves_scipy_unloaded():
    # scipy once took most of the start-up time; this catches an import of it
    # creeping back into `sympac.cli` or any module it loads
    import sympac

    src = os.path.dirname(os.path.dirname(sympac.__file__))
    probe = "import sys, sympac.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("records", [[[]], [[], []]])
def test_train_on_a_corpus_without_tokens_exits_two_and_writes_nothing(tmp_path, capsys, records):
    write_corpus(tmp_path / "c.bin", records)
    out = tmp_path / "out" / "m.bin"
    assert main(["train", "--corpus", str(tmp_path / "c.bin"), "--out", str(out)]) == 2
    assert "corpus holds no tokens" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_train_perplexity_sample_skips_empty_records(tmp_path):
    rng = np.random.default_rng(3)
    write_corpus(tmp_path / "c.bin", [[]] * 20 + [encode_song(chord_following_song(rng))])
    assert main(["train", "--corpus", str(tmp_path / "c.bin"), "--out", str(tmp_path / "m.bin")]) == 0
    assert (tmp_path / "m.bin").exists()


def test_evaluate_kld_on_an_empty_reference_exits_two_and_writes_nothing(trained, capsys):
    from sympac.encoding import write_token_file

    (trained / "gen").mkdir()
    write_token_file(trained / "gen" / "s.tokens", read_corpus(trained / "corpus.bin")[0])
    (trained / "empty.bin").write_bytes(b"")
    rc = main([
        "evaluate", "--generated", str(trained / "gen"), "--reference", str(trained / "empty.bin"),
        "--which", "kld", "--out-dir", str(trained / "reports"),
    ])
    assert rc == 2
    assert f"no token sequences in reference {trained / 'empty.bin'}" in capsys.readouterr().err
    assert not (trained / "reports").exists()


def test_a_misspelt_control_key_is_refused(trained, capsys):
    (trained / "ctrl.json").write_text(json.dumps({"chord": ["F", "C"], "n_bars": 2}))
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "out"), "--control", str(trained / "ctrl.json"),
    ])
    assert rc == 1
    assert "unknown control key(s) ['chord']" in capsys.readouterr().err
    assert not (trained / "out").exists()


def test_a_misspelt_key_in_a_config_control_object_is_refused(trained, capsys):
    (trained / "cfg.json").write_text(json.dumps({"control": {"genre": "Pop", "bars": 2}}))
    rc = main([
        "--config", str(trained / "cfg.json"),
        "generate", "--model", str(trained / "model.bin"), "--out-dir", str(trained / "out"),
    ])
    assert rc == 1
    assert "unknown control key(s) ['bars']" in capsys.readouterr().err
    assert not (trained / "out").exists()


@pytest.mark.parametrize(
    "control, named",
    [
        ({"chords": 0}, "chords must be an array"),
        ({"chords": ""}, "chords must be an array"),
        ({"chords": []}, "chords must be non-empty"),
        ({"chord_schedule": []}, "chord_schedule must be non-empty"),
        ({"structure": []}, "sections must be non-empty"),
        ({"tracks": "piano"}, "tracks must be an array"),
    ],
    ids=["chords-0", "chords-empty-string", "chords-empty", "chord_schedule-empty",
         "structure-empty", "tracks-string"],
)
def test_an_empty_or_mistyped_control_array_exits_one_and_writes_nothing(
    trained, capsys, control, named
):
    (trained / "ctrl.json").write_text(json.dumps(control))
    capsys.readouterr()
    rc = main([
        "generate", "--model", str(trained / "model.bin"),
        "--out-dir", str(trained / "out"), "--control", str(trained / "ctrl.json"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"control error: {named}")
    assert not (trained / "out").exists()
