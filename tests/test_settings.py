"""One table per setting: every flag, config key, environment variable and
manifest field a command reads for a setting comes from its row of
``cli._SETTINGS``.

A number given as text (a flag, ``SYMPAC_SEED``) is read by one text rule,
``vocab.parse_whole`` or ``vocab.parse_real``.  From every flag of every
command that takes it, each accepted spelling gives the same outputs, and
each refused one (a digit separator, a surrounding space, a non-ASCII digit,
``nan``, an exponent in a whole number) exits 1, names the flag, and writes
nothing.  ``tests/test_numbers.py`` does the same for the JSON rules of
config files and manifests.
"""

import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import sympac.cli as cli
from sympac.cli import main
from sympac.encoding import encode_song, write_corpus
from sympac.ingest import render_annotations, serialize_annotations
from sympac.smf import export_smf
from sympac.vocab import as_real, as_whole, parse_real, parse_whole
from synthcorpus import chord_following_song

README = Path(__file__).resolve().parent.parent / "README.md"


def _files(root) -> dict:
    """Every file under ``root`` by relative name, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """Annotation and MIDI files, their corpus, an order-3 model of it, and
    generated token files."""
    root = tmp_path_factory.mktemp("settings")
    rng = np.random.default_rng(17)
    songs = [chord_following_song(rng, n_bars=4) for _ in range(3)]
    (root / "songs").mkdir()
    for i, song in enumerate(songs[:2]):
        (root / "songs" / f"song{i}.json").write_text(serialize_annotations(render_annotations(song, 122.0)))
    (root / "songs" / "song2.mid").write_bytes(export_smf(songs[2], 122.0))
    write_corpus(root / "corpus.bin", [encode_song(song) for song in songs])
    assert main(["train", "--corpus", str(root / "corpus.bin"), "--out", str(root / "m.bin"),
                 "--order", "3"]) == 0
    assert main(["generate", "--model", str(root / "m.bin"), "--out-dir", str(root / "gen"),
                 "-n", "2", "--bars", "1"]) == 0
    return root


def _command(project, command: str, out: Path) -> list[str]:
    """A run of ``command`` on the project, writing under ``out``."""
    return {
        "ingest": ["ingest", str(project / "songs"), "--out", str(out / "c.bin")],
        "train": ["train", "--corpus", str(project / "corpus.bin"), "--out", str(out / "m.bin")],
        "generate": ["generate", "--model", str(project / "m.bin"), "--bars", "1", "--out-dir", str(out)],
        "evaluate": ["evaluate", "--generated", str(project / "gen"), "--which", "chords",
                     "--chords", "C", "--out-dir", str(out)],
    }[command]


# setting: spellings of one value its text rule accepts (max_tokens 3
# truncates every sample, which writes outputs too; a discount lies in (0, 1))
_ACCEPTED = {
    "jobs": ["2", "+2", "02"],
    "order": ["3", "+3", "003"],
    "discount": ["0.9", ".9", "9e-1", "0.90", "+9.0E-1"],
    "seed": ["3", "+3", "03"],
    "n_samples": ["2", "+2", "02"],
    "temperature": ["1", "1.0", "1e0", "+1.", "10E-1"],
    "top_k": ["3", "+3", "03"],
    "top_p": ["0.9", ".9", "9e-1", "0.90"],
    "max_tokens": ["3", "+3", "03"],
    "bars": ["2", "+2", "02"],
    "bpm_level": ["3", "+3", "03"],
}
# text the whole-number and the real-number rule refuse
_REFUSED = {
    parse_whole: ["1_0", " 3", "3 ", "٣", "3e0", "3.0", "", "0x3", "nan"],
    parse_real: ["1_0", " 1", "1 ", "١", "1.٠", "nan", "inf", "1e400", "0x1p0", ""],
}
# settings whose text is taken as it is: a genre name, a control file's path
_AS_TEXT = {"genre", "control"}


def test_every_setting_has_text_cases():
    assert set(_ACCEPTED) | _AS_TEXT == set(cli._SETTINGS)
    assert {s.key for s in cli._SETTINGS.values() if s.text is str} == _AS_TEXT


def _flag_cases():
    for key, setting in cli._SETTINGS.items():
        if key in _ACCEPTED:
            for command in setting.commands:
                for flag in setting.flags:
                    yield pytest.param(key, flag, command, id=f"{command}{flag}")


@pytest.mark.parametrize("key, flag, command", list(_flag_cases()))
def test_a_flag_reads_its_text_by_one_rule(project, tmp_path, monkeypatch, capsys, key, flag, command):
    monkeypatch.setattr(os, "cpu_count", lambda: 1)  # the worker count changes no output
    setting = cli._SETTINGS[key]
    outputs = []
    for i, text in enumerate(_ACCEPTED[key]):
        assert main([*_command(project, command, tmp_path / f"run{i}"), flag, text]) == 0
        outputs.append(_files(tmp_path / f"run{i}"))
    assert outputs[0] and all(out == outputs[0] for out in outputs)
    for i, text in enumerate(_REFUSED[setting.text]):
        capsys.readouterr()
        assert main([*_command(project, command, tmp_path / f"refused{i}"), flag, text]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {'/'.join(setting.flags)}: not a ") and repr(text) in err
        assert not (tmp_path / f"refused{i}").exists()


def test_the_environment_seed_reads_its_text_by_the_whole_rule(project, tmp_path, monkeypatch, capsys):
    outputs = []
    for i, text in enumerate(_ACCEPTED["seed"]):
        monkeypatch.setenv("SYMPAC_SEED", text)
        assert main(_command(project, "generate", tmp_path / f"run{i}")) == 0
        outputs.append(_files(tmp_path / f"run{i}"))
    assert outputs[0] and all(out == outputs[0] for out in outputs)
    assert json.loads(outputs[0]["manifest.json"])["run"]["seed"] == 3
    for i, text in enumerate(_REFUSED[parse_whole]):
        monkeypatch.setenv("SYMPAC_SEED", text)
        capsys.readouterr()
        assert main(_command(project, "generate", tmp_path / f"refused{i}")) == 1
        assert capsys.readouterr().err == f"error: SYMPAC_SEED: not a whole number: {text!r}\n"
        assert not (tmp_path / f"refused{i}").exists()


@pytest.mark.parametrize(
    "env, flags, named",
    [
        ({}, ["--bars", "1_0"], "--bars"),
        ({}, ["--seed", " 1_2"], "--seed"),
        ({"SYMPAC_SEED": "1_2"}, [], "SYMPAC_SEED"),
        ({}, ["--temperature", "1_0"], "--temperature"),
        ({}, ["--temperature", "nan"], "--temperature"),
        ({}, ["--bpm-level", " 3"], "--bpm-level"),
        ({}, ["--bars", " ٣ "], "--bars"),
        ({}, ["--structure", "verse*1_0"], "bad bar count '1_0' in structure"),
        ({}, ["--jobs", "0"], "jobs"),
        ({}, ["--jobs", "-3"], "jobs"),
    ],
)
def test_a_number_int_or_float_would_have_read_is_refused(project, tmp_path, monkeypatch, capsys,
                                                           env, flags, named):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    capsys.readouterr()
    assert main([*_command(project, "generate", tmp_path / "out"), *flags]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# the settings no number rule reads

def test_a_config_genre_is_read_by_ingest_and_left_to_the_flag_by_generate(project, tmp_path, capsys):
    (tmp_path / "rock.json").write_text(json.dumps({"genre": "Rock"}))
    config = ["--config", str(tmp_path / "rock.json")]
    assert main([*config, *_command(project, "ingest", tmp_path / "cfg")]) == 0
    assert main([*_command(project, "ingest", tmp_path / "flag"), "--genre", "Rock"]) == 0
    assert main([*_command(project, "ingest", tmp_path / "pop")]) == 0
    assert _files(tmp_path / "cfg") == _files(tmp_path / "flag") != _files(tmp_path / "pop")
    assert main([*config, *_command(project, "generate", tmp_path / "gen")]) == 0
    assert json.loads((tmp_path / "gen" / "manifest.json").read_text())["run"]["control"] == {"n_bars": 1}
    (tmp_path / "five.json").write_text(json.dumps({"genre": 5}))
    capsys.readouterr()
    assert main(["--config", str(tmp_path / "five.json"), *_command(project, "ingest", tmp_path / "x")]) == 1
    assert capsys.readouterr().err == "error: config 'genre': not a str: 5\n"
    assert not (tmp_path / "x").exists()


def test_a_config_control_is_a_control_file_inline(project, tmp_path, capsys):
    control = {"chords": ["C", "G"], "n_bars": 2}
    (tmp_path / "ctrl.json").write_text(json.dumps(control))
    argv = ["generate", "--model", str(project / "m.bin"), "--out-dir"]
    assert main([*argv, str(tmp_path / "file"), "--control", str(tmp_path / "ctrl.json")]) == 0
    for i, value in enumerate([control, None]):
        (tmp_path / "cfg.json").write_text(json.dumps({"control": value}))
        assert main(["--config", str(tmp_path / "cfg.json"), *argv, str(tmp_path / f"cfg{i}"),
                     "--bars", "2"]) == 0
    manifests = [json.loads((tmp_path / d / "manifest.json").read_text()) for d in ("file", "cfg0", "cfg1")]
    assert manifests[0]["outputs"] == manifests[1]["outputs"]
    assert manifests[2]["run"]["control"] == {"n_bars": 2}
    (tmp_path / "cfg.json").write_text(json.dumps({"control": [control]}))
    capsys.readouterr()
    assert main(["--config", str(tmp_path / "cfg.json"), *argv, str(tmp_path / "x")]) == 1
    assert capsys.readouterr().err.startswith("error: config 'control': not a dict: ")
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# --help

# the flags each command's --help listed before the table: it lists them all still, and no others
_HELP_FLAGS = {
    "ingest": "--out --genre --jobs",
    "train": "--corpus --out --order --discount",
    "generate": "--model --out-dir -n --n-samples --seed --control --chords --structure --genre "
                "--bpm-level --tracks --forced-tracks --bars --temperature --top-k --top-p "
                "--max-tokens --midi --text --jobs --from-manifest",
    "evaluate": "--generated --reference --which --chords --structure --bank --out-dir --jobs",
    "detect-chords": "--bank",
    "validate": "",
}


@pytest.mark.parametrize("command", _HELP_FLAGS)
def test_help_lists_every_flag_of_the_command(command, capsys):
    with pytest.raises(SystemExit) as stop:
        main([command, "--help"])
    assert stop.value.code == 0
    listed = re.findall(r"(?:^  |, )(--?[a-z][a-z-]*)", capsys.readouterr().out, re.M)
    assert sorted(listed) == sorted(["-h", "--help", *_HELP_FLAGS[command].split()])


# ---------------------------------------------------------------------------
# the README's settings table

_RULE_NAMES = {as_whole: "`as_whole`", as_real: "`as_real`", parse_whole: "`parse_whole`",
               parse_real: "`parse_real`"}


def _rule(rule) -> str:
    if rule is None:
        return "—"
    if rule in _RULE_NAMES:
        return _RULE_NAMES[rule]
    return {"str": "string", "dict": "object"}[rule.__name__]


def _readme_row(setting) -> str:
    """The README's row for ``setting``, rendered from the code's table."""
    flags = ", ".join(f"`{flag}`" for flag in setting.flags)
    if setting.env:
        flags += f", env `{setting.env}`"
    json_rule = _rule(setting.json)
    if setting.json is not None and setting.default is None:
        json_rule += " or null"
    text_rule = "text" if setting.text is str else _rule(setting.text)
    default = "none" if setting.default is None else f"`{json.dumps(setting.default)}`"
    manifest = {None: "no", "run": f"`run.{setting.key}`", "sampler": f"`run.sampler.{setting.key}`"}
    cells = [f"`{setting.key}`", flags, ", ".join(setting.commands), json_rule, text_rule, default,
             manifest[setting.manifest]]
    return "| " + " | ".join(cells) + " |"


def test_the_readme_settings_table_is_the_code_table():
    lines = README.read_text().splitlines()
    start = lines.index("| key | flags | commands | JSON rule | text rule | default | manifest |")
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    assert rows == [_readme_row(setting) for setting in cli._SETTINGS.values()]
