"""One rule per kind of number, from every source.

Text (a flag, ``SYMPAC_SEED``, a ``--structure`` count) has its own two
rules, ``vocab.parse_whole`` and ``vocab.parse_real``: ASCII digits with an
optional sign, and an ASCII decimal literal.  ``tests/test_settings.py``
runs them through every flag.

A whole number (``vocab.as_whole``) is an integer of any type, or a float
with an integral value; a real number (``vocab.as_real``) is an int or a
float of any type.  A bool or a string is neither.  Each field below is
read from one or more sources: config files, manifests, control files,
annotation rows, template banks and the Python constructors.  From every
source, ``3`` and ``3.0`` (and, from Python, ``np.int64(3)``) give equal
objects and identical outputs, and ``True``, ``"3"`` and ``3.5`` are
refused with that source's error and exit code.  Real-number fields take
``1``, ``0.9`` and ``np.float64(0.9)`` and refuse ``True`` and ``"0.9"``.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sympac.chroma import TemplateBank
import sympac.cli as cli
from sympac.cli import main
from sympac.encoding import encode_song, write_corpus
from sympac.errors import ControlError, ParseError, ValidationError
from sympac.fsm import ControlSpec
from sympac.ingest import parse_annotations, render_annotations, serialize_annotations
from sympac.lm import NgramModel, save_model, train_ngram
from sympac.sampler import SamplerConfig
from sympac.vocab import as_id, as_real, as_whole, parse_real, parse_whole
from synthcorpus import chord_following_song

_CORPUS = [encode_song(chord_following_song(np.random.default_rng(5), n_bars=4))]


def _refused_wholes(good):
    return [True, str(good), good + 0.5]


def _files(root) -> dict:
    """Every file under ``root`` by relative name, with its bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# the rules

@pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0)])
def test_a_whole_number_is_a_python_int(value):
    whole = as_whole(value)
    assert whole == 3 and type(whole) is int


@pytest.mark.parametrize(
    "value", [True, False, np.bool_(True), "3", 2.5, math.nan, math.inf, None, [3], 1j]
)
def test_anything_else_is_not_a_whole_number(value):
    with pytest.raises(ValueError, match="not a"):
        as_whole(value)


@pytest.mark.parametrize("value", [1, 0.9, np.float64(0.9), np.float32(0.5), np.int64(1)])
def test_a_real_number_is_a_python_float(value):
    real = as_real(value)
    assert real == float(value) and type(real) is float


@pytest.mark.parametrize("value", [True, np.bool_(False), "0.9", None, [0.9], 1j])
def test_anything_else_is_not_a_real_number(value):
    with pytest.raises(ValueError, match="not a real number"):
        as_real(value)


_NON_ASCII_DIGITS = st.characters(categories=("Nd",)).filter(lambda c: not c.isascii())
_WHITESPACE = st.sampled_from([chr(c) for c in range(0x3001) if chr(c).isspace()])


@given(st.integers())
def test_the_whole_text_rule_reads_every_int_it_writes(n):
    whole = parse_whole(str(n))
    assert whole == n and type(whole) is int


@given(st.integers(), st.data())
def test_the_whole_text_rule_refuses_separators_spaces_and_other_digits(n, data):
    text = str(n)
    at = data.draw(st.integers(0, len(text)))
    insert = data.draw(st.just("_") | _NON_ASCII_DIGITS)
    space = data.draw(_WHITESPACE)
    for refused in (text[:at] + insert + text[at:], space + text, text + space):
        with pytest.raises(ValueError, match="not a whole number"):
            parse_whole(refused)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_the_real_text_rule_reads_every_finite_float_it_writes(x):
    real = parse_real(repr(x))
    assert repr(real) == repr(x) and type(real) is float  # repr tells -0.0 from 0.0


@pytest.mark.parametrize("text", [" \u0663 ", "1e3", "3.0", "+", "", "0x10", "3\n"])
def test_the_whole_text_rule_refuses_what_int_takes_or_a_float_spells(text):
    with pytest.raises(ValueError, match="not a whole number"):
        parse_whole(text)


@pytest.mark.parametrize("text", ["nan", "inf", "-Infinity", "1e400", "1_0.5", " 1", "\u0661.5", ".", "e3", "0x1p0"])
def test_the_real_text_rule_refuses_what_float_takes_beyond_a_finite_literal(text):
    with pytest.raises(ValueError, match="not a real number"):
        parse_real(text)


def test_a_token_id_is_never_a_float():
    assert as_id(np.int64(3)) == 3 and type(as_id(np.int64(3))) is int
    for value in (3.0, np.float64(3.0), True):
        with pytest.raises(ValueError, match="token ids"):
            as_id(value)


# ---------------------------------------------------------------------------
# the Python constructors

# field: (build an object from the value, the value, the error refusing one)
_WHOLE_IN_PYTHON = {
    "SamplerConfig.top_k": (lambda v: SamplerConfig(top_k=v), 3, ValueError),
    "SamplerConfig.max_tokens": (lambda v: SamplerConfig(max_tokens=v), 4000, ValueError),
    "SamplerConfig.rng_seed": (lambda v: SamplerConfig(rng_seed=v), 3, ValueError),
    "ControlSpec.bpm_level": (lambda v: ControlSpec(bpm_level=v), 3, ControlError),
    "ControlSpec.n_bars": (lambda v: ControlSpec(n_bars=v), 24, ControlError),
    "ControlSpec schedule bar": (lambda v: ControlSpec(chord_schedule=((v, 0, "C"),)), 3, ControlError),
    "ControlSpec schedule step": (lambda v: ControlSpec(chord_schedule=((0, v, "C"),)), 3, ControlError),
    "NgramModel.order": (lambda v: save_model(NgramModel(v)), 3, ValueError),
    "train_ngram order": (lambda v: save_model(train_ngram(_CORPUS, order=v)), 3, ValueError),
}


@pytest.mark.parametrize("field", _WHOLE_IN_PYTHON)
def test_python_callers_give_whole_numbers_of_any_type(field):
    build, good, _ = _WHOLE_IN_PYTHON[field]
    # repr shows 3 and 3.0 and np.int64(3) apart: the stored values are ints
    assert repr(build(good)) == repr(build(float(good))) == repr(build(np.int64(good)))


@pytest.mark.parametrize("field", _WHOLE_IN_PYTHON)
def test_python_callers_are_refused_a_bool_a_string_or_a_fraction(field):
    build, good, error = _WHOLE_IN_PYTHON[field]
    for value in _refused_wholes(good):
        with pytest.raises(error):
            build(value)


def _bank(v):
    return TemplateBank.from_json({"maj": [v] + [0.0] * 11, "min": [0.0, v] + [0.0] * 10})


# field: (build, pairs of values that build the same object, the error refusing one)
_REAL_IN_PYTHON = {
    "SamplerConfig.temperature": (lambda v: SamplerConfig(temperature=v), [1, 0.9], ValueError),
    "SamplerConfig.top_p": (lambda v: SamplerConfig(top_p=v), [1, 0.9], ValueError),
    # the discount lies in (0, 1), so no int is one
    "NgramModel.discount": (lambda v: save_model(NgramModel(3, v)), [0.9], ValueError),
    "template entry": (lambda v: _bank(v).to_json(), [1, 0.9], ValidationError),
}


@pytest.mark.parametrize("field", _REAL_IN_PYTHON)
def test_python_callers_give_real_numbers_of_any_type(field):
    build, goods, error = _REAL_IN_PYTHON[field]
    for good in goods:
        assert repr(build(good)) == repr(build(float(good))) == repr(build(np.float64(good)))
    for value in (True, "0.9"):
        with pytest.raises(error):
            build(value)


# ---------------------------------------------------------------------------
# annotation rows

def _doc(**overrides) -> str:
    doc = {
        "genre": "Pop",
        "beats": [[0.0, 1], [0.5, 2], [1.0, 3], [1.5, 4], [2.0, 1]],
        "vocal": [[0.0, 1.0, 60]],
        "drums": [[0.0, 36]],
    }
    doc.update(overrides)
    return json.dumps(doc)


# field: (the document holding the value, the value)
_WHOLE_IN_ANNOTATIONS = {
    "beat count": (lambda v: _doc(beats=[[0.0, v], [0.5, 2], [1.0, 3], [1.5, 4], [2.0, 1]]), 1),
    "pitch": (lambda v: _doc(vocal=[[0.0, 1.0, v]]), 60),
    "drum key": (lambda v: _doc(drums=[[0.0, v]]), 36),
}


@pytest.mark.parametrize("field", _WHOLE_IN_ANNOTATIONS)
def test_annotation_rows_take_whole_numbers_and_refuse_the_rest(field, tmp_path):
    document, good = _WHOLE_IN_ANNOTATIONS[field]
    assert parse_annotations(document(good)) == parse_annotations(document(float(good)))
    for value in _refused_wholes(good):
        with pytest.raises(ParseError, match="not a"):
            parse_annotations(document(value))
        (tmp_path / "bad.json").write_text(document(value))
        out = tmp_path / "out" / "c.bin"
        assert main(["ingest", str(tmp_path / "bad.json"), "--out", str(out)]) == 2
        assert not out.parent.exists()


def test_annotation_times_take_real_numbers_and_refuse_the_rest():
    def document(v):
        return _doc(vocal=[[0.0, v, 60]])

    assert parse_annotations(document(1)) == parse_annotations(document(1.0))
    assert parse_annotations(document(0.9)).notes["vocal"][0].offset == 0.9
    for value in (True, "0.9"):
        with pytest.raises(ParseError, match="not a real number"):
            parse_annotations(document(value))


# ---------------------------------------------------------------------------
# control files

# field: (the control document holding the value, the value)
_WHOLE_IN_CONTROLS = {
    "bpm_level": (lambda v: {"bpm_level": v}, 3),
    "n_bars": (lambda v: {"n_bars": v}, 24),
    "structure bars": (lambda v: {"structure": [["verse", v]]}, 4),
    "schedule bar": (lambda v: {"chord_schedule": [[v, 0, "C:maj"]]}, 3),
    "schedule step": (lambda v: {"chord_schedule": [[0, v, "C:maj"]]}, 3),
}


@pytest.mark.parametrize("field", _WHOLE_IN_CONTROLS)
def test_control_files_take_whole_numbers_and_refuse_the_rest(field, tmp_path, capsys):
    document, good = _WHOLE_IN_CONTROLS[field]
    spec = ControlSpec.from_json(document(good))
    assert ControlSpec.from_json(document(float(good))) == spec
    assert ControlSpec.from_json(document(float(good))).to_json() == spec.to_json() == document(good)
    for value in _refused_wholes(good):
        with pytest.raises(ControlError):
            ControlSpec.from_json(document(value))
        (tmp_path / "ctrl.json").write_text(json.dumps(document(value)))
        out = tmp_path / "out"
        argv = ["generate", "--model", str(tmp_path / "m.bin"), "--out-dir", str(out)]
        assert main([*argv, "--control", str(tmp_path / "ctrl.json")]) == 1
        assert capsys.readouterr().err.startswith("control error: ")
        assert not out.exists()


# ---------------------------------------------------------------------------
# config files and manifests

@pytest.fixture(scope="module")
def project(tmp_path_factory):
    """Annotation files, their corpus and an order-3 model of it."""
    root = tmp_path_factory.mktemp("project")
    rng = np.random.default_rng(11)
    (root / "songs").mkdir()
    songs = [chord_following_song(rng, n_bars=4) for _ in range(3)]
    for i, song in enumerate(songs):
        annotated = serialize_annotations(render_annotations(song, 122.0))
        (root / "songs" / f"song{i}.json").write_text(annotated)
    write_corpus(root / "corpus.bin", [encode_song(song) for song in songs])
    assert main(["train", "--corpus", str(root / "corpus.bin"), "--out", str(root / "m.bin"),
                 "--order", "3"]) == 0
    return root


def _command(project, key: str, out) -> list[str]:
    """A command that reads ``key`` from the config file, writing under ``out``."""
    if key == "jobs":
        return ["ingest", str(project / "songs"), "--out", str(out / "c.bin")]
    if key in ("order", "discount"):
        return ["train", "--corpus", str(project / "corpus.bin"), "--out", str(out / "m.bin")]
    return ["generate", "--model", str(project / "m.bin"), "--bars", "1", "--out-dir", str(out)]


def _run_with_config(project, where, key, value) -> int:
    """Run the command reading ``key`` with a config file giving ``value``,
    writing under ``where / "out"``."""
    where.mkdir()
    (where / "cfg.json").write_text(json.dumps({key: value}))
    return main(["--config", str(where / "cfg.json"), *_command(project, key, where / "out")])


def _same_outputs(project, tmp_path, key, values):
    outputs = []
    for i, value in enumerate(values):
        assert _run_with_config(project, tmp_path / f"run{i}", key, value) == 0
        outputs.append(_files(tmp_path / f"run{i}" / "out"))
    assert outputs[0] and all(out == outputs[0] for out in outputs)


def _refused_by_config(project, tmp_path, capsys, key, values):
    for i, value in enumerate(values):
        capsys.readouterr()
        assert _run_with_config(project, tmp_path / f"refused{i}", key, value) == 1
        assert f"config {key!r}" in capsys.readouterr().err
        assert not (tmp_path / f"refused{i}" / "out").exists()


# key: the value (max_tokens 3 truncates every sample, which writes outputs too)
_WHOLE_IN_CONFIG = {"jobs": 2, "order": 3, "seed": 3, "n_samples": 3, "top_k": 3, "max_tokens": 3}
_REAL_IN_CONFIG = ["temperature", "top_p", "discount"]


@pytest.mark.parametrize("key", _WHOLE_IN_CONFIG)
def test_config_files_take_whole_numbers_and_refuse_the_rest(project, tmp_path, capsys, key):
    good = _WHOLE_IN_CONFIG[key]
    _same_outputs(project, tmp_path, key, [good, float(good)])
    _refused_by_config(project, tmp_path, capsys, key, _refused_wholes(good))


@pytest.mark.parametrize("key", _REAL_IN_CONFIG)
def test_config_files_take_real_numbers_and_refuse_the_rest(project, tmp_path, capsys, key):
    # the discount lies in (0, 1), so no int is one
    _same_outputs(project, tmp_path, key, [0.9] if key == "discount" else [1, 1.0])
    _refused_by_config(project, tmp_path, capsys, key, [True, "0.9"])


@pytest.fixture(scope="module")
def manifest(project):
    out = project / "recorded"
    assert main(["generate", "--model", str(project / "m.bin"), "--bars", "1", "--seed", "3",
                 "--top-k", "3", "--top-p", "0.9", "--out-dir", str(out)]) == 0
    return json.loads((out / "manifest.json").read_text())


def _rerun(where, manifest, field, value) -> int:
    """Rerun ``manifest`` with run ``field`` set to ``value``, writing under
    ``where / "out"``."""
    doc = json.loads(json.dumps(manifest))
    *parents, key = ["run", *field.split(".")]
    record = doc
    for name in parents:
        record = record[name]
    record[key] = value
    where.mkdir()
    (where / "manifest.json").write_text(json.dumps(doc))
    return main(["generate", "--from-manifest", str(where / "manifest.json"),
                 "--out-dir", str(where / "out")])


def _manifest_cases(manifest, tmp_path, capsys, field, goods, refused):
    outputs = []
    for i, value in enumerate(goods):
        assert _rerun(tmp_path / f"run{i}", manifest, field, value) == 0
        outputs.append(_files(tmp_path / f"run{i}" / "out"))
    assert outputs[0] and all(out == outputs[0] for out in outputs)
    for i, value in enumerate(refused):
        capsys.readouterr()
        assert _rerun(tmp_path / f"refused{i}", manifest, field, value) == 1
        assert repr(field.split(".")[-1]) in capsys.readouterr().err
        assert not (tmp_path / f"refused{i}" / "out").exists()


# manifest field: the value it records
_WHOLE_IN_MANIFESTS = {"seed": 3, "n_samples": 3, "sampler.top_k": 3, "sampler.max_tokens": 20000}
_REAL_IN_MANIFESTS = ["sampler.temperature", "sampler.top_p"]


def test_these_cases_cover_every_number_setting_of_the_cli_table():
    rows = cli._SETTINGS.values()

    def field(row):  # the manifest field it is read back from
        return row.key if row.manifest == "run" else f"{row.manifest}.{row.key}"

    assert set(_WHOLE_IN_CONFIG) == {row.key for row in rows if row.json is as_whole}
    assert set(_REAL_IN_CONFIG) == {row.key for row in rows if row.json is as_real}
    assert set(_WHOLE_IN_MANIFESTS) == {field(row) for row in rows if row.json is as_whole and row.manifest}
    assert set(_REAL_IN_MANIFESTS) == {field(row) for row in rows if row.json is as_real and row.manifest}


@pytest.mark.parametrize("field", _WHOLE_IN_MANIFESTS)
def test_manifests_take_whole_numbers_and_refuse_the_rest(manifest, tmp_path, capsys, field):
    good = _WHOLE_IN_MANIFESTS[field]
    _manifest_cases(manifest, tmp_path, capsys, field, [good, float(good)], _refused_wholes(good))


@pytest.mark.parametrize("field", _REAL_IN_MANIFESTS)
def test_manifests_take_real_numbers_and_refuse_the_rest(manifest, tmp_path, capsys, field):
    _manifest_cases(manifest, tmp_path, capsys, field, [1, 1.0], [True, "0.9"])


def test_template_bank_files_take_real_numbers_and_refuse_the_rest(manifest, project, tmp_path, capsys):
    generated = str(project / "recorded")
    for entries, rc in (([1] + [0] * 11, 0), ([True] + [0] * 11, 2), (["0.9"] + [0] * 11, 2)):
        (tmp_path / "bank.json").write_text(json.dumps({"maj": entries, "min": entries}))
        capsys.readouterr()
        assert main(["detect-chords", generated, "--bank", str(tmp_path / "bank.json")]) == rc
        assert ("'maj' must be 12 finite numbers" in capsys.readouterr().err) == (rc == 2)
