"""Every error sympac raises crosses a process boundary intact: a worker's
error reaches the parent with its type, its attributes and its message."""

import os
import pickle

import pytest

import sympac.errors as errors
from sympac.cli import main
from sympac.encoding import write_token_file

# one instance of each error type, built as the package builds it
_INSTANCES = [
    errors.SympacError("base"),
    errors.ParseError("line 1, column 2: bad"),
    errors.UnsupportedFormatError("SMF format 2"),
    errors.ValidationError("beats[3]: times must be strictly increasing"),
    errors.EmptySongError("no notes"),
    errors.DecodeError(1, "expected genre after bar, found end_of_prompt", ("genre",), "g/s.tokens[0]"),
    errors.ControlError("unknown genre 'Polka'"),
    errors.ConstraintConflictError(7, "chord", "chords=C:maj"),
    errors.ModelFormatError("bad magic; not a model file"),
]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_the_instances_cover_every_error_type():
    assert {type(e) for e in _INSTANCES} == {errors.SympacError, *_subclasses(errors.SympacError)}


@pytest.mark.parametrize("error", _INSTANCES, ids=lambda e: type(e).__name__)
def test_every_error_pickles_with_its_type_attributes_and_message(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert vars(copy) == vars(error)
    assert str(copy) == str(error)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_worker_decode_error_reports_like_a_serial_one(tmp_path, monkeypatch, capsys, jobs):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)  # two workers under --jobs 2 on any host
    for name in ("a", "b"):
        write_token_file(tmp_path / f"{name}.tokens", [0, 1])
    assert main(["validate", str(tmp_path)]) == 2
    named = f"{tmp_path / 'a.tokens'}[0]: token 1: expected genre after bar, found end_of_prompt"
    assert capsys.readouterr().out.splitlines()[0] == named
    assert main([
        "evaluate", "--generated", str(tmp_path), "--which", "chords", "--chords", "C",
        "--jobs", jobs,
    ]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
    assert main(["detect-chords", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {named}\n"
