import json
import re

import numpy as np
import pytest

from sympac.chroma import (
    TemplateBank,
    bar_chroma,
    chord_accuracy,
    detect_bar_chords,
    detect_chord,
    ideal_bank,
    learn_templates,
)
from sympac.errors import ParseError, ValidationError
from sympac.ingest import GridBar, GridNote, GridSong
from sympac.vocab import ROOTS
from synthcorpus import chord_following_bar, random_grid_song, triad


def bar_with_pitch_classes(classes, duration=4):
    notes = [GridNote(0, duration, 60 + c) for c in sorted(classes)]
    return GridBar(section="verse", bpm_level=4, chords=[], tracks={"piano": notes}, drums=[])


def brute_force_detect(chroma, bank, threshold=0.5):
    """Explicit loop over all 24 rotated templates; the reference for
    the production detector."""
    chroma = np.asarray(chroma, dtype=float)
    norm = np.linalg.norm(chroma)
    if norm == 0:
        return "N"
    best = ("N", -np.inf)
    for quality in ("maj", "min"):
        for root in range(12):
            rotated = np.roll(bank.template(quality), root)
            score = float(np.dot(chroma / norm, rotated))
            if score > best[1] + 1e-12:
                best = (f"{ROOTS[root]}:{quality}", score)
    return best[0] if best[1] >= threshold else "N"


def test_bar_chroma_weights_by_duration():
    bar = GridBar(
        section="verse", bpm_level=4, chords=[],
        tracks={"piano": [GridNote(0, 4, 60)]}, drums=[],
    )
    chroma = bar_chroma(bar)
    assert chroma[0] == 4 and chroma.sum() == 4


def test_bar_chroma_equal_durations_spread_mass():
    bar = bar_with_pitch_classes([0, 4, 7])
    chroma = bar_chroma(bar)
    assert chroma[0] == chroma[4] == chroma[7] == 4
    assert chroma.sum() == 12


def test_bar_chroma_ignores_drums_and_empty_bar():
    empty = GridBar(section="verse", bpm_level=4, chords=[], tracks={}, drums=[(0, 38)])
    assert not bar_chroma(empty).any()


def test_detect_ideal_triads():
    bank = ideal_bank()
    maj = np.zeros(12); maj[[0, 4, 7]] = 1.0
    assert detect_chord(maj, bank) == "C:maj"
    amin = np.zeros(12); amin[[9, 0, 4]] = 1.0
    assert detect_chord(amin, bank) == "A:min"
    assert detect_chord(np.zeros(12), bank) == "N"


def test_detect_agrees_with_brute_force_on_random_chromas():
    rng = np.random.default_rng(71)
    bank = ideal_bank()
    for _ in range(500):
        chroma = rng.random(12) * rng.integers(1, 10)
        assert detect_chord(chroma, bank) == brute_force_detect(chroma, bank)


def test_transposition_equivariance():
    rng = np.random.default_rng(73)
    bank = ideal_bank()
    for _ in range(40):
        chroma = rng.random(12)
        base = detect_chord(chroma, bank, threshold=0.0)
        root0 = ROOTS.index(base.split(":")[0])
        quality = base.split(":")[1]
        for k in range(12):
            shifted = detect_chord(np.roll(chroma, k), bank, threshold=0.0)
            assert shifted == f"{ROOTS[(root0 + k) % 12]}:{quality}"


def test_scale_invariance():
    rng = np.random.default_rng(79)
    bank = ideal_bank()
    for _ in range(50):
        chroma = rng.random(12)
        for alpha in (1e-6, 0.5, 3.0, 1e6):
            assert detect_chord(alpha * chroma, bank) == detect_chord(chroma, bank)


def test_weak_match_reports_no_chord():
    bank = ideal_bank()
    flatish = np.ones(12)
    assert detect_chord(flatish, bank, threshold=0.99) == "N"


def test_learn_templates_from_pure_triads():
    bars = [(bar_with_pitch_classes(triad("C:maj")), ["C:maj"])]
    bars += [(bar_with_pitch_classes(triad("A:min")), ["A:min"])]
    bank = learn_templates(bars)
    expect = np.zeros(12); expect[[0, 4, 7]] = 1 / np.sqrt(3)
    assert bank.maj == pytest.approx(expect)
    expect_min = np.zeros(12); expect_min[[0, 3, 7]] = 1 / np.sqrt(3)
    assert bank.min == pytest.approx(expect_min)


def test_learning_is_rotation_invariant():
    c_only = learn_templates(
        [(bar_with_pitch_classes(triad("C:maj")), ["C:maj"]),
         (bar_with_pitch_classes(triad("C:min")), ["C:min"])]
    )
    d_only = learn_templates(
        [(bar_with_pitch_classes(triad("D:maj")), ["D:maj"]),
         (bar_with_pitch_classes(triad("D:min")), ["D:min"])]
    )
    assert c_only.maj == pytest.approx(d_only.maj)
    assert c_only.min == pytest.approx(d_only.min)


def test_learn_templates_missing_class():
    with pytest.raises(ValidationError, match="min"):
        learn_templates([(bar_with_pitch_classes(triad("C:maj")), ["C:maj"])])


def test_learned_bank_detects_its_own_material():
    bars = []
    for symbol in ("C:maj", "F:maj", "G:maj", "A:min", "D:min"):
        bars.append((chord_following_bar(symbol, "verse", 4), [symbol] * 4))
    bank = learn_templates(bars)
    for symbol in ("E:maj", "B:min", "F#:maj", "G#:min"):
        bar = chord_following_bar(symbol, "verse", 4)
        assert detect_chord(bar_chroma(bar), bank) == symbol


def test_bank_json_round_trip(tmp_path):
    bank = ideal_bank()
    bank.save(tmp_path / "bank.json")
    again = TemplateBank.load(tmp_path / "bank.json")
    assert again.maj == pytest.approx(bank.maj)
    assert again.min == pytest.approx(bank.min)


def test_bank_files_with_the_older_n_entry_load_alike(tmp_path):
    doc = ideal_bank().to_json()
    assert sorted(doc) == ["maj", "min"]
    (tmp_path / "old.json").write_text(json.dumps({**doc, "N": [1.0] * 12}))
    old = TemplateBank.load(tmp_path / "old.json")
    assert old.to_json() == doc
    rng = np.random.default_rng(12)
    for _ in range(50):
        chroma = rng.random(12)
        assert detect_chord(chroma, old) == detect_chord(chroma, ideal_bank())


_TWELVE = [1.0] + [0.0] * 11
# (file text, the error it raises, text the message must hold)
_BAD_BANKS = [
    pytest.param("{}", ValidationError, "'maj'", id="empty"),
    pytest.param("[1]", ValidationError, "JSON object", id="array"),
    pytest.param(json.dumps({"maj": 5, "min": _TWELVE}), ValidationError, "'maj'", id="number"),
    pytest.param(json.dumps({"maj": _TWELVE}), ValidationError, "'min'", id="no-min"),
    pytest.param(
        json.dumps({"maj": _TWELVE, "min": ["x"] * 12}), ValidationError, "'min'", id="strings"
    ),
    pytest.param(
        json.dumps({"maj": _TWELVE, "min": _TWELVE[:11]}), ValidationError, "'min'", id="eleven"
    ),
    pytest.param(
        json.dumps({"maj": [True] * 12, "min": _TWELVE}), ValidationError, "'maj'", id="booleans"
    ),
    pytest.param(
        json.dumps({"maj": [float("nan")] + _TWELVE[1:], "min": _TWELVE}),
        ValidationError, "'maj'", id="nan",
    ),
    pytest.param(
        json.dumps({"maj": _TWELVE, "min": [0.0] * 12}), ValidationError, "'min'", id="zero"
    ),
    pytest.param(
        json.dumps({"maj": [1e308] * 12, "min": _TWELVE}), ValidationError, "'maj'",
        id="norm-overflow",
    ),
    pytest.param("not json", ParseError, "template bank", id="not-json"),
]


@pytest.mark.parametrize("text,error,named", _BAD_BANKS)
def test_malformed_bank_files_raise_a_sympac_error(tmp_path, text, error, named):
    (tmp_path / "bank.json").write_text(text)
    with pytest.raises(error, match=re.escape(named)):
        TemplateBank.load(tmp_path / "bank.json")


def test_chord_accuracy_on_ideal_input():
    intended = ["C:maj", "G:maj", "A:min", "F:maj"]
    song = GridSong(
        source_id="s", genre="Pop",
        bars=[chord_following_bar(sym, "verse", 4) for sym in intended * 2],
    )
    # a per-bar list and the progression looped over the song score alike
    assert chord_accuracy([song, song], intended * 2) == (1.0, 16)
    assert chord_accuracy([song, song], intended) == (1.0, 16)


def test_chord_accuracy_excludes_no_chord_bars():
    intended = ["C:maj", "N"]
    song = GridSong(
        source_id="s", genre="Pop",
        bars=[chord_following_bar("C:maj", "verse", 4),
              GridBar("verse", 4, [], {}, [])],
    )
    assert chord_accuracy([song], intended) == (1.0, 1)


def test_chord_accuracy_all_excluded_is_undefined():
    song = GridSong(
        source_id="s", genre="Pop", bars=[GridBar("verse", 4, [], {}, [])]
    )
    assert chord_accuracy([song], ["N"]) == (None, 0)


def test_chord_accuracy_empty_progression():
    song = GridSong(
        source_id="s", genre="Pop", bars=[GridBar("verse", 4, [], {}, [])]
    )
    with pytest.raises(ValidationError, match="empty"):
        chord_accuracy([song], [])


def test_detect_bar_chords_runs_per_bar():
    song = GridSong(
        source_id="s", genre="Pop",
        bars=[chord_following_bar("C:maj", "verse", 4),
              chord_following_bar("G:min", "verse", 4)],
    )
    assert detect_bar_chords(song) == ["C:maj", "G:min"]


def test_detect_bar_chords_matches_per_bar_detection():
    rng = np.random.default_rng(83)
    song = GridSong(
        source_id="s", genre="Pop",
        bars=[random_grid_song(rng).bars[0] for _ in range(30)],
    )
    assert detect_bar_chords(song) == [detect_chord(bar_chroma(bar)) for bar in song.bars]
    assert detect_bar_chords(GridSong(source_id="e", genre="Pop", bars=[])) == []
