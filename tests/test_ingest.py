import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympac.encoding import decode_sequence, encode_song
from sympac.errors import ParseError, SympacError, ValidationError
from sympac.ingest import (
    AnnotatedSong,
    BeatEvent,
    GridNote,
    bpm_level_of,
    parse_annotations,
    quantize_to_grid,
    render_annotations,
    serialize_annotations,
)
from synthcorpus import damaged, random_annotated_song, random_grid_song


def _doc(**overrides):
    doc = {
        "source_id": "t",
        "genre": "Pop",
        "beats": [[0.0, 1], [0.5, 2], [1.0, 3], [1.5, 4], [2.0, 1]],
        "chords": [[0.0, 2.0, "C:maj"]],
        "sections": [],
        "vocal": [],
        "piano": [],
        "guitar": [],
        "bass": [],
        "drums": [],
    }
    doc.update(overrides)
    return json.dumps(doc)


def test_parse_minimal_document():
    song = parse_annotations(_doc())
    assert len(song.beats) == 5
    assert len(song.chords) == 1
    assert song.genre == "Pop"


def test_parse_rejects_inverted_note():
    with pytest.raises(ValidationError, match="offset <= onset"):
        parse_annotations(_doc(vocal=[[1.0, 0.5, 60]]))


def test_parse_rejects_overlapping_sections():
    bad = _doc(sections=[[0.0, 1.5, "intro"], [1.0, 2.0, "verse"]])
    with pytest.raises(ValidationError, match=r"sections\[1\]"):
        parse_annotations(bad)


def test_parse_malformed_json_reports_line():
    with pytest.raises(ParseError, match="line 1"):
        parse_annotations(b"{broken")


@pytest.mark.parametrize(
    "data, where",
    [
        (_doc(beats=[["x", 1]]), r"beats\[0\]"),
        (_doc(vocal=[[0.0, 1.0, None]]), r"vocal\[0\]"),
        ('{"genre": "Pop", "drums": [[0.0, 1e400]]}', r"drums\[0\]"),
        (_doc(vocal=[[math.nan, 1.0, 60]]), r"vocal\[0\].*finite"),
        (_doc(beats=[[0.0, 1], [math.inf, 2]]), r"beats\[1\].*finite"),
        (_doc(beats=[[0.0, 1], [0.5, 2], [math.nan, 3]]), r"beats\[2\].*finite"),
        (_doc(vocal=[["nan", 1.0, 60]]), r"vocal\[0\].*not a real number"),
        (_doc(beats=[[0.0, 1], ["inf", 2]]), r"beats\[1\].*not a real number"),
        ('{"genre": "Pop", "chords": [[0.0, Infinity, "C:maj"]]}', r"chords\[0\].*finite"),
        ('{"genre": "Pop", "drums": [[NaN, 36]]}', r"drums\[0\].*finite"),
        (b"\xff", "not UTF-8"),
    ],
)
def test_parse_rejects_unconvertible_values(data, where):
    with pytest.raises(ParseError, match=where):
        parse_annotations(data)


@pytest.mark.parametrize(
    "beats",
    [
        [[0.0, 1], [5e-324, 2], [1e-323, 3], [1.5e-323, 4], [2e-323, 1]],
        [[-1.7e308, 1], [1.7e308, 2]],
    ],
)
def test_quantize_rejects_bars_too_short_or_long_for_the_grid(beats):
    song = parse_annotations(_doc(beats=beats, vocal=[[0.0, 1.0, 60]]))
    with pytest.raises(ValidationError, match="does not split"):
        quantize_to_grid(song)


def test_quantize_clamps_a_note_too_long_to_count_in_steps():
    song = parse_annotations(_doc(vocal=[[0.0, 1.7e308, 60]]))
    (note,) = quantize_to_grid(song).bars[0].tracks["vocal"]
    assert note.duration == 32


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_damaged_annotation_bytes_parse_or_raise_sympac_error(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blob = serialize_annotations(random_annotated_song(rng)).encode()
    try:
        quantize_to_grid(parse_annotations(damaged(blob, data)))
    except SympacError:
        pass


def test_parse_ignores_unknown_fields():
    song = parse_annotations(_doc(extra_field={"x": 1}))
    assert song.source_id == "t"


def test_parse_maps_instrumental_alias():
    song = parse_annotations(_doc(sections=[[0.0, 2.0, "instrumental"]]))
    assert song.sections[0].label == "inst"


def test_parse_rejects_bad_beat_cycle():
    with pytest.raises(ValidationError, match="cycle"):
        parse_annotations(_doc(beats=[[0.0, 1], [0.5, 2], [1.0, 1], [1.5, 2], [2.0, 3], [2.5, 4], [3.0, 1]]))


def test_parse_rejects_unsupported_meter():
    with pytest.raises(ValidationError):
        parse_annotations(_doc(beats=[[i * 0.5, i % 5 + 1] for i in range(11)]))


def test_serialize_round_trip_random_songs():
    rng = np.random.default_rng(7)
    for _ in range(50):
        song = random_annotated_song(rng)
        again = parse_annotations(serialize_annotations(song))
        assert again == song


@pytest.mark.parametrize(
    "bpm,bucket",
    [(120.0, 4), (81.999, 0), (143.0, 7), (82.0, 1), (96.0, 2), (110.0, 3), (125.0, 5), (132.0, 6), (1e-9, 0), (1e6, 7)],
)
def test_bpm_buckets(bpm, bucket):
    assert bpm_level_of(bpm) == bucket


def test_bpm_level_partitions_positive_reals():
    rng = np.random.default_rng(0)
    edges = [82, 96, 110, 120, 125, 132, 143]
    for bpm in np.exp(rng.uniform(np.log(1e-3), np.log(1e4), size=2000)):
        bucket = bpm_level_of(float(bpm))
        lo = 0 if bucket == 0 else edges[bucket - 1]
        hi = math.inf if bucket == 7 else edges[bucket]
        assert lo <= bpm < hi


def test_bpm_level_rejects_nonpositive():
    with pytest.raises(ValueError):
        bpm_level_of(0.0)


def test_quantize_arithmetic_example():
    # 4 beats at 0.5s: bar length 2.0s, step 0.125s; a 1.0s note spans 8 steps.
    doc = _doc(
        beats=[[0.0, 1], [0.5, 2], [1.0, 3], [1.5, 4], [2.0, 1]],
        piano=[[0.0, 1.0, 60]],
        chords=[],
    )
    grid = quantize_to_grid(parse_annotations(doc))
    assert len(grid.bars) == 1
    assert grid.bars[0].tracks["piano"] == [GridNote(0, 8, 60)]
    assert grid.bars[0].bpm_level == bpm_level_of(120.0) == 4


def test_duration_clamps():
    doc = _doc(piano=[[0.0, 0.01, 60], [0.5, 12.0, 62]])
    bar = quantize_to_grid(parse_annotations(doc)).bars[0]
    by_pitch = {n.pitch: n for n in bar.tracks["piano"]}
    assert by_pitch[60].duration == 1  # shorter than half a step
    assert by_pitch[62].duration == 32  # spans three bars


def test_quantize_requires_two_beats():
    with pytest.raises(ValidationError, match="tempo"):
        quantize_to_grid(parse_annotations(_doc(beats=[[0.0, 1]])))


def test_quantize_pads_final_partial_bar():
    doc = _doc(
        beats=[[0.0, 1], [0.5, 2], [1.0, 3], [1.5, 4], [2.0, 1], [2.5, 2]],
        piano=[[2.5, 3.0, 72]],
    )
    grid = quantize_to_grid(parse_annotations(doc))
    assert len(grid.bars) == 2
    assert grid.bars[1].tracks["piano"] == [GridNote(4, 4, 72)]


def test_quantize_drops_trailing_empty_downbeat():
    grid = quantize_to_grid(parse_annotations(_doc()))
    assert len(grid.bars) == 1


def test_section_from_bar_midpoint():
    doc = _doc(sections=[[0.0, 0.9, "intro"], [0.9, 2.0, "verse"]])
    grid = quantize_to_grid(parse_annotations(doc))
    assert grid.bars[0].section == "verse"  # midpoint at 1.0s


def test_chords_sampled_per_beat_and_merged():
    doc = _doc(chords=[[0.0, 1.0, "C:maj"], [1.0, 2.0, "G:maj"]])
    bar = quantize_to_grid(parse_annotations(doc)).bars[0]
    assert bar.chords == [(0, "C:maj"), (8, "G:maj")]


def test_uncovered_beats_default_to_no_chord():
    bar = quantize_to_grid(parse_annotations(_doc(chords=[]))).bars[0]
    assert bar.chords == [(0, "N")]


def test_colliding_notes_keep_longest():
    doc = _doc(piano=[[0.0, 0.5, 60], [0.01, 1.5, 60]])
    bar = quantize_to_grid(parse_annotations(doc)).bars[0]
    assert bar.tracks["piano"] == [GridNote(0, 12, 60)]


def test_grid_invariants_on_fuzzed_songs():
    rng = np.random.default_rng(11)
    for _ in range(120):
        grid = quantize_to_grid(random_annotated_song(rng))
        assert grid.bars
        for bar in grid.bars:
            steps = [s for s, _ in bar.chords]
            assert steps == sorted(set(steps))
            assert all(0 <= s < 16 for s in steps)
            for notes in bar.tracks.values():
                assert notes == sorted(notes, key=lambda n: (n.step, n.pitch))
                assert all(1 <= n.duration <= 32 and 0 <= n.pitch <= 127 for n in notes)
                assert len({(n.step, n.pitch) for n in notes}) == len(notes)
            assert bar.drums == sorted(set(bar.drums))
            assert all(35 <= k <= 81 for _, k in bar.drums)


def test_quantize_idempotent_on_its_image():
    rng = np.random.default_rng(23)
    for _ in range(40):
        tempo = float(rng.uniform(112, 118))  # interior of bucket [110,120)
        g1 = quantize_to_grid(render_annotations(random_grid_song(rng), tempo))
        g2 = quantize_to_grid(render_annotations(g1, tempo))
        assert g2 == g1


def test_render_then_quantize_reproduces_beat_aligned_songs():
    rng = np.random.default_rng(29)
    for _ in range(40):
        source = quantize_to_grid(random_annotated_song(rng, meter=4))
        tempo = 122.0  # interior of bucket [120,125)
        again = quantize_to_grid(render_annotations(source, tempo))
        assert len(again.bars) == len(source.bars)
        for a, b in zip(again.bars, source.bars):
            assert a.chords == b.chords
            assert a.tracks == b.tracks
            assert a.drums == b.drums
            assert a.section == b.section


def test_grid_song_equality_ignores_source_id():
    rng = np.random.default_rng(3)
    song = random_grid_song(rng)
    other = AnnotatedSong  # silence linters about unused import paths
    del other
    import dataclasses

    clone = dataclasses.replace(song, source_id="different")
    assert clone == song


def test_beats_before_first_downbeat_are_dropped():
    doc = _doc(
        beats=[[0.0, 3], [0.5, 4], [1.0, 1], [1.5, 2], [2.0, 3], [2.5, 4], [3.0, 1]],
        piano=[[0.0, 0.4, 50], [1.0, 1.4, 60]],
    )
    grid = quantize_to_grid(parse_annotations(doc))
    pitches = [n.pitch for bar in grid.bars for n in bar.tracks.get("piano", [])]
    assert pitches == [60]


def test_beat_event_is_plain_value():
    assert BeatEvent(0.0, 1) == BeatEvent(0.0, 1)


@pytest.mark.parametrize("symbol", ["C:sus2", "F#:sus4", "G#:aug", "B:dim"])
def test_an_annotation_of_any_vocabulary_quality_ingests_and_round_trips(symbol):
    song = quantize_to_grid(parse_annotations(_doc(chords=[[0.0, 1.0, symbol], [1.0, 2.0, "A:min"]])))
    assert song.bars[0].chords == [(0, symbol), (8, "A:min")]
    assert decode_sequence(encode_song(song)) == song


@pytest.mark.parametrize("symbol", ["H:maj", "C:maj7", "c:min", "C"])
def test_a_chord_outside_the_vocabulary_is_rejected(symbol):
    with pytest.raises(ValidationError, match=re.escape(f"chords[0]: unknown symbol {symbol!r}")):
        parse_annotations(_doc(chords=[[0.0, 1.0, symbol]]))


def test_quantize_idempotent_on_the_whole_chord_vocabulary():
    rng = np.random.default_rng(24)
    for _ in range(40):
        g1 = quantize_to_grid(render_annotations(random_grid_song(rng), 115.0))
        assert quantize_to_grid(render_annotations(g1, 115.0)) == g1
