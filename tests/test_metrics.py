import math

import numpy as np
import pytest

from sympac.ingest import GridBar, GridNote, GridSong
from sympac.metrics import (
    ALL_METRICS,
    METRIC_CLASSES,
    MetricDistribution,
    beat_chords,
    class_report,
    extract_metric,
    kld,
)
from synthcorpus import chord_corpus, random_grid_song


def song_with(bars):
    return GridSong(source_id="m", genre="Pop", bars=bars)


def bar(section="verse", chords=(), notes=None, drums=(), track="piano"):
    tracks = {track: list(notes)} if notes else {}
    return GridBar(
        section=section, bpm_level=4, chords=list(chords), tracks=tracks, drums=list(drums)
    )


def test_metric_count():
    assert len(ALL_METRICS) == 38
    assert len(METRIC_CLASSES) == 7
    assert sum(len(v) for v in METRIC_CLASSES.values()) == 38


def test_chord_label_single_chord_everywhere():
    song = song_with([bar(chords=[(0, "C:maj")])] * 3)
    dist = extract_metric([song], "chord_label")
    assert dist.bins == {"C:maj": 1.0}


def test_beat_chords_carry_across_bars():
    song = song_with([bar(chords=[(0, "C:maj"), (6, "G:maj")]), bar()])
    assert beat_chords(song) == [
        "C:maj", "C:maj", "G:maj", "G:maj",
        "G:maj", "G:maj", "G:maj", "G:maj",
    ]


def test_chord_root_and_transition():
    song = song_with([bar(chords=[(0, "C:maj"), (8, "C:min")])])
    assert extract_metric([song], "chord_root").bins == {"C": 1.0}
    assert extract_metric([song], "chord_transition").bins == {("C:maj", "C:min"): 1.0}


def test_section_label_weighted_by_bars():
    song = song_with([bar(section="verse")] * 8 + [bar(section="chorus")] * 8)
    dist = extract_metric([song], "section_label")
    assert dist.bins == {"verse": 0.5, "chorus": 0.5}


def test_section_bigram_uses_runs():
    song = song_with(
        [bar(section="intro")] * 2 + [bar(section="verse")] * 2 + [bar(section="chorus")]
    )
    dist = extract_metric([song], "section_label_bigram")
    assert dist.bins == {("intro", "verse"): 0.5, ("verse", "chorus"): 0.5}


def test_instrument_labels_per_bar():
    song = song_with([
        bar(notes=[GridNote(0, 4, 60)], drums=[(0, 38)]),
        bar(),
    ])
    dist = extract_metric([song], "instrument_labels_per_bar")
    assert dist.bins == {("piano", "drums"): 0.5, (): 0.5}


def test_note_metrics_per_track():
    song = song_with([
        bar(notes=[GridNote(0, 4, 60), GridNote(4, 2, 72)]),
        bar(notes=[GridNote(0, 8, 65)]),
    ])
    assert extract_metric([song], "piano_note_pitch").bins == {60: 1 / 3, 72: 1 / 3, 65: 1 / 3}
    assert extract_metric([song], "piano_note_duration").bins == {4: 1 / 3, 2: 1 / 3, 8: 1 / 3}
    assert extract_metric([song], "piano_pitch_class").bins == {0: 2 / 3, 5: 1 / 3}
    assert extract_metric([song], "piano_min_pitch_per_bar").bins == {60: 0.5, 65: 0.5}
    assert extract_metric([song], "piano_max_pitch_per_bar").bins == {72: 0.5, 65: 0.5}
    assert extract_metric([song], "piano_max_notes_per_bar").bins == {2: 1.0}
    with pytest.raises(ValueError, match="no observations"):
        extract_metric([song], "vocal_note_pitch")


def test_uniformity_zero_for_equal_counts():
    song = song_with([bar(notes=[GridNote(0, 4, 60)]), bar(notes=[GridNote(0, 4, 62)])])
    assert extract_metric([song], "piano_notes_uniformity").bins == {0.0: 1.0}


def test_uniformity_binning_of_concentrated_counts():
    # all notes in one of four bars: relative entropy = ln(4)
    song = song_with([bar(notes=[GridNote(0, 4, 60), GridNote(8, 4, 62)])] + [bar()] * 3)
    dist = extract_metric([song], "piano_notes_uniformity")
    (value,) = dist.bins
    assert value == round(math.floor(math.log(4) / 0.05) * 0.05, 2)


def test_drum_metrics():
    song = song_with([
        bar(drums=[(0, 36), (4, 38), (8, 36)]),
        bar(drums=[(0, 42)]),
    ])
    assert extract_metric([song], "drum_pitch").bins == {36: 0.5, 38: 0.25, 42: 0.25}
    assert extract_metric([song], "max_drums_per_bar").bins == {3: 1.0}
    assert extract_metric([song], "unique_drums_per_bar").bins == {(36, 38): 0.5, (42,): 0.5}


def test_unknown_metric_rejected():
    with pytest.raises(ValueError, match="unknown metric"):
        extract_metric([song_with([bar()])], "note_pitch")


def test_distributions_sum_to_one():
    rng = np.random.default_rng(83)
    corpus = [random_grid_song(rng) for _ in range(30)]
    for name in ALL_METRICS:
        try:
            dist = extract_metric(corpus, name)
        except ValueError:
            continue
        assert abs(sum(dist.bins.values()) - 1.0) < 1e-9
        assert all(v >= 0 for v in dist.bins.values())
        assert dist.support_size == len(dist.bins)


def test_kld_identity_is_exactly_zero():
    rng = np.random.default_rng(89)
    corpus = [random_grid_song(rng) for _ in range(20)]
    for name in ALL_METRICS:
        try:
            dist = extract_metric(corpus, name)
        except ValueError:
            continue
        assert kld(dist, dist) == 0.0


def test_kld_disjoint_supports_closed_form():
    p = MetricDistribution("chord_label", {"a": 1.0}, 1)
    q = MetricDistribution("chord_label", {"b": 1.0}, 1)
    eps = 1e-6
    assert kld(p, q) == pytest.approx(math.log((1 + eps) / eps), rel=1e-9)


def test_kld_nonnegative_on_random_pairs():
    rng = np.random.default_rng(97)
    for _ in range(200):
        support = [int(x) for x in rng.choice(50, size=rng.integers(1, 12), replace=False)]
        def sample_dist():
            w = rng.random(len(support)) + 1e-3
            w = w / w.sum()
            return MetricDistribution("m", dict(zip(support, w)), len(support))
        assert kld(sample_dist(), sample_dist()) >= 0.0


def test_kld_metric_mismatch():
    p = MetricDistribution("chord_label", {"a": 1.0}, 1)
    q = MetricDistribution("chord_root", {"a": 1.0}, 1)
    with pytest.raises(ValueError, match="mismatch"):
        kld(p, q)


def test_class_report_identity_is_zero():
    rng = np.random.default_rng(101)
    corpus = chord_corpus(rng, 10)
    report = class_report(corpus, corpus)
    for name, value in report.per_metric.items():
        assert value == 0.0 or (value is None and name.startswith("guitar")), name
    for cls, value in report.class_means.items():
        assert value == 0.0 or (value is None and cls == "Guitar Note")


def test_class_report_takes_each_songs_beat_chords_once(monkeypatch):
    from sympac import metrics

    calls = []

    def counted(song):
        calls.append(song)
        return beat_chords(song)

    monkeypatch.setattr(metrics, "beat_chords", counted)
    rng = np.random.default_rng(109)
    gen, ref = chord_corpus(rng, 3), chord_corpus(rng, 5)
    class_report(gen, ref)
    assert sorted(map(id, calls)) == sorted(map(id, gen + ref))


def test_class_report_renders():
    rng = np.random.default_rng(103)
    gen = chord_corpus(rng, 6)
    ref = chord_corpus(rng, 6)
    report = class_report(gen, ref)
    text = report.to_text()
    assert "Chord" in text and "Drum Note" in text
    csv_text = report.to_csv()
    assert csv_text.count("\n") == 39  # header + 38 metric rows
    assert "Guitar Note" in report.to_json()["classes"]


def test_class_report_marks_missing_tracks():
    # corpus without guitar: guitar metrics are n/a, class mean is None
    rng = np.random.default_rng(107)
    gen = chord_corpus(rng, 4)
    ref = chord_corpus(rng, 4)
    for song in gen + ref:
        for b in song.bars:
            b.tracks.pop("guitar", None)
    report = class_report(gen, ref)
    assert report.class_means["Guitar Note"] is None
    assert report.per_metric["guitar_note_pitch"] is None
    assert report.class_means["Piano Note"] >= 0.0
