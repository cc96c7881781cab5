"""Corpus-level distribution metrics and KL-divergence comparison.

Seventeen metric families describe a corpus: three chord metrics
(sampled one chord per beat with carry-over), three structure metrics,
seven note metrics per melodic track, and four drum metrics.  Each
yields a discrete distribution; corpora are compared metric by metric
with smoothed KL divergence and averaged within seven metric classes
(chord, structure, one per melodic track, drums).  Every metric is one
row of the table ``_METRICS``; the public name lists derive from it.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import pathlib
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .ingest import GridBar, GridSong
from .vocab import NO_CHORD, TRACKS, chord_root

EPSILON = 1e-6
_BEAT_STEPS = (0, 4, 8, 12)
_UNIFORMITY_BIN = 0.05

# Metric display order follows the per-metric report layout.
METRIC_TRACK_ORDER = ("vocal", "guitar", "piano", "bass")


@dataclass(frozen=True)
class MetricDistribution:
    """A named histogram over a metric's discrete value space."""

    metric_name: str
    bins: dict
    support_size: int

    @classmethod
    def from_values(cls, metric_name: str, values: Iterable) -> "MetricDistribution":
        counts = Counter(values)
        total = sum(counts.values())
        if total == 0:
            raise ValueError(f"no observations for metric {metric_name!r}")
        bins = {value: count / total for value, count in counts.items()}
        return cls(metric_name=metric_name, bins=bins, support_size=len(bins))


def beat_chords(song: GridSong) -> list[str]:
    """One chord symbol per beat (4 beats per bar), carrying the active
    chord across beats and bars; N before any chord appears."""
    out = []
    current = NO_CHORD
    for bar in song.bars:
        for beat_step in _BEAT_STEPS:
            for step, symbol in bar.chords:
                if step <= beat_step:
                    current = symbol
                else:
                    break
            out.append(current)
    return out


def _chord_transitions(chords: list[str]) -> Iterator[tuple[str, str]]:
    return ((a, b) for a, b in zip(chords, chords[1:]) if a != b)


def _section_bigrams(song: GridSong) -> Iterator[tuple[str, str]]:
    """Consecutive pairs of section runs (a run is counted once)."""
    runs = [label for label, _ in itertools.groupby(bar.section for bar in song.bars)]
    return zip(runs, runs[1:])


def _instrument_labels(bar: GridBar) -> tuple[str, ...]:
    return tuple(
        label for label in TRACKS if (label == "drums" and bar.drums) or bar.tracks.get(label)
    )


def _unique_drums(song: GridSong) -> Iterator[tuple[int, ...]]:
    return (tuple(sorted({key for _, key in bar.drums})) for bar in song.bars if bar.drums)


def _drum_count(bar: GridBar) -> int:
    return len(bar.drums)


def _largest_bar_count(song: GridSong, count: Callable[[GridBar], int]) -> Iterator[int]:
    """The largest per-bar count, if any bar counts something."""
    counts = [count(bar) for bar in song.bars]
    if any(counts):
        yield max(counts)


def _binned_uniformity(song: GridSong, count: Callable[[GridBar], int]) -> Iterator[float]:
    """Relative entropy of the per-bar counts against an even spread,
    floored to a multiple of the uniformity bin; nothing if all are zero."""
    counts = [count(bar) for bar in song.bars]
    total = sum(counts)
    if total == 0:
        return
    entropy = 0.0
    for c in counts:
        if c:
            p = c / total
            entropy += p * math.log(p * len(counts))
    yield round(math.floor(entropy / _UNIFORMITY_BIN) * _UNIFORMITY_BIN, 2)


class _Metric(NamedTuple):
    """One row of the metric table."""

    cls: str  # the report class whose mean the metric joins
    name: str
    display: str
    # The values one song contributes, from the song itself or, for the
    # Chord class, from the song's beat_chords.
    values: Callable[[GridSong], Iterable] | Callable[[list[str]], Iterable]


def _track_metrics(track: str) -> list[_Metric]:
    """The seven note metrics of one melodic track."""

    def notes(song):
        return [note for bar in song.bars for note in bar.tracks.get(track, ())]

    def bar_pitches(song):
        """The pitches of each bar in which the track plays."""
        return [[n.pitch for n in bar.tracks[track]] for bar in song.bars if bar.tracks.get(track)]

    def n_notes(bar):
        return len(bar.tracks.get(track, ()))

    template = (
        ("note_pitch", "Note Pitch", lambda song: (n.pitch for n in notes(song))),
        ("note_duration", "Note Duration", lambda song: (n.duration for n in notes(song))),
        ("pitch_class", "Pitch Class", lambda song: (n.pitch % 12 for n in notes(song))),
        ("min_pitch_per_bar", "Min Pitch Per Bar", lambda song: map(min, bar_pitches(song))),
        ("max_pitch_per_bar", "Max Pitch Per Bar", lambda song: map(max, bar_pitches(song))),
        ("max_notes_per_bar", "Max #Notes", lambda song: _largest_bar_count(song, n_notes)),
        ("notes_uniformity", "#Notes Uniformity", lambda song: _binned_uniformity(song, n_notes)),
    )
    cls = f"{track.capitalize()} Note"
    return [
        _Metric(cls, f"{track}_{suffix}", display, values) for suffix, display, values in template
    ]


# The metric list, in report order: each metric's class, name, display
# name, and the values one song (or its beat chords) contributes to its
# distribution.
_METRICS: tuple[_Metric, ...] = (
    _Metric("Chord", "chord_label", "Chord Label", lambda chords: chords),
    _Metric("Chord", "chord_root", "Chord Root", lambda chords: map(chord_root, chords)),
    _Metric("Chord", "chord_transition", "Chord Transition", _chord_transitions),
    _Metric(
        "Structure", "section_label", "Section Label", lambda song: (b.section for b in song.bars)
    ),
    _Metric("Structure", "section_label_bigram", "Section Label Bigram", _section_bigrams),
    _Metric(
        "Structure",
        "instrument_labels_per_bar",
        "Instrument Labels Per Bar",
        lambda song: map(_instrument_labels, song.bars),
    ),
    *(metric for track in METRIC_TRACK_ORDER for metric in _track_metrics(track)),
    _Metric(
        "Drum Note",
        "drum_pitch",
        "Drum Pitch",
        lambda song: (key for bar in song.bars for _, key in bar.drums),
    ),
    _Metric(
        "Drum Note",
        "max_drums_per_bar",
        "Max #Drum",
        lambda song: _largest_bar_count(song, _drum_count),
    ),
    _Metric(
        "Drum Note",
        "drum_uniformity",
        "#Drum Uniformity",
        lambda song: _binned_uniformity(song, _drum_count),
    ),
    _Metric("Drum Note", "unique_drums_per_bar", "Unique Drums Per Bar", _unique_drums),
)
_BY_NAME = {metric.name: metric for metric in _METRICS}

METRIC_CLASSES: dict[str, tuple[str, ...]] = {
    cls: tuple(metric.name for metric in group)
    for cls, group in itertools.groupby(_METRICS, key=lambda metric: metric.cls)
}
ALL_METRICS: tuple[str, ...] = tuple(metric.name for metric in _METRICS)
METRIC_DISPLAY: dict[str, str] = {metric.name: metric.display for metric in _METRICS}


def extract_metric(corpus: list[GridSong], metric_name: str) -> MetricDistribution:
    """Distribution of one metric over a corpus.

    Raises ValueError for an unknown metric name or when the corpus has
    no observations for it (e.g. a track that never plays).
    """
    if not corpus:
        raise ValueError("corpus is empty")
    metric = _BY_NAME.get(metric_name)
    if metric is None:
        raise ValueError(f"unknown metric {metric_name!r}")
    chords = [beat_chords(song) for song in corpus] if metric.cls == "Chord" else []
    return _distribution(metric, corpus, chords)


def _distribution(
    metric: _Metric, corpus: list[GridSong], chords: list[list[str]]
) -> MetricDistribution:
    """``metric`` over a corpus whose songs' beat chords are ``chords``."""
    inputs = chords if metric.cls == "Chord" else corpus
    values = (value for item in inputs for value in metric.values(item))
    return MetricDistribution.from_values(metric.name, values)


def kld(p: MetricDistribution, q: MetricDistribution) -> float:
    """D(p || q) over the union support.

    Values missing from q are floored at ``EPSILON`` (1e-6) and q
    renormalized, so the divergence is always finite; identical
    distributions score exactly zero because no flooring is needed.
    """
    if p.metric_name != q.metric_name:
        raise ValueError(f"metric mismatch: {p.metric_name!r} vs {q.metric_name!r}")
    union = set(p.bins) | set(q.bins)
    missing = len(union) - len(q.bins)
    q_norm = 1.0 + EPSILON * missing
    total = 0.0
    for value, p_v in p.bins.items():
        if p_v <= 0:
            continue
        q_v = q.bins.get(value, EPSILON) / q_norm
        total += p_v * math.log(p_v / q_v)
    return total


@dataclass(frozen=True)
class KldReport:
    """Per-metric divergences plus the seven class means."""

    per_metric: dict[str, float | None]
    class_means: dict[str, float | None]

    def to_json(self) -> dict:
        return {"classes": self.class_means, "metrics": self.per_metric}

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        writer.writerow(["class", "metric", "kld"])
        for metric in _METRICS:
            value = self.per_metric.get(metric.name)
            writer.writerow([metric.cls, metric.display, "" if value is None else f"{value:.6f}"])
        return out.getvalue()

    def to_text(self) -> str:
        lines = ["Metric Class         KLD", "-" * 28]
        for cls in METRIC_CLASSES:
            value = self.class_means.get(cls)
            shown = "n/a" if value is None else f"{value:.3f}"
            lines.append(f"{cls:<20} {shown}")
        lines.append("")
        lines.append("Per-metric KLD")
        lines.append("-" * 48)
        for metric in _METRICS:
            value = self.per_metric.get(metric.name)
            shown = "n/a" if value is None else f"{value:.3f}"
            lines.append(f"{metric.cls:<12} {metric.display:<28} {shown}")
        return "\n".join(lines) + "\n"


def class_report(gen: list[GridSong], ref: list[GridSong]) -> KldReport:
    """All per-metric KLDs (generated vs reference) and their class means.

    Metrics with no observations on either side report None and drop
    out of their class mean.
    """
    if not gen or not ref:
        raise ValueError("both corpora must be non-empty")
    gen_chords = [beat_chords(song) for song in gen]
    ref_chords = [beat_chords(song) for song in ref]
    per_metric: dict[str, float | None] = {}
    for metric in _METRICS:
        try:
            p = _distribution(metric, gen, gen_chords)
            q = _distribution(metric, ref, ref_chords)
        except ValueError:
            per_metric[metric.name] = None
            continue
        per_metric[metric.name] = kld(p, q)
    class_means: dict[str, float | None] = {}
    for cls, names in METRIC_CLASSES.items():
        values = [per_metric[n] for n in names if per_metric[n] is not None]
        class_means[cls] = sum(values) / len(values) if values else None
    return KldReport(per_metric=per_metric, class_means=class_means)


def save_report(report: KldReport, dir_path) -> list[str]:
    """Write ``kld_report`` as JSON, text and CSV; returns the file names."""
    directory = pathlib.Path(dir_path)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for suffix, text in (
        ("json", json.dumps(report.to_json(), indent=2, sort_keys=True)),
        ("txt", report.to_text()),
        ("csv", report.to_csv()),
    ):
        path = directory / f"kld_report.{suffix}"
        path.write_text(text)
        names.append(path.name)
    return names
