"""Time-domain song model, annotation file parsing, and grid quantization.

Songs arrive either as MIR-style annotation documents (JSON) or as MIDI
files (see :mod:`sympac.smf`) and become an :class:`AnnotatedSong` in
absolute seconds.  :func:`quantize_to_grid` then snaps everything to
bars of 16 uniform steps, producing the :class:`GridSong` that the
encoder consumes.
"""

from __future__ import annotations

import bisect
import json
import math
import statistics
from dataclasses import dataclass, field

from .errors import ParseError, ValidationError
from .vocab import (
    BPM_EDGES,
    CHORDS,
    DRUM_KEY_MAX,
    DRUM_KEY_MIN,
    GENRES,
    MAX_DURATION,
    MELODIC_TRACKS,
    N_STEPS,
    NO_CHORD,
    SECTIONS,
    as_real,
    as_whole,
)

# Annotation sources may spell this section label out in full.
_SECTION_ALIASES = {"instrumental": "inst"}


@dataclass(frozen=True, slots=True)
class BeatEvent:
    time: float
    count: int


@dataclass(frozen=True, slots=True)
class ChordSpan:
    start: float
    end: float
    symbol: str


@dataclass(frozen=True, slots=True)
class SectionSpan:
    start: float
    end: float
    label: str


@dataclass(frozen=True, slots=True)
class NoteEvent:
    onset: float
    offset: float
    pitch: int


@dataclass(frozen=True, slots=True)
class DrumHit:
    onset: float
    key: int


@dataclass(slots=True)
class AnnotatedSong:
    """One song in absolute time, as produced by MIR annotation or MIDI import.

    ``notes`` maps a melodic track label (one of ``MELODIC_TRACKS``) to
    that track's notes, as ``GridBar.tracks`` does per bar; a missing
    label means no notes.  Parsing and MIDI import give every label.
    """

    source_id: str
    genre: str
    beats: list[BeatEvent]
    chords: list[ChordSpan] = field(default_factory=list)
    sections: list[SectionSpan] = field(default_factory=list)
    notes: dict[str, list[NoteEvent]] = field(default_factory=dict)
    drum_hits: list[DrumHit] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class GridNote:
    step: int
    duration: int
    pitch: int


@dataclass(slots=True)
class GridBar:
    section: str
    bpm_level: int
    chords: list[tuple[int, str]] = field(default_factory=list)
    tracks: dict[str, list[GridNote]] = field(default_factory=dict)
    drums: list[tuple[int, int]] = field(default_factory=list)


@dataclass(slots=True)
class GridSong:
    """A song quantized to bars of 16 steps.

    ``source_id`` is provenance only and deliberately excluded from
    equality: two songs with identical musical content compare equal.
    """

    source_id: str = field(compare=False)
    genre: str
    bars: list[GridBar]


def bpm_level_of(bpm: float) -> int:
    """Tempo bucket index 0..7; buckets are left-closed as printed."""
    if bpm <= 0:
        raise ValueError(f"bpm must be positive: {bpm}")
    return bisect.bisect_right(BPM_EDGES, bpm)


def _check_beats(beats: list[BeatEvent]) -> int:
    """Check the beat cycle and return the meter: the count each downbeat
    resets from.  Songs too short to complete a bar default to 4/4."""
    for i, b in enumerate(beats):
        if b.count < 1:
            raise ValidationError(f"beats[{i}]: count must be >= 1, got {b.count}")
        if b.count > 4:
            raise ValidationError(
                f"beats[{i}]: count {b.count} implies an unsupported time signature"
            )
        if i and b.time <= beats[i - 1].time:
            raise ValidationError(f"beats[{i}]: times must be strictly increasing")
    bar_lengths = set()
    for i in range(1, len(beats)):
        prev, cur = beats[i - 1].count, beats[i].count
        if cur == 1:
            bar_lengths.add(prev)
        elif cur != prev + 1:
            raise ValidationError(
                f"beats[{i}]: count {cur} after {prev} breaks the beat cycle"
            )
    if len(bar_lengths) > 1:
        raise ValidationError(
            f"beat counts mix bar lengths {sorted(bar_lengths)}; the cycle must be 1..3 or 1..4"
        )
    meter = bar_lengths.pop() if bar_lengths else 4
    if meter not in (3, 4):
        raise ValidationError(
            f"beat counts imply {meter} beats per bar; only 3/4 and 4/4 are supported"
        )
    return meter


def _check_spans(spans, what: str) -> None:
    for i, s in enumerate(spans):
        if s.end <= s.start:
            raise ValidationError(f"{what}[{i}]: end <= start")
        if i and s.start < spans[i - 1].end:
            raise ValidationError(f"{what}[{i}]: overlaps {what}[{i - 1}]")


def validate_song(song: AnnotatedSong) -> int:
    """Raise ValidationError naming the first element that breaks an
    invariant; return the song's meter (beats per bar)."""
    if song.genre not in GENRES:
        raise ValidationError(f"genre: unknown label {song.genre!r}")
    meter = _check_beats(song.beats)
    _check_spans(song.chords, "chords")
    for i, c in enumerate(song.chords):
        if c.symbol not in CHORDS:
            raise ValidationError(f"chords[{i}]: unknown symbol {c.symbol!r}")
    _check_spans(song.sections, "sections")
    for i, s in enumerate(song.sections):
        if s.label not in SECTIONS:
            raise ValidationError(f"sections[{i}]: unknown label {s.label!r}")
    for label, notes in song.notes.items():
        if label not in MELODIC_TRACKS:
            raise ValidationError(f"notes: unknown track {label!r}")
        for i, n in enumerate(notes):
            if n.offset <= n.onset:
                raise ValidationError(f"{label}[{i}]: offset <= onset")
            if not 0 <= n.pitch <= 127:
                raise ValidationError(f"{label}[{i}]: pitch {n.pitch} outside 0..127")
    for i, d in enumerate(song.drum_hits):
        if not DRUM_KEY_MIN <= d.key <= DRUM_KEY_MAX:
            raise ValidationError(
                f"drums[{i}]: key {d.key} outside {DRUM_KEY_MIN}..{DRUM_KEY_MAX}"
            )
    return meter


def _field(doc: dict, key: str, default):
    value = doc.get(key, default)
    if value is None:
        value = default
    return value


def _parse_rows(doc: dict, key: str, types: tuple) -> list[tuple]:
    """Rows of array ``key``, each value passed through its column's rule."""
    raw = _field(doc, key, [])
    if not isinstance(raw, list):
        raise ParseError(f"{key}: expected an array")
    out = []
    times = types.count(as_real)  # the time columns lead every row
    for i, row in enumerate(raw):
        if not isinstance(row, (list, tuple)) or len(row) != len(types):
            raise ParseError(f"{key}[{i}]: expected an array of {len(types)} values")
        try:
            values = tuple(convert(value) for convert, value in zip(types, row))
        except ValueError as exc:
            raise ParseError(f"{key}[{i}]: {exc}") from None
        if not all(map(math.isfinite, values[:times])):
            raise ParseError(f"{key}[{i}]: time values must be finite, got {list(values)}")
        out.append(values)
    return out


def parse_annotations(data: bytes | str) -> AnnotatedSong:
    """Parse one annotation JSON document into a validated AnnotatedSong.

    Unknown top-level fields are ignored.  Bytes that are not UTF-8 and
    malformed JSON raise ParseError (the latter with line context), and
    so does a row value of the wrong kind: a time must pass
    ``vocab.as_real`` and be finite, and a beat count, pitch or drum key
    must pass ``vocab.as_whole``.  Invariant violations raise
    ValidationError naming the first offending element.
    """
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        doc = json.loads(data)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top level: expected a JSON object")

    source_id = _field(doc, "source_id", "")
    genre = doc.get("genre")
    if not isinstance(genre, str):
        raise ParseError("genre: missing or not a string")

    beats = [BeatEvent(*row) for row in _parse_rows(doc, "beats", (as_real, as_whole))]
    chords = [ChordSpan(*row) for row in _parse_rows(doc, "chords", (as_real, as_real, str))]
    sections = [
        SectionSpan(s, e, _SECTION_ALIASES.get(lb, lb))
        for s, e, lb in _parse_rows(doc, "sections", (as_real, as_real, str))
    ]

    def notes_of(key: str) -> list[NoteEvent]:
        return [NoteEvent(*row) for row in _parse_rows(doc, key, (as_real, as_real, as_whole))]

    song = AnnotatedSong(
        source_id=str(source_id),
        genre=genre,
        beats=beats,
        chords=chords,
        sections=sections,
        notes={label: notes_of(label) for label in MELODIC_TRACKS},
        drum_hits=[DrumHit(*row) for row in _parse_rows(doc, "drums", (as_real, as_whole))],
    )
    validate_song(song)
    return song


def serialize_annotations(song: AnnotatedSong) -> str:
    """Inverse of parse_annotations; emits the documented JSON schema."""
    doc = {
        "source_id": song.source_id,
        "genre": song.genre,
        "beats": [[b.time, b.count] for b in song.beats],
        "chords": [[c.start, c.end, c.symbol] for c in song.chords],
        "sections": [[s.start, s.end, s.label] for s in song.sections],
        "drums": [[d.onset, d.key] for d in song.drum_hits],
    }
    for label in MELODIC_TRACKS:
        doc[label] = [[n.onset, n.offset, n.pitch] for n in song.notes.get(label, [])]
    return json.dumps(doc, sort_keys=True)


def _nearest_step(time: float, bar_start: float, step_dur: float) -> int:
    # Ties round toward the earlier step.
    x = (time - bar_start) / step_dur
    step = math.ceil(x - 0.5)
    return min(max(step, 0), N_STEPS - 1)


def _round_duration(seconds: float, step_dur: float) -> int:
    # Clamp before rounding: a note longer than any float can count in
    # steps would overflow math.ceil.
    length = math.ceil(min(seconds / step_dur, MAX_DURATION) - 0.5)
    return min(max(length, 1), MAX_DURATION)


def _section_at(sections: list[SectionSpan], time: float) -> str:
    for span in sections:
        if span.start <= time < span.end:
            return span.label
    return "inst"


def _chord_at(chords: list[ChordSpan], time: float) -> str:
    for span in chords:
        if span.start <= time < span.end:
            return span.symbol
    return NO_CHORD


def quantize_to_grid(song: AnnotatedSong) -> GridSong:
    """Quantize to bars of 16 uniform steps delimited by consecutive downbeats.

    The final partial bar, when it has content, is padded to full length
    using the last observed beat interval.  Events before the first
    downbeat fall outside every bar and are dropped.
    """
    meter = validate_song(song)
    beats = song.beats
    if len(beats) < 2:
        raise ValidationError("cannot infer tempo from fewer than 2 beats")
    downbeat_times = [b.time for b in beats if b.count == 1]
    if not downbeat_times:
        raise ValidationError("song has no downbeat")

    beat_times = [b.time for b in beats]
    last_interval = beat_times[-1] - beat_times[-2]

    # Bar spans: complete bars between consecutive downbeats, plus a padded
    # final bar when anything (beats or events) extends past the last one.
    spans = [
        (downbeat_times[i], downbeat_times[i + 1])
        for i in range(len(downbeat_times) - 1)
    ]
    last_down = downbeat_times[-1]
    onsets = (
        [n.onset for notes in song.notes.values() for n in notes]
        + [d.onset for d in song.drum_hits]
    )
    has_tail = beat_times[-1] > last_down or any(t >= last_down for t in onsets)
    if has_tail or not spans:
        spans.append((last_down, last_down + meter * last_interval))

    bars = []
    starts = [s for s, _ in spans]
    step_durs = [(end - start) / N_STEPS for start, end in spans]
    for (start, end), step_dur in zip(spans, step_durs):
        if not 0.0 < step_dur < math.inf:
            raise ValidationError(
                f"bar at {start} s: length {end - start} s does not split into {N_STEPS} steps"
            )
        mid = start + (end - start) / 2.0

        lo = bisect.bisect_left(beat_times, start)
        hi = bisect.bisect_left(beat_times, end)
        intervals = [
            beat_times[k + 1] - beat_times[k]
            for k in range(lo, hi)
            if k + 1 < len(beat_times)
        ]
        median_interval = statistics.median(intervals) if intervals else last_interval
        bpm = 60.0 / median_interval

        chords: list[tuple[int, str]] = []
        for b in beats[lo:hi]:
            symbol = _chord_at(song.chords, b.time)
            if chords and chords[-1][1] == symbol:
                continue
            chords.append((_nearest_step(b.time, start, step_dur), symbol))

        bars.append(
            GridBar(
                section=_section_at(song.sections, mid),
                bpm_level=bpm_level_of(bpm),
                chords=chords,
                tracks={},
                drums=[],
            )
        )

    def bar_index_of(time: float) -> int | None:
        i = bisect.bisect_right(starts, time) - 1
        if i < 0 or time >= spans[i][1]:
            return None
        return i

    for label in MELODIC_TRACKS:
        per_bar: dict[int, dict[tuple[int, int], int]] = {}
        for note in song.notes.get(label, ()):
            i = bar_index_of(note.onset)
            if i is None:
                continue
            step = _nearest_step(note.onset, starts[i], step_durs[i])
            dur = _round_duration(note.offset - note.onset, step_durs[i])
            key = (step, note.pitch)
            slot = per_bar.setdefault(i, {})
            # Colliding (step, pitch) notes merge; the longest survives.
            if dur > slot.get(key, 0):
                slot[key] = dur
        for i, slot in per_bar.items():
            bars[i].tracks[label] = [
                GridNote(step, dur, pitch)
                for (step, pitch), dur in sorted(slot.items())
            ]

    drum_sets: dict[int, set[tuple[int, int]]] = {}
    for hit in song.drum_hits:
        i = bar_index_of(hit.onset)
        if i is not None:
            drum_sets.setdefault(i, set()).add(
                (_nearest_step(hit.onset, starts[i], step_durs[i]), hit.key)
            )
    for i, hits in drum_sets.items():
        bars[i].drums = sorted(hits)

    return GridSong(source_id=song.source_id, genre=song.genre, bars=bars)


def render_annotations(song: GridSong, bpm: float) -> AnnotatedSong:
    """Render a GridSong back to absolute time at a constant tempo, in 4/4.

    The output is a valid AnnotatedSong for any song of vocabulary chords
    (``vocab.CHORDS``, N included); its quantization reproduces the
    musical content of ``song`` when ``bpm`` sits inside a tempo bucket.
    """
    if bpm <= 0:
        raise ValueError("bpm must be positive")
    step_dur = 60.0 / bpm / 4.0
    n_bars = len(song.bars)

    def t(step_units: int) -> float:
        # One multiplication per time keeps span edges and beats bit-equal.
        return step_units * step_dur

    beats = [BeatEvent(t(4 * k), k % 4 + 1) for k in range(4 * n_bars + 1)]

    chords: list[ChordSpan] = []
    for i, bar in enumerate(song.bars):
        base = 16 * i
        for j, (step, symbol) in enumerate(bar.chords):
            end_step = bar.chords[j + 1][0] if j + 1 < len(bar.chords) else 16
            if symbol != NO_CHORD:
                chords.append(ChordSpan(t(base + step), t(base + end_step), symbol))

    sections: list[SectionSpan] = []
    for i, bar in enumerate(song.bars):
        start, end = t(16 * i), t(16 * (i + 1))
        if sections and sections[-1].label == bar.section and math.isclose(
            sections[-1].end, start
        ):
            sections[-1] = SectionSpan(sections[-1].start, end, bar.section)
        else:
            sections.append(SectionSpan(start, end, bar.section))

    notes: dict[str, list[NoteEvent]] = {tr: [] for tr in MELODIC_TRACKS}
    drum_hits: list[DrumHit] = []
    for i, bar in enumerate(song.bars):
        base = 16 * i
        for label, bar_notes in bar.tracks.items():
            for note in bar_notes:
                notes[label].append(
                    NoteEvent(
                        t(base + note.step),
                        t(base + note.step + note.duration),
                        note.pitch,
                    )
                )
        for step, key in bar.drums:
            drum_hits.append(DrumHit(t(base + step), key))
    for track in notes.values():
        track.sort(key=lambda n: (n.onset, n.pitch))

    return AnnotatedSong(
        source_id=song.source_id,
        genre=song.genre,
        beats=beats,
        chords=chords,
        sections=sections,
        notes=notes,
        drum_hits=sorted(drum_hits, key=lambda d: (d.onset, d.key)),
    )
