"""Synthetic songs, corpora, controls, plug-in models and damaged byte
streams shared across tests.

The chord-following builder writes accompaniments whose every pitch is
determined by the bar's chord through short token contexts, so a
low-order n-gram can learn the association; the structure builder makes
pieces with exactly repeating sections.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from sympac.fsm import ControlSpec
from sympac.ingest import (
    AnnotatedSong,
    BeatEvent,
    ChordSpan,
    DrumHit,
    GridBar,
    GridNote,
    GridSong,
    NoteEvent,
    SectionSpan,
)
from sympac.vocab import (
    BPM_LABELS,
    CHORDS,
    GENRES,
    MELODIC_TRACKS,
    SECTIONS,
    TRACKS,
    chord_quality,
    chord_root_index,
)

TRIAD_OFFSETS = {"maj": (0, 4, 7), "min": (0, 3, 7)}

# Eight chords whose roots are unique and whose third pitches (an octave
# up) are pairwise distinct, so every within-track pitch transition in
# the figuration below determines its successor: an order-5 model can
# realize the corpus chords exactly.
PROGRESSION_POOL = (
    ("F:maj", "D:min", "C:maj", "G:maj"),
    ("F:maj", "C:maj", "G:maj", "A:min"),
    ("C:maj", "A:min", "E:min", "F:maj"),
    ("C:maj", "A:min", "F:maj", "G:maj"),
    ("A:min", "G:maj", "F:maj", "G:maj"),
    ("G:maj", "E:min", "C:maj", "D:min"),
    ("A#:maj", "F:maj", "C:maj", "G:maj"),
    ("B:maj", "E:min", "A:min", "D:min"),
)

_SECTION_PATTERNS = (
    ("verse",) * 4 + ("chorus",) * 4,
    ("intro",) * 2 + ("verse",) * 4 + ("chorus",) * 4 + ("outro",) * 2,
    ("verse",) * 4 + ("chorus",) * 4 + ("verse",) * 4 + ("chorus",) * 4,
)


def triad(symbol: str) -> tuple[int, int, int]:
    root = chord_root_index(symbol)
    return tuple(root + off for off in TRIAD_OFFSETS[chord_quality(symbol)])


def chord_following_bar(symbol: str, section: str, bpm_level: int) -> GridBar:
    """One bar whose notes are exactly the chord's tones in a fixed
    figuration; pitches chain deterministically through 4-token contexts.

    The piano voicing spreads root/third/fifth over three octaves so the
    pitch bands never overlap and each value names its chord role; each
    track uses its own note duration, which tags the track inside short
    contexts."""
    a, b, c = triad(symbol)
    vocal = [GridNote(0, 8, 72 + a), GridNote(8, 8, 72 + b)]
    piano = []
    for step in (0, 4, 8, 12):
        piano += [
            GridNote(step, 4, 60 + a),
            GridNote(step, 4, 72 + b),
            GridNote(step, 4, 84 + c),
        ]
    guitar = [GridNote(s, 2, 48 + (a if i % 2 == 0 else c)) for i, s in enumerate(range(0, 16, 2))]
    bass = [GridNote(0, 16, 36 + a)]
    drums = [(0, 36), (4, 42), (8, 38), (12, 42)]
    return GridBar(
        section=section,
        bpm_level=bpm_level,
        chords=[(0, symbol)],
        tracks={"vocal": vocal, "piano": piano, "guitar": guitar, "bass": bass},
        drums=drums,
    )


def chord_following_song(
    rng: np.random.Generator,
    progression: tuple[str, ...] | None = None,
    n_bars: int | None = None,
) -> GridSong:
    if progression is None:
        progression = PROGRESSION_POOL[rng.integers(len(PROGRESSION_POOL))]
    sections = _SECTION_PATTERNS[rng.integers(len(_SECTION_PATTERNS))]
    if n_bars is None:
        n_bars = len(sections)
    genre = ("Pop", "Rock", "Electronic", "Jazz")[rng.integers(4)]
    bpm_level = int(rng.integers(3, 6))
    bars = [
        chord_following_bar(
            progression[i % len(progression)], sections[i % len(sections)], bpm_level
        )
        for i in range(n_bars)
    ]
    return GridSong(source_id=f"synth{rng.integers(1 << 30)}", genre=genre, bars=bars)


def chord_corpus(rng: np.random.Generator, n_songs: int) -> list[GridSong]:
    return [chord_following_song(rng) for _ in range(n_songs)]


def random_grid_song(rng: np.random.Generator, max_bars: int = 6) -> GridSong:
    """A random canonical GridSong exercising the full value ranges."""
    bars = []
    for _ in range(int(rng.integers(1, max_bars + 1))):
        n_chords = int(rng.integers(0, 5))
        steps = sorted(rng.choice(16, size=n_chords, replace=False).tolist())
        chords = [(int(s), CHORDS[int(rng.integers(len(CHORDS)))]) for s in steps]
        tracks = {}
        for label in MELODIC_TRACKS:
            if rng.random() < 0.6:
                n_notes = int(rng.integers(1, 9))
                pairs = set()
                while len(pairs) < n_notes:
                    pairs.add((int(rng.integers(16)), int(rng.integers(128))))
                tracks[label] = [
                    GridNote(step, int(rng.integers(1, 33)), pitch)
                    for step, pitch in sorted(pairs)
                ]
        drums = sorted(
            {
                (int(rng.integers(16)), int(rng.integers(35, 82)))
                for _ in range(int(rng.integers(0, 7)))
            }
        )
        bars.append(
            GridBar(
                section=SECTIONS[int(rng.integers(len(SECTIONS)))],
                bpm_level=int(rng.integers(8)),
                chords=chords,
                tracks=tracks,
                drums=drums,
            )
        )
    return GridSong(
        source_id="", genre=GENRES[int(rng.integers(len(GENRES)))], bars=bars
    )


def random_annotated_song(
    rng: np.random.Generator, meter: int | None = None
) -> AnnotatedSong:
    """A random valid AnnotatedSong with jittered beats and sane spans."""
    meter = meter or int(rng.choice([3, 4]))
    n_bars = int(rng.integers(1, 6))
    start_count = int(rng.integers(1, meter + 1))
    base = 60.0 / float(rng.uniform(70, 160))
    times = []
    t = 0.0
    counts = []
    count = start_count
    total_beats = (meter - start_count + 1) + n_bars * meter
    for _ in range(total_beats):
        times.append(t)
        counts.append(count)
        t += base * float(rng.uniform(0.98, 1.02))
        count = 1 if count == meter else count + 1
    beats = [BeatEvent(tt, cc) for tt, cc in zip(times, counts)]
    end = times[-1]

    def spans(labels):
        out = []
        cursor = 0.0
        while cursor < end and rng.random() < 0.8:
            length = float(rng.uniform(0.5, end / 2 + 0.5))
            label = labels[int(rng.integers(len(labels)))]
            out.append((cursor, min(cursor + length, end + 1.0), label))
            cursor += length + float(rng.uniform(0.0, 1.0))
        return out

    chords = [
        ChordSpan(s, e, sym)
        for s, e, sym in spans([c for c in CHORDS if c.endswith(("maj", "min"))][:24])
    ]
    sections = [SectionSpan(s, e, lb) for s, e, lb in spans(list(SECTIONS))]

    def notes(n):
        out = []
        for _ in range(n):
            onset = float(rng.uniform(0, end))
            out.append(
                NoteEvent(onset, onset + float(rng.uniform(0.05, 3.0)), int(rng.integers(128)))
            )
        return sorted(out, key=lambda x: (x.onset, x.pitch))

    return AnnotatedSong(
        source_id=f"fuzz{rng.integers(1 << 30)}",
        genre=GENRES[int(rng.integers(len(GENRES)))],
        beats=beats,
        chords=chords,
        sections=sections,
        notes={
            "vocal": notes(int(rng.integers(0, 8))),
            "piano": notes(int(rng.integers(0, 8))),
            "guitar": notes(int(rng.integers(0, 5))),
            "bass": notes(int(rng.integers(0, 5))),
        },
        drum_hits=sorted(
            (
                DrumHit(float(rng.uniform(0, end)), int(rng.integers(35, 82)))
                for _ in range(int(rng.integers(0, 10)))
            ),
            key=lambda d: (d.onset, d.key),
        ),
    )


def _pattern_bar(section: str, kind: str) -> GridBar:
    """Two audibly distinct bar patterns that are not pitch translates."""
    if kind == "A":
        piano = [GridNote(0, 16, p) for p in (60, 62, 64, 65)]
        vocal = [GridNote(0, 4, 72), GridNote(4, 4, 76), GridNote(8, 4, 79), GridNote(12, 4, 76)]
        tracks = {"vocal": vocal, "piano": piano}
    else:
        piano = [GridNote(s, 2, 50) for s in (0, 4, 8, 12)]
        vocal = [GridNote(s, 1, 90) for s in (2, 6, 10, 14)]
        tracks = {"vocal": vocal, "piano": piano}
    return GridBar(section=section, bpm_level=4, chords=[(0, "C:maj")], tracks=tracks, drums=[])


def aab_song(section_bars: int = 8) -> GridSong:
    """Two identical A sections then a contrasting B section."""
    bars = (
        [_pattern_bar("verse", "A") for _ in range(section_bars)]
        + [_pattern_bar("verse", "A") for _ in range(section_bars)]
        + [_pattern_bar("chorus", "B") for _ in range(section_bars)]
    )
    return GridSong(source_id="aab", genre="Pop", bars=bars)


def damaged(blob: bytes, data) -> bytes:
    """``blob`` cut short or with one to four bytes overwritten, drawn
    from a hypothesis ``st.data()`` object."""
    if data.draw(st.booleans()):
        return blob[: data.draw(st.integers(0, len(blob) - 1))]
    out = bytearray(blob)
    for _ in range(data.draw(st.integers(1, 4))):
        out[data.draw(st.integers(0, len(blob) - 1))] = data.draw(st.integers(0, 255))
    return bytes(out)


@st.composite
def control_specs(draw):
    """Random valid ``ControlSpec``s over every control kind."""
    sections = draw(st.none() | st.lists(st.sampled_from(SECTIONS), min_size=1, max_size=12))
    if sections is not None:
        n_bars = draw(st.sampled_from([None, len(sections)]))
    else:
        n_bars = draw(st.none() | st.integers(1, 12))
    total = n_bars or (len(sections) if sections else 12)
    chords = schedule = None
    kind = draw(st.sampled_from(["none", "loop", "schedule"]))
    if kind == "loop":
        chords = tuple(draw(st.lists(st.sampled_from(CHORDS), min_size=1, max_size=6)))
    elif kind == "schedule":
        slots = draw(
            st.dictionaries(
                st.tuples(st.integers(0, total - 1), st.integers(0, 15)),
                st.sampled_from(CHORDS),
                min_size=1,
                max_size=8,
            )
        )
        schedule = tuple((bar, step, symbol) for (bar, step), symbol in slots.items())
    allowed = draw(st.none() | st.frozensets(st.sampled_from(TRACKS)))
    forced_pool = sorted(allowed, key=TRACKS.index) if allowed is not None else TRACKS
    forced = draw(st.none() | st.frozensets(st.sampled_from(forced_pool))) if forced_pool else None
    return ControlSpec(
        genre=draw(st.none() | st.sampled_from(GENRES)),
        bpm_level=draw(st.none() | st.integers(0, len(BPM_LABELS) - 1)),
        sections=tuple(sections) if sections is not None else None,
        chords=chords,
        chord_schedule=schedule,
        allowed_tracks=allowed,
        forced_tracks=forced,
        n_bars=n_bars,
    )


class FreshScores:
    """A plug-in model that returns a fresh, writeable copy of another
    model's scores at every call."""

    def __init__(self, model) -> None:
        self.model = model
        self.context_limit = model.context_limit

    def score(self, context):
        return np.array(self.model.score(context))


class OneBuffer:
    """A plug-in model that writes every call's scores into one writeable
    array and returns that same array."""

    def __init__(self, model) -> None:
        self.model = model
        self.context_limit = model.context_limit
        self.buffer = np.zeros(len(model.score(())))

    def score(self, context):
        self.buffer[:] = self.model.score(context)
        return self.buffer
