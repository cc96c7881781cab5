"""Seeded input corpus for the benchmark.

Everything here is derived from the seed alone and imports nothing from
``sympac`` or the test suite, so neither a library change nor a test
edit can move the benchmark's inputs.  Randomness comes only from
``random.Random(seed).random()``, whose sequence is fixed across Python
versions.
"""

from __future__ import annotations

import json
import random
import struct
from pathlib import Path

ROOTS = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
TRIADS = {"maj": (0, 4, 7), "min": (0, 3, 7)}

# A small fixed pool, as in a real pop corpus: the same progressions
# recur across songs, so order-5 contexts repeat and the n-gram model
# answers from its deep tables instead of backing off to uniform.  Only
# maj/min chords, because annotation documents accept no other quality.
PROGRESSIONS = (
    ("C:maj", "G:maj", "A:min", "F:maj"),
    ("F:maj", "C:maj", "G:maj", "A:min"),
    ("A:min", "F:maj", "C:maj", "G:maj"),
    ("C:maj", "A:min", "F:maj", "G:maj"),
    ("D:min", "G:maj", "C:maj", "A:min"),
    ("E:min", "C:maj", "G:maj", "D:maj"),
    ("G:maj", "D:maj", "E:min", "C:maj"),
    ("A:min", "D:min", "E:min", "A:min"),
)

# Section layouts recur too; chorus bars add a guitar part, so the
# section token changes what follows it, as the structure control needs.
SECTION_PATTERNS = (
    (("intro", 2), ("verse", 8), ("chorus", 8), ("outro", 2)),
    (("verse", 4), ("chorus", 4), ("verse", 4), ("chorus", 4)),
    (("intro", 4), ("verse", 8), ("chorus", 8), ("bridge", 4), ("outro", 2)),
    (("intro", 2), ("verse", 4), ("chorus", 4), ("verse", 4), ("chorus", 4), ("outro", 2)),
)

# One tempo per song, spread over several tempo buckets.
TEMPOS = (92.0, 104.0, 116.0, 122.0, 128.0, 138.0)
# Half the songs are Pop, the genre the generation controls ask for.
GENRES = ("Pop", "Pop", "Pop", "Rock", "Jazz", "Electronic")

# Vocal rhythms as (step, duration) pairs; the pitch of each note is
# drawn per bar from the chord tones, which gives the model real
# branching points instead of one deterministic continuation.
VOCAL_RHYTHMS = (
    ((0, 4), (4, 4), (8, 8)),
    ((0, 2), (2, 2), (4, 4), (8, 4), (12, 4)),
    ((0, 8), (8, 4), (12, 4)),
)
DRUM_PATTERNS = (
    ((0, 36), (4, 38), (8, 36), (12, 38), (0, 42), (4, 42), (8, 42), (12, 42)),
    ((0, 36), (6, 36), (8, 36), (4, 38), (12, 38), (2, 42), (10, 42)),
)

STEPS_PER_BAR = 16
TPQ = 480
STEP_TICKS = TPQ // 4

# Mix of formats, so ingest runs the JSON, JSONL and SMF parsers.  SMF
# songs carry no chord or section labels, as real MIDI files don't.
N_JSON = 40
N_JSONL = 10
N_MIDI = 10
N_SONGS = N_JSON + N_JSONL + N_MIDI

# Files ingest must reject, each with a SympacError (file name -> bytes).
MALFORMED = {
    "bad_truncated_header.mid": b"MThd\x00\x00\x00\x06\x00",
    "bad_format2.mid": b"MThd\x00\x00\x00\x06\x00\x02\x00\x01\x01\xe0",
    "bad_no_notes.mid": (
        b"MThd\x00\x00\x00\x06\x00\x01\x00\x01\x01\xe0"
        b"MTrk\x00\x00\x00\x04\x00\xff\x2f\x00"
    ),
    "bad_no_genre.json": b'{"beats": [[0.0, 1], [0.5, 2]]}',
    "bad_syntax.json": b'{"genre": "Pop", "beats": [[0.0, 1],',
    "bad_meter.json": (
        b'{"genre": "Pop", "beats": [[0.0, 1], [0.5, 2], [1.0, 3], [1.5, 4], [2.0, 5]]}'
    ),
    "bad_chord.json": (
        b'{"genre": "Pop", "beats": [[0.0, 1], [0.5, 2]], "chords": [[0.0, 1.0, "H:maj"]]}'
    ),
}

# Kills a whole `ingest` run with a bare ValueError today instead of being
# rejected; it runs as its own one-file operation so the rest still count.
CRASH_FILE = ("beats_not_number.json", b'{"genre": "Pop", "beats": [["x", 1]]}')


def _pick(rng: random.Random, pool):
    return pool[int(rng.random() * len(pool))]


def _chord_pitches(symbol: str, base: int) -> list[int]:
    root, quality = symbol.split(":")
    r = ROOTS.index(root)
    return [base + r + off for off in TRIADS[quality]]


def make_song(rng: random.Random, index: int) -> dict:
    """One song as bars of step-level events plus its global labels.

    Progression, section pattern and genre cycle with the song index, so
    every seed gives a corpus of the same make-up and the model's cost
    per token does not swing with the seed; the seed varies the melody,
    drums and tempo.
    """
    progression = PROGRESSIONS[index % len(PROGRESSIONS)]
    pattern = SECTION_PATTERNS[index // len(PROGRESSIONS) % len(SECTION_PATTERNS)]
    sections = [label for label, n in pattern for _ in range(n)]
    drums = _pick(rng, DRUM_PATTERNS)
    bars = []
    for i, section in enumerate(sections):
        chord = progression[i % len(progression)]
        tones = _chord_pitches(chord, 60)
        vocal = [
            (step, dur, _pick(rng, tones) + 12)
            for step, dur in _pick(rng, VOCAL_RHYTHMS)
        ]
        piano_steps = (0, 4, 8, 12) if section == "chorus" else (0, 8)
        piano = [
            (step, 16 // len(piano_steps), p) for step in piano_steps for p in tones
        ]
        bass_root = _chord_pitches(chord, 36)[0]
        bass = [(0, 8, bass_root), (8, 8, bass_root)]
        tracks = {"vocal": vocal, "piano": piano, "bass": bass}
        if section == "chorus":
            arp = _chord_pitches(chord, 48)
            tracks["guitar"] = [(s, 2, arp[k % 3]) for k, s in enumerate(range(0, 16, 2))]
        bars.append({"section": section, "chord": chord, "tracks": tracks, "drums": drums})
    return {
        "source_id": f"song{index:03d}",
        "genre": GENRES[index % len(GENRES)],
        "bpm": _pick(rng, TEMPOS),
        "bars": bars,
    }


def annotation_doc(song: dict) -> dict:
    """The song as an annotation document, in absolute seconds, 4/4."""
    step = 60.0 / song["bpm"] / 4.0

    def t(units: int) -> float:
        return units * step

    n_bars = len(song["bars"])
    doc = {
        "source_id": song["source_id"],
        "genre": song["genre"],
        "beats": [[t(4 * k), k % 4 + 1] for k in range(4 * n_bars + 1)],
        "chords": [],
        "sections": [],
        "vocal": [],
        "piano": [],
        "guitar": [],
        "bass": [],
        "drums": [],
    }
    for i, bar in enumerate(song["bars"]):
        base = STEPS_PER_BAR * i
        doc["chords"].append([t(base), t(base + STEPS_PER_BAR), bar["chord"]])
        if doc["sections"] and doc["sections"][-1][2] == bar["section"]:
            doc["sections"][-1][1] = t(base + STEPS_PER_BAR)
        else:
            doc["sections"].append([t(base), t(base + STEPS_PER_BAR), bar["section"]])
        for label, notes in bar["tracks"].items():
            doc[label] += [[t(base + s), t(base + s + d), p] for s, d, p in notes]
        doc["drums"] += [[t(base + s), key] for s, key in bar["drums"]]
    for label in ("vocal", "piano", "guitar", "bass", "drums"):
        doc[label].sort(key=lambda row: (row[0], row[-1]))
    return doc


def _varint(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(out))


def _track(events: list[tuple[int, int, bytes]]) -> bytes:
    """MTrk chunk from (tick, order, message) events; offs sort before ons."""
    body = bytearray()
    last = 0
    for tick, _, message in sorted(events):
        body += _varint(tick - last) + message
        last = tick
    body += b"\x00\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(body)) + bytes(body)


def midi_bytes(song: dict) -> bytes:
    """The song as a format-1 SMF: tempo track, one track per instrument."""
    tempo = round(60_000_000 / song["bpm"])
    tracks = [
        _track(
            [
                (0, 0, b"\xff\x51\x03" + tempo.to_bytes(3, "big")),
                (0, 1, b"\xff\x58\x04\x04\x02\x18\x08"),
            ]
        )
    ]
    # General MIDI programs the importer maps to vocal, piano, guitar, bass.
    channels = {"vocal": (0, 52), "piano": (1, 0), "guitar": (2, 24), "bass": (3, 32)}
    for label, (channel, program) in channels.items():
        events = [(0, 0, bytes((0xC0 | channel, program)))]
        for i, bar in enumerate(song["bars"]):
            base = STEPS_PER_BAR * i
            for s, d, p in bar["tracks"].get(label, ()):
                events.append(((base + s) * STEP_TICKS, 2, bytes((0x90 | channel, p, 80))))
                events.append(((base + s + d) * STEP_TICKS, 1, bytes((0x80 | channel, p, 0))))
        if len(events) > 1:
            tracks.append(_track(events))
    drum_events = []
    for i, bar in enumerate(song["bars"]):
        base = STEPS_PER_BAR * i
        for s, key in bar["drums"]:
            drum_events.append(((base + s) * STEP_TICKS, 2, bytes((0x99, key, 90))))
            drum_events.append(((base + s + 1) * STEP_TICKS, 1, bytes((0x89, key, 0))))
    tracks.append(_track(drum_events))
    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(tracks), TPQ)
    return header + b"".join(tracks)


def write_inputs(root: Path, seed: int) -> dict:
    """Write the ingest directory and the crash file under ``root``.

    Returns the paths and the file names ingest must reject; every one of
    the N_SONGS songs must be ingested.
    """
    rng = random.Random(seed)
    songs = [make_song(rng, i) for i in range(N_SONGS)]
    ingest_dir = root / "ingest"
    ingest_dir.mkdir(parents=True)
    for song in songs[:N_JSON]:
        (ingest_dir / f"{song['source_id']}.json").write_text(json.dumps(annotation_doc(song)))
    lines = [json.dumps(annotation_doc(s)) for s in songs[N_JSON : N_JSON + N_JSONL]]
    (ingest_dir / "collection.jsonl").write_text("\n".join(lines) + "\n")
    for song in songs[N_JSON + N_JSONL :]:
        (ingest_dir / f"{song['source_id']}.mid").write_bytes(midi_bytes(song))
    for name, data in MALFORMED.items():
        (ingest_dir / name).write_bytes(data)
    crash_dir = root / "crash"
    crash_dir.mkdir()
    crash_path = crash_dir / CRASH_FILE[0]
    crash_path.write_bytes(CRASH_FILE[1])
    return {
        "ingest_dir": ingest_dir,
        "crash_path": crash_path,
        "rejects": sorted(MALFORMED),
    }
