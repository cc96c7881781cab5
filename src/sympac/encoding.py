"""Bijective mapping between GridSongs and prompt-bar/song-bar token sequences.

A full piece encodes as: every bar's prompt form, then ``end_of_prompt``,
then every bar's song form, then ``end_of_song``.  A song bar is the bar
header (bar, genre, sec, bpm_level), the chord part (alternating
position/chord at strictly increasing steps), the melodic track parts in
fixed order (track token plus one or more position/duration/pitch
groups), and finally the drum part (track<drums> plus position/drum
groups).  A prompt bar is the same bar with every note group deleted:
header, chord part, and bare track tokens only.

:func:`validate` checks the grammar by direct sequence scanning and is
deliberately independent of the mask-based state machine in
:mod:`sympac.fsm`; the two act as cross-checks on each other.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DecodeError, ParseError
from .ingest import GridBar, GridNote, GridSong
from .vocab import (
    BAR_ID,
    BPM_BASE,
    CHORD_BASE,
    CHORDS,
    DRUM_BASE,
    DRUM_KEY_MIN,
    DUR_BASE,
    EOP_ID,
    EOS_ID,
    GENRE_BASE,
    GENRES,
    MELODIC_TRACKS,
    PITCH_BASE,
    POS_BASE,
    SEC_BASE,
    SECTIONS,
    TRACK_BASE,
    TRACKS,
    VOCAB_SIZE,
    as_id,
    bpm_id,
    build_vocab,
    chord_id,
    drum_id,
    duration_id,
    genre_id,
    kind_of_id,
    pitch_id,
    position_id,
    sec_id,
    track_id,
)

TOKEN_FILE_MAGIC = b"SYMPAC01"

_KIND = tuple(kind_of_id(i) for i in range(VOCAB_SIZE))


@dataclass(slots=True)
class _BarData:
    start: int
    genre: int = -1
    sec: int = -1
    bpm: int = -1
    chords: list[tuple[int, int]] = field(default_factory=list)
    track_tokens: list[tuple[int, int]] = field(default_factory=list)  # (index, track)
    notes: dict[int, list[GridNote]] = field(default_factory=dict)
    drums: list[tuple[int, int]] = field(default_factory=list)


class _Scan:
    """Single forward scan; raises DecodeError at the first violation."""

    def __init__(self, seq: list[int]):
        self.seq = seq
        self.pos = 0

    def done(self) -> bool:
        return self.pos >= len(self.seq)

    def peek_kind(self) -> str:
        return _KIND[self.seq[self.pos]]

    def take(self, kind: str, context: str) -> int:
        if self.done():
            raise DecodeError(
                len(self.seq), f"sequence ends where {kind} was expected ({context})", (kind,)
            )
        tok = self.seq[self.pos]
        if _KIND[tok] != kind:
            raise DecodeError(self.pos, f"expected {kind} {context}, found {_KIND[tok]}", (kind,))
        self.pos += 1
        return tok


def _scan_bar(scan: _Scan, in_prompt: bool) -> _BarData:
    bar = _BarData(start=scan.pos - 1)
    bar.genre = scan.take("genre", "after bar")
    bar.sec = scan.take("sec", "after genre")
    bar.bpm = scan.take("bpm_level", "after sec")

    last_step = -1
    while not scan.done() and scan.peek_kind() == "position":
        pos_index = scan.pos
        step = scan.seq[scan.pos] - POS_BASE
        scan.pos += 1
        if step <= last_step:
            raise DecodeError(
                pos_index, f"chord step {step} not greater than previous step {last_step}"
            )
        symbol = scan.take("chord", "after a chord-part position")
        bar.chords.append((step, symbol - CHORD_BASE))
        last_step = step

    last_track = -1
    while not scan.done() and scan.peek_kind() == "track":
        track_index = scan.pos
        track = scan.seq[scan.pos] - TRACK_BASE
        scan.pos += 1
        if track <= last_track:
            raise DecodeError(
                track_index, f"track {TRACKS[track]} out of order after {TRACKS[last_track]}"
            )
        last_track = track
        bar.track_tokens.append((track_index, track))
        if in_prompt:
            continue
        if TRACKS[track] == "drums":
            _scan_drum_part(scan, bar)
        else:
            _scan_note_part(scan, bar, track)
    return bar


def _scan_note_part(scan: _Scan, bar: _BarData, track: int) -> None:
    notes: list[GridNote] = []
    last_step = -1
    last_pitch = -1
    first = True
    while first or (not scan.done() and scan.peek_kind() == "position"):
        pos_index = scan.pos
        step = scan.take("position", "to start a note group") - POS_BASE
        if step < last_step:
            raise DecodeError(pos_index, f"note position {step} decreases from {last_step}")
        duration = scan.take("duration", "after a note position") - DUR_BASE + 1
        pitch_index = scan.pos
        pitch = scan.take("pitch", "after a note duration") - PITCH_BASE
        if step == last_step and pitch <= last_pitch:
            raise DecodeError(
                pitch_index,
                f"pitch {pitch} not ascending at shared position {step} (previous {last_pitch})",
            )
        notes.append(GridNote(step, duration, pitch))
        last_pitch = pitch  # chain restarts whenever the position advances
        last_step = step
        first = False
    bar.notes[track] = notes


def _scan_drum_part(scan: _Scan, bar: _BarData) -> None:
    last_step = -1
    last_key = -1
    first = True
    while first or (not scan.done() and scan.peek_kind() == "position"):
        pos_index = scan.pos
        step = scan.take("position", "to start a drum group") - POS_BASE
        if step < last_step:
            raise DecodeError(pos_index, f"drum position {step} decreases from {last_step}")
        key_index = scan.pos
        key = scan.take("drum", "after a drum position") - DRUM_BASE + DRUM_KEY_MIN
        if step == last_step and key <= last_key:
            raise DecodeError(
                key_index,
                f"drum key {key} not ascending at shared position {step} (previous {last_key})",
            )
        bar.drums.append((step, key))
        last_key = key
        last_step = step
        first = False


def _scan_section(scan: _Scan, in_prompt: bool) -> list[_BarData]:
    """The bars of the prompt or the song section, from just after its
    first bar token through the token that closes the section."""
    section, closer = ("prompt", "end_of_prompt") if in_prompt else ("song", "end_of_song")
    bars = []
    while True:
        bars.append(_scan_bar(scan, in_prompt))
        if scan.done():
            raise DecodeError(
                len(scan.seq), f"sequence ends inside the {section} section", ("bar", closer)
            )
        kind = scan.peek_kind()
        if kind not in ("bar", closer):
            raise DecodeError(scan.pos, f"expected bar or {closer}, found {kind}", ("bar", closer))
        scan.pos += 1
        if kind == closer:
            return bars


def _parse(seq: list[int]) -> tuple[list[_BarData], list[_BarData]]:
    """Parse into (prompt_bars, song_bars); raise DecodeError at the first violation."""
    for i, tok in enumerate(seq):
        try:
            as_id(tok)
        except ValueError:
            raise DecodeError(i, f"id {tok!r} outside the vocabulary") from None

    scan = _Scan(seq)
    if scan.done():
        raise DecodeError(0, "expected bar at index 0", ("bar",))

    scan.take("bar", "at the start of the sequence")
    prompt_bars = _scan_section(scan, in_prompt=True)
    scan.take("bar", "after end_of_prompt")
    song_bars = _scan_section(scan, in_prompt=False)
    if not scan.done():
        raise DecodeError(scan.pos, "content after end_of_song")

    _cross_check(prompt_bars, song_bars)
    return prompt_bars, song_bars


def _cross_check(prompt_bars: list[_BarData], song_bars: list[_BarData]) -> None:
    if len(prompt_bars) != len(song_bars):
        last = song_bars[-1]
        raise DecodeError(
            last.start, f"{len(song_bars)} song bars do not match {len(prompt_bars)} prompt bars"
        )
    genre = prompt_bars[0].genre
    for bar in prompt_bars + song_bars:
        if bar.genre != genre:
            raise DecodeError(
                bar.start + 1,
                f"genre {GENRES[bar.genre - GENRE_BASE]} differs from the song genre "
                f"{GENRES[genre - GENRE_BASE]}",
            )
    for i, (p, s) in enumerate(zip(prompt_bars, song_bars)):
        if s.sec != p.sec:
            raise DecodeError(s.start + 2, f"bar {i}: section differs from its prompt bar")
        if s.bpm != p.bpm:
            raise DecodeError(s.start + 3, f"bar {i}: bpm_level differs from its prompt bar")
        if s.chords != p.chords:
            raise DecodeError(s.start + 4, f"bar {i}: chord part differs from its prompt bar")
        promised = {t for _, t in p.track_tokens}
        for index, track in s.track_tokens:
            if track not in promised:
                raise DecodeError(
                    index, f"bar {i}: track {TRACKS[track]} missing from its prompt bar"
                )


def validate(seq: list[int]) -> list[DecodeError]:
    """Scan a token sequence; empty result means it is grammatical.

    Scanning stops at the first violation, so the result holds at most
    one entry: the DecodeError that :func:`decode_sequence` raises on
    ``seq``, returned as data rather than raised.
    """
    try:
        _parse(list(seq))
    except DecodeError as error:
        return [error]
    return []


def encode_song(song: GridSong) -> list[int]:
    """Token sequence for a GridSong: prompt bars, then song bars."""
    genre = genre_id(song.genre)
    prompt: list[int] = []
    body: list[int] = []
    for bar in song.bars:
        header = [BAR_ID, genre, sec_id(bar.section), bpm_id(bar.bpm_level)]
        chord_part: list[int] = []
        for step, symbol in bar.chords:
            chord_part += [position_id(step), chord_id(symbol)]
        prompt += header + chord_part
        body += header + chord_part
        for label in MELODIC_TRACKS:
            notes = bar.tracks.get(label)
            if not notes:
                continue
            tid = track_id(label)
            prompt.append(tid)
            body.append(tid)
            for note in notes:
                body += [
                    position_id(note.step),
                    duration_id(note.duration),
                    pitch_id(note.pitch),
                ]
        if bar.drums:
            tid = track_id("drums")
            prompt.append(tid)
            body.append(tid)
            for step, key in bar.drums:
                body += [position_id(step), drum_id(key)]
    return prompt + [EOP_ID] + body + [EOS_ID]


def decode_sequence(seq: list[int], source_id: str = "") -> GridSong:
    """Rebuild the GridSong from a grammatical token sequence.

    Prompt bars are checked for consistency with song bars; the song is
    reconstructed from the song bars.  The genre is the genre token of
    the first song bar.
    """
    _, song_bars = _parse(list(seq))

    bars = []
    for data in song_bars:
        bars.append(
            GridBar(
                section=SECTIONS[data.sec - SEC_BASE],
                bpm_level=data.bpm - BPM_BASE,
                chords=[(step, CHORDS[sym]) for step, sym in data.chords],
                tracks={
                    TRACKS[track]: notes for track, notes in sorted(data.notes.items())
                },
                drums=data.drums,
            )
        )
    return GridSong(
        source_id=source_id,
        genre=GENRES[song_bars[0].genre - GENRE_BASE],
        bars=bars,
    )


# ---------------------------------------------------------------------------
# Token sequence files: binary records and a readable text form.

def tokens_to_bytes(seq: list[int]) -> bytes:
    """One token record: the magic, the id count as ``<Q``, then each id as
    ``<H``.  An id that is not an integer in 0..335 (a NumPy integer will
    do, a bool will not) raises ValueError."""
    ids = [as_id(token_id) for token_id in seq]
    return TOKEN_FILE_MAGIC + struct.pack(f"<Q{len(ids)}H", len(ids), *ids)


def _record_from(buffer: bytes, offset: int) -> tuple[list[int], int]:
    if buffer[offset : offset + 8] != TOKEN_FILE_MAGIC:
        raise ParseError(f"byte {offset}: bad token-file magic")
    start = offset + 16
    if start > len(buffer):
        raise ParseError(f"byte {offset}: truncated token record header")
    (count,) = struct.unpack_from("<Q", buffer, offset + 8)
    end = start + 2 * count
    if end > len(buffer):
        raise ParseError(f"byte {offset}: truncated token record")
    ids = struct.unpack_from(f"<{count}H", buffer, start)
    if count and max(ids) >= VOCAB_SIZE:
        raise ParseError(f"byte {offset}: token id outside the vocabulary")
    return list(ids), end


def tokens_from_bytes(data: bytes) -> list[int]:
    seq, end = _record_from(data, 0)
    if end != len(data):
        raise ParseError(f"byte {end}: trailing bytes after token record")
    return seq


def write_token_file(path, seq: list[int]) -> None:
    with open(path, "wb") as fh:
        fh.write(tokens_to_bytes(seq))


def read_token_file(path) -> list[int]:
    with open(path, "rb") as fh:
        return tokens_from_bytes(fh.read())


def write_corpus(path, seqs: Iterable[list[int]]) -> int:
    """Write sequences as concatenated binary records; returns the count."""
    n = 0
    with open(path, "wb") as fh:
        for seq in seqs:
            fh.write(tokens_to_bytes(seq))
            n += 1
    return n


def iter_corpus(path) -> Iterator[list[int]]:
    with open(path, "rb") as fh:
        buffer = fh.read()
    offset = 0
    while offset < len(buffer):
        seq, offset = _record_from(buffer, offset)
        yield seq


def read_corpus(path) -> list[list[int]]:
    return list(iter_corpus(path))


def tokens_to_text(seq: list[int]) -> str:
    """One token name per line, e.g. ``chord<C:maj>``."""
    vocab = build_vocab()
    return "\n".join(vocab.render(i) for i in seq) + ("\n" if seq else "")


def text_to_tokens(text: str) -> list[int]:
    vocab = build_vocab()
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        name = line.strip()
        if not name:
            continue
        try:
            out.append(vocab.id_of_name(name))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return out
