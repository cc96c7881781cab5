"""MIDI import/export tests.

The import fixtures are built byte by byte here, independent of the
writer under test, and checked against a tiny event-dump oracle that
only understands delta times and note messages.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sympac.errors import (
    EmptySongError,
    ParseError,
    SympacError,
    UnsupportedFormatError,
    ValidationError,
)
from sympac.ingest import GridNote, quantize_to_grid
from sympac.smf import MAX_IMPORT_BEATS, export_smf, import_smf
from synthcorpus import damaged, random_grid_song


def _var(n: int) -> bytes:
    out = [n & 0x7F]
    n >>= 7
    while n:
        out.append(0x80 | (n & 0x7F))
        n >>= 7
    return bytes(reversed(out))


def _track(events: bytes) -> bytes:
    payload = events + b"\x00\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(payload)) + payload


def _header(fmt: int, ntrks: int, tpq: int = 480) -> bytes:
    return b"MThd" + struct.pack(">IHHH", 6, fmt, ntrks, tpq)


def _single_note_smf() -> bytes:
    # 120 BPM tempo, one C4 held for one beat on channel 0.
    events = b"".join(
        [
            b"\x00\xff\x51\x03" + (500000).to_bytes(3, "big"),
            b"\x00\xff\x58\x04" + bytes([4, 2, 24, 8]),
            b"\x00" + bytes([0x90, 60, 100]),
            _var(480) + bytes([0x80, 60, 0]),
        ]
    )
    return _header(0, 1) + _track(events)


def dump_events(data: bytes):
    """Independent decoder: (tick, status, data1, data2) note events only."""
    pos = 14  # skip MThd
    out = []
    while pos < len(data):
        assert data[pos : pos + 4] == b"MTrk"
        (length,) = struct.unpack(">I", data[pos + 4 : pos + 8])
        end = pos + 8 + length
        cursor = pos + 8
        tick = 0
        status = None
        while cursor < end:
            delta = 0
            while True:
                byte = data[cursor]
                cursor += 1
                delta = (delta << 7) | (byte & 0x7F)
                if not byte & 0x80:
                    break
            tick += delta
            byte = data[cursor]
            if byte == 0xFF:
                length_pos = cursor + 2
                out_len = data[length_pos]
                cursor = length_pos + 1 + out_len
                continue
            if byte & 0x80:
                status = byte
                cursor += 1
            kind = status & 0xF0
            if kind in (0x80, 0x90):
                out.append((tick, status, data[cursor], data[cursor + 1]))
                cursor += 2
            elif kind in (0xA0, 0xB0, 0xE0):
                cursor += 2
            else:
                cursor += 1
        pos = end
    return out


def test_import_single_note():
    song = import_smf(_single_note_smf())
    assert [round(b.time, 6) for b in song.beats[:3]] == [0.0, 0.5, 1.0]
    assert song.beats[0].count == 1
    notes = song.notes["piano"]  # default program 0
    assert len(notes) == 1
    assert notes[0].pitch == 60
    assert notes[0].onset == pytest.approx(0.0)
    assert notes[0].offset == pytest.approx(0.5)


def test_import_respects_tempo_map():
    events = b"".join(
        [
            b"\x00\xff\x51\x03" + (1000000).to_bytes(3, "big"),  # 60 BPM
            b"\x00" + bytes([0x90, 60, 100]),
            _var(480) + bytes([0x80, 60, 0]),
        ]
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert song.notes["piano"][0].offset == pytest.approx(1.0)


def test_import_channel_10_is_drums():
    events = b"".join(
        [
            b"\x00" + bytes([0x99, 38, 100]),
            _var(240) + bytes([0x89, 38, 0]),
        ]
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert not any(song.notes.values())
    assert not song.notes["vocal"]
    assert [d.key for d in song.drum_hits] == [38]


def test_import_format_2_rejected():
    with pytest.raises(UnsupportedFormatError, match="format 2"):
        import_smf(_header(2, 1) + _track(b"\x00" + bytes([0x90, 60, 100])))


def test_import_empty_song_rejected():
    with pytest.raises(EmptySongError):
        import_smf(_header(0, 1) + _track(b""))


def test_import_not_midi():
    with pytest.raises(ParseError):
        import_smf(b"RIFFxxxx")


def test_import_unsupported_meter():
    events = b"".join(
        [
            b"\x00\xff\x58\x04" + bytes([6, 3, 24, 8]),  # 6/8
            b"\x00" + bytes([0x90, 60, 100]),
            _var(480) + bytes([0x80, 60, 0]),
        ]
    )
    with pytest.raises(ValidationError, match="6/8"):
        import_smf(_header(0, 1) + _track(events))


def test_import_running_status():
    events = b"".join(
        [
            b"\x00" + bytes([0x90, 60, 100]),
            _var(10) + bytes([64, 100]),  # running status note on
            _var(470) + bytes([0x80, 60, 0]),
            _var(10) + bytes([64, 0]),  # running status note off
        ]
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert [n.pitch for n in song.notes["piano"]] == [60, 64]


def test_import_program_ranges():
    def channel_events(channel, program, pitch):
        return b"".join(
            [
                b"\x00" + bytes([0xC0 | channel, program]),
                b"\x00" + bytes([0x90 | channel, pitch, 100]),
                _var(480) + bytes([0x80 | channel, pitch, 0]),
            ]
        )

    events = (
        channel_events(0, 0, 60)     # piano
        + channel_events(1, 25, 50)  # guitar
        + channel_events(2, 33, 40)  # bass
        + channel_events(3, 52, 70)  # other, monophonic -> vocal
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert [n.pitch for n in song.notes["piano"]] == [60]
    assert [n.pitch for n in song.notes["guitar"]] == [50]
    assert [n.pitch for n in song.notes["bass"]] == [40]
    assert [n.pitch for n in song.notes["vocal"]] == [70]


def test_import_polyphonic_other_program_goes_to_piano():
    events = b"".join(
        [
            b"\x00" + bytes([0xC0, 52]),
            b"\x00" + bytes([0x90, 70, 100]),
            b"\x00" + bytes([0x90, 74, 100]),  # simultaneous onset: polyphonic
            _var(480) + bytes([0x80, 70, 0]),
            b"\x00" + bytes([0x80, 74, 0]),
        ]
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert not song.notes["vocal"]
    assert sorted(n.pitch for n in song.notes["piano"]) == [70, 74]


def test_import_monophonic_overlap_is_trimmed():
    events = b"".join(
        [
            b"\x00" + bytes([0xC0, 52]),
            b"\x00" + bytes([0x90, 70, 100]),
            _var(240) + bytes([0x90, 72, 100]),
            _var(480) + bytes([0x80, 70, 0]),  # 70 overlaps past 72's onset
            b"\x00" + bytes([0x80, 72, 0]),
        ]
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert [n.pitch for n in song.notes["vocal"]] == [70, 72]
    assert song.notes["vocal"][0].offset == pytest.approx(song.notes["vocal"][1].onset)


def test_import_format_1_multi_track():
    tempo_track = _track(b"\x00\xff\x51\x03" + (500000).to_bytes(3, "big"))
    note_track = _track(
        b"\x00" + bytes([0x90, 60, 100]) + _var(480) + bytes([0x80, 60, 0])
    )
    song = import_smf(_header(1, 2) + tempo_track + note_track)
    assert [n.pitch for n in song.notes["piano"]] == [60]


def test_export_single_note_round_trip():
    grid = quantize_to_grid(import_smf(_single_note_smf()))
    data = export_smf(grid, 120.0)
    again = quantize_to_grid(import_smf(data))
    assert again.bars[0].tracks["piano"] == [GridNote(0, 4, 60)]
    assert grid.bars[0].tracks["piano"] == [GridNote(0, 4, 60)]


def test_export_drums_on_channel_10():
    from sympac.ingest import GridBar, GridSong

    song = GridSong(
        source_id="d",
        genre="Pop",
        bars=[GridBar(section="inst", bpm_level=4, chords=[], tracks={}, drums=[(0, 36), (4, 38)])],
    )
    data = export_smf(song, 120.0)
    notes = [e for e in dump_events(data) if e[1] & 0xF0 == 0x90]
    assert notes and all(status & 0x0F == 9 for _, status, _, _ in notes)


def test_export_empty_song_has_tempo_track_only():
    from sympac.ingest import GridBar, GridSong

    song = GridSong(
        source_id="e",
        genre="Pop",
        bars=[GridBar(section="inst", bpm_level=4, chords=[], tracks={}, drums=[])],
    )
    data = export_smf(song, 120.0)
    assert data.count(b"MTrk") == 1


def test_export_reimport_note_multiset():
    rng = np.random.default_rng(31)
    for _ in range(25):
        song = random_grid_song(rng)
        data = export_smf(song, 122.0)
        try:
            again = quantize_to_grid(import_smf(data, genre=song.genre))
        except EmptySongError:
            assert not any(bar.tracks or bar.drums for bar in song.bars)
            continue

        def multiset(grid):
            out = []
            for i, bar in enumerate(grid.bars):
                for notes in bar.tracks.values():
                    out += [(i * 16 + n.step, n.duration, n.pitch) for n in notes]
            return sorted(out)

        assert multiset(again) == multiset(song)


def test_export_nested_same_pitch_overlap_survives():
    from sympac.ingest import GridBar, GridSong

    bar = GridBar(
        section="verse",
        bpm_level=4,
        chords=[],
        tracks={"piano": [GridNote(0, 16, 60), GridNote(4, 2, 60), GridNote(8, 4, 60)]},
        drums=[],
    )
    song = GridSong(source_id="o", genre="Pop", bars=[bar, GridBar("verse", 4, [], {}, [])])
    again = quantize_to_grid(import_smf(export_smf(song, 120.0)))
    merged = [n for b in again.bars for ns in b.tracks.values() for n in ns]
    assert sorted((n.step, n.duration, n.pitch) for n in merged) == [
        (0, 16, 60),
        (4, 2, 60),
        (8, 4, 60),
    ]


def test_import_three_four_meter():
    events = b"".join(
        [
            b"\x00\xff\x58\x04" + bytes([3, 2, 24, 8]),  # 3/4
            b"\x00" + bytes([0x90, 60, 100]),
            _var(480 * 3) + bytes([0x80, 60, 0]),
        ]
    )
    song = import_smf(_header(0, 1) + _track(events))
    assert [b.count for b in song.beats[:4]] == [1, 2, 3, 1]
    grid = quantize_to_grid(song)
    assert len(grid.bars) == 1
    # a 3-beat note fills the whole 16-step bar
    assert grid.bars[0].tracks["piano"] == [GridNote(0, 16, 60)]


def _note_at(tick: int, tpq: int) -> bytes:
    events = b"\x00" + bytes([0x90, 60, 100]) + _var(tick) + bytes([0x80, 60, 0])
    return _header(0, 1, tpq) + _track(events)


def test_import_bounds_the_beat_count():
    song = import_smf(_note_at(MAX_IMPORT_BEATS, 1))
    assert len(song.beats) == MAX_IMPORT_BEATS + 1
    with pytest.raises(ValidationError, match="beats are supported"):
        import_smf(_note_at(MAX_IMPORT_BEATS + 1, 1))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_smf_bytes_import_or_raise_sympac_error(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    blob = export_smf(random_grid_song(rng, max_bars=3), 120.0)
    try:
        import_smf(damaged(blob, data))
    except SympacError:
        pass
