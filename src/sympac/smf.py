"""Standard MIDI File import and export (formats 0 and 1).

Import converts an SMF byte stream into an :class:`AnnotatedSong`: the
tempo map and time signatures become a synthetic beat list, channel-10
events become drum hits, and melodic tracks map to the fixed instrument
set by General MIDI program ranges (piano 0-7, guitar 24-31, bass 32-39;
any other program goes to vocal when the stream is monophonic after
overlap trimming, otherwise to piano).

Export renders a GridSong as a format-1 file at 4 steps per beat and
4 beats per bar, one track per instrument plus a tempo track, drums on
channel 10.
"""

from __future__ import annotations

import bisect
import struct
from collections import deque

from .errors import EmptySongError, ParseError, UnsupportedFormatError, ValidationError
from .ingest import AnnotatedSong, BeatEvent, DrumHit, GridSong, NoteEvent
from .vocab import DRUM_KEY_MAX, DRUM_KEY_MIN, MELODIC_TRACKS

_DEFAULT_TEMPO = 500000  # microseconds per quarter note
_TPQ = 480
_STEP_TICKS = _TPQ // 4

# The General MIDI programs import routes to each instrument track; export
# writes each range's first program, and 52 (choir aahs) for vocal.
_PROGRAM_RANGES = {"piano": range(0, 8), "guitar": range(24, 32), "bass": range(32, 40)}
_EXPORT_PROGRAMS = {"vocal": 52} | {label: r.start for label, r in _PROGRAM_RANGES.items()}
_DRUM_CHANNEL = 9
_MELODIC_CHANNELS = tuple(c for c in range(16) if c != _DRUM_CHANNEL)
# Import builds one beat per quarter note up to the last event, so the
# song length is capped (2**16 beats is about 9 h at 120 bpm): a garbled
# delta time must not ask for hundreds of millions of beats.
MAX_IMPORT_BEATS = 1 << 16


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ParseError(f"byte {self.pos}: truncated file, needed {n} more bytes")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def varint(self) -> int:
        value = 0
        for _ in range(4):
            byte = self.u8()
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise ParseError(f"byte {self.pos}: variable-length quantity too long")


def _read_track_events(reader: _Reader):
    """Yield (tick, kind, payload) tuples for one MTrk chunk."""
    if reader.take(4) != b"MTrk":
        raise ParseError(f"byte {reader.pos - 4}: expected MTrk chunk")
    length = reader.u32()
    end = reader.pos + length
    tick = 0
    status = None
    while reader.pos < end:
        tick += reader.varint()
        byte = reader.u8()
        if byte == 0xFF:
            meta_type = reader.u8()
            data = reader.take(reader.varint())
            yield tick, "meta", (meta_type, data)
            if meta_type == 0x2F:
                break
            continue
        if byte in (0xF0, 0xF7):
            reader.take(reader.varint())
            continue
        if byte & 0x80:
            status = byte
            first = reader.u8()
        else:
            if status is None:
                raise ParseError(f"byte {reader.pos - 1}: running status with no status")
            first = byte
        kind = status & 0xF0
        channel = status & 0x0F
        if kind in (0x80, 0x90, 0xA0, 0xB0, 0xE0):
            second = reader.u8()
            if kind == 0x90 and second > 0:
                yield tick, "on", (channel, first)
            elif kind == 0x80 or kind == 0x90:
                yield tick, "off", (channel, first)
        elif kind == 0xC0:
            yield tick, "program", (channel, first)
        elif kind == 0xD0:
            pass
        else:
            raise ParseError(f"byte {reader.pos}: unknown status byte 0x{status:02x}")
    reader.pos = end


class _TempoMap:
    def __init__(self, changes: list[tuple[int, int]], tpq: int):
        # (tick, us_per_quarter), always anchored at tick 0.
        self._tpq = tpq
        merged = {0: _DEFAULT_TEMPO}
        for tick, tempo in sorted(changes):
            merged[tick] = tempo
        self.ticks = sorted(merged)
        self.tempos = [merged[t] for t in self.ticks]
        self.times = [0.0]
        for i in range(1, len(self.ticks)):
            dt = self.ticks[i] - self.ticks[i - 1]
            self.times.append(
                self.times[-1] + dt * self.tempos[i - 1] / (1e6 * self._tpq)
            )

    def seconds(self, tick: int) -> float:
        i = bisect.bisect_right(self.ticks, tick) - 1
        return self.times[i] + (tick - self.ticks[i]) * self.tempos[i] / (1e6 * self._tpq)


def _monophonic_after_trim(notes: list[NoteEvent]) -> list[NoteEvent] | None:
    """Trim overlaps to the next onset; None when onsets collide (polyphony)."""
    ordered = sorted(notes, key=lambda n: (n.onset, n.pitch))
    trimmed = []
    for i, note in enumerate(ordered):
        if i + 1 < len(ordered):
            nxt = ordered[i + 1].onset
            if nxt <= note.onset:
                return None
            if note.offset > nxt:
                note = NoteEvent(note.onset, nxt, note.pitch)
        trimmed.append(note)
    return trimmed


def import_smf(data: bytes, source_id: str = "", genre: str = "Pop") -> AnnotatedSong:
    """Parse a format 0/1 SMF into an AnnotatedSong.

    MIDI carries no chord, section, or genre annotations: chord and
    section lists are left empty (the grid quantizer fills chord N and
    section inst) and ``genre`` supplies the genre label.
    """
    reader = _Reader(data)
    if reader.take(4) != b"MThd":
        raise ParseError("byte 0: not a Standard MIDI File (missing MThd)")
    if reader.u32() != 6:
        raise ParseError("byte 4: unexpected MThd length")
    fmt = reader.u16()
    ntrks = reader.u16()
    division = reader.u16()
    if fmt not in (0, 1):
        raise UnsupportedFormatError(f"SMF format {fmt} is not supported (only 0 and 1)")
    if division & 0x8000:
        raise UnsupportedFormatError("SMPTE time division is not supported")
    tpq = division
    if tpq == 0:
        raise ParseError("byte 12: zero ticks per quarter note")

    tempo_changes: list[tuple[int, int]] = []
    timesig_changes: list[tuple[int, int, int]] = []
    raw_notes = []  # (track, channel, on_tick, off_tick, pitch)
    drum_ons: list[tuple[int, int]] = []  # (tick, key)
    last_tick = 0

    for track_idx in range(ntrks):
        open_notes: dict[tuple[int, int], deque[int]] = {}
        programs: dict[int, list[tuple[int, int]]] = {}
        track_notes = []  # (channel, on_tick, off_tick, pitch)
        track_end = 0
        for tick, kind, payload in _read_track_events(reader):
            track_end = max(track_end, tick)
            if kind == "meta":
                meta_type, mdata = payload
                if meta_type == 0x51 and len(mdata) == 3:
                    tempo_changes.append((tick, int.from_bytes(mdata, "big")))
                elif meta_type == 0x58 and len(mdata) >= 2:
                    timesig_changes.append((tick, mdata[0], 1 << mdata[1]))
            elif kind == "program":
                channel, program = payload
                programs.setdefault(channel, []).append((tick, program))
            elif kind == "on":
                channel, pitch = payload
                if channel == _DRUM_CHANNEL:
                    drum_ons.append((tick, pitch))
                else:
                    open_notes.setdefault((channel, pitch), deque()).append(tick)
            elif kind == "off":
                channel, pitch = payload
                queue = open_notes.get((channel, pitch))
                if queue:
                    on_tick = queue.popleft()
                    if tick > on_tick:
                        track_notes.append((channel, on_tick, tick, pitch))
        for (channel, pitch), queue in open_notes.items():
            for on_tick in queue:  # close dangling notes at end of track
                if track_end > on_tick:
                    track_notes.append((channel, on_tick, track_end, pitch))
        last_tick = max(last_tick, track_end)

        for channel, on_tick, off_tick, pitch in track_notes:
            program = 0
            for ptick, prog in programs.get(channel, []):
                if ptick <= on_tick:
                    program = prog
            raw_notes.append((track_idx, channel, on_tick, off_tick, pitch, program))

    if not raw_notes and not drum_ons:
        raise EmptySongError("file contains no note events")

    meters = {(num, den) for _, num, den in timesig_changes}
    if not meters:
        meter = 4
    elif len(meters) > 1:
        raise ValidationError(f"mixed time signatures are not supported: {sorted(meters)}")
    else:
        num, den = next(iter(meters))
        if (num, den) not in ((4, 4), (3, 4)):
            raise ValidationError(f"time signature {num}/{den} is not supported")
        meter = num

    tempo_map = _TempoMap(tempo_changes, tpq)

    n_beats = -(-last_tick // tpq)  # ceil
    if n_beats > MAX_IMPORT_BEATS:
        raise ValidationError(
            f"last event at tick {last_tick} is beat {n_beats}; "
            f"at most {MAX_IMPORT_BEATS} beats are supported"
        )
    n_beats = max(n_beats, 1)
    n_bars = -(-n_beats // meter)
    beats = [
        BeatEvent(tempo_map.seconds(k * tpq), k % meter + 1)
        for k in range(n_bars * meter + 1)
    ]

    streams: dict[str, list[NoteEvent]] = {label: [] for label in MELODIC_TRACKS}
    other: dict[tuple[int, int], list[NoteEvent]] = {}
    for trk, channel, on_tick, off_tick, pitch, program in raw_notes:
        note = NoteEvent(tempo_map.seconds(on_tick), tempo_map.seconds(off_tick), pitch)
        label = next((t for t, programs in _PROGRAM_RANGES.items() if program in programs), None)
        if label is None:
            other.setdefault((trk, channel), []).append(note)
        else:
            streams[label].append(note)

    for stream in other.values():
        trimmed = _monophonic_after_trim(stream)
        if trimmed is None:
            streams["piano"].extend(stream)
        else:
            streams["vocal"].extend(trimmed)

    drum_hits = [
        DrumHit(tempo_map.seconds(tick), key)
        for tick, key in drum_ons
        if DRUM_KEY_MIN <= key <= DRUM_KEY_MAX
    ]

    return AnnotatedSong(
        source_id=source_id,
        genre=genre,
        beats=beats,
        notes={
            label: sorted(v, key=lambda n: (n.onset, n.pitch)) for label, v in streams.items()
        },
        drum_hits=sorted(drum_hits, key=lambda d: (d.onset, d.key)),
    )


def _varint(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track_chunk(events: list[tuple[int, int, bytes]]) -> bytes:
    """Events are (tick, rank, message); rank orders same-tick events."""
    events = sorted(events, key=lambda e: (e[0], e[1]))
    payload = bytearray()
    prev = 0
    for tick, _, message in events:
        payload += _varint(tick - prev)
        payload += message
        prev = tick
    payload += _varint(0) + b"\xff\x2f\x00"
    return b"MTrk" + struct.pack(">I", len(payload)) + bytes(payload)


class _ChannelAllocator:
    """First-fit channel assignment for unambiguous re-import.

    Range-programmed instruments only need same-pitch notes kept from
    overlapping within a channel (note on/off pairing stays unique);
    exclusive mode additionally forbids any overlap on a channel, which
    keeps a stream monophonic so import's overlap trimming is a no-op.
    """

    def __init__(self) -> None:
        self.free = list(_MELODIC_CHANNELS)
        self.claimed: dict[str, list[int]] = {}
        self.open_until: dict[tuple[int, int], int] = {}
        self.channel_until: dict[int, int] = {}

    def place(self, inst: str, on: int, off: int, pitch: int, exclusive: bool = False) -> int | None:
        channels = self.claimed.setdefault(inst, [])
        for channel in channels:
            busy_until = (
                self.channel_until.get(channel, -1)
                if exclusive
                else self.open_until.get((channel, pitch), -1)
            )
            if busy_until <= on:
                self._book(channel, pitch, off)
                return channel
        if self.free:
            channel = self.free.pop(0)
            channels.append(channel)
            self._book(channel, pitch, off)
            return channel
        if exclusive:
            return None
        # Channels exhausted (pathological same-pitch polyphony): reuse the
        # last channel and accept ambiguous pairing for the excess note.
        channel = channels[-1]
        self._book(channel, pitch, off)
        return channel

    def _book(self, channel: int, pitch: int, off: int) -> None:
        self.open_until[(channel, pitch)] = max(
            self.open_until.get((channel, pitch), 0), off
        )
        self.channel_until[channel] = max(self.channel_until.get(channel, 0), off)


def export_smf(song: GridSong, base_bpm: float) -> bytes:
    """Render a GridSong as a format-1 SMF byte stream."""
    if base_bpm <= 0:
        raise ValueError("base_bpm must be positive")

    tempo = round(60e6 / base_bpm)
    meta_events = [
        (0, 0, b"\xff\x58\x04" + bytes([4, 2, 24, 8])),
        (0, 0, b"\xff\x51\x03" + tempo.to_bytes(3, "big")),
    ]

    notes_by_inst: dict[str, list[tuple[int, int, int]]] = {}
    for inst in MELODIC_TRACKS:
        notes = []
        for bar_idx, bar in enumerate(song.bars):
            for note in bar.tracks.get(inst, []):
                on = (bar_idx * 16 + note.step) * _STEP_TICKS
                notes.append((on, on + note.duration * _STEP_TICKS, note.pitch))
        if notes:
            notes_by_inst[inst] = sorted(notes)

    def lay_out(vocal_exclusive: bool):
        allocator = _ChannelAllocator()
        events_by_inst: dict[str, list[tuple[int, int, bytes]]] = {}
        # Range-programmed instruments claim channels first; the vocal
        # track spreads over whatever remains when it needs exclusivity.
        for inst in ("piano", "guitar", "bass", "vocal"):
            if inst not in notes_by_inst:
                continue
            exclusive = vocal_exclusive and inst == "vocal"
            events = events_by_inst.setdefault(inst, [])
            for on, off, pitch in notes_by_inst[inst]:
                channel = allocator.place(inst, on, off, pitch, exclusive)
                if channel is None:
                    return None
                events.append((on, 1, bytes([0x90 | channel, pitch, 96])))
                events.append((off, 0, bytes([0x80 | channel, pitch, 0])))
            program = _EXPORT_PROGRAMS[inst]
            if inst == "vocal" and not vocal_exclusive:
                program = _EXPORT_PROGRAMS["piano"]
            for channel in allocator.claimed.get(inst, []):
                events.append((0, -1, bytes([0xC0 | channel, program])))
        return events_by_inst

    # Heavily polyphonic vocals cannot stay monophonic per channel; fall
    # back to a piano-range program so re-import keeps every note intact.
    inst_events = lay_out(vocal_exclusive=True)
    if inst_events is None:
        inst_events = lay_out(vocal_exclusive=False)

    drum_events: list[tuple[int, int, bytes]] = []
    for bar_idx, bar in enumerate(song.bars):
        for step, key in bar.drums:
            on = (bar_idx * 16 + step) * _STEP_TICKS
            drum_events.append((on, 1, bytes([0x90 | _DRUM_CHANNEL, key, 96])))
            drum_events.append((on + _STEP_TICKS, 0, bytes([0x80 | _DRUM_CHANNEL, key, 0])))

    chunks = [_track_chunk(meta_events)]
    for inst in MELODIC_TRACKS:
        if inst in inst_events:
            chunks.append(_track_chunk(inst_events[inst]))
    if drum_events:
        chunks.append(_track_chunk(drum_events))

    header = b"MThd" + struct.pack(">IHHH", 6, 1, len(chunks), _TPQ)
    return header + b"".join(chunks)
