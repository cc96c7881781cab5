"""Finite state machine for constrained decoding.

At every step the machine exposes the sub-vocabulary that is legal next,
as the intersection of two constraint classes: the encoding grammar
(bar-header order, chord/track/drum part structure, position
monotonicity) and the user's controls (genre, tempo bucket, per-bar
sections, a looped or scheduled chord progression, allowed and forced
tracks, bar count).

The machine generates prompt bars first and remembers them; during song
bars it pins the header and chord tokens of bar *i* to the prompt bar
*i* it generated earlier, and restricts track tokens to those the prompt
promised.  Tracks may still be skipped unless listed in
``forced_tracks``.  Because the song section replays the prompt
skeleton, any control satisfied by the prompt is satisfied by the music.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import groupby
from typing import NamedTuple

import numpy as np

from .errors import ConstraintConflictError, ControlError
from .vocab import (
    BAR_ID,
    BPM_BASE,
    BPM_LABELS,
    CHORD_BASE,
    CHORDS,
    DRUM_BASE,
    DUR_BASE,
    EOP_ID,
    EOS_ID,
    GENRE_BASE,
    GENRES,
    MAX_DURATION,
    N_PITCHES,
    N_STEPS,
    PITCH_BASE,
    POS_BASE,
    SEC_BASE,
    SECTIONS,
    TRACK_BASE,
    TRACKS,
    VOCAB_SIZE,
    as_id,
    as_whole,
    build_vocab,
    normalize_chord_symbol,
    parse_whole,
)

# Safety rail: a track part closes once it holds this many note groups.
MAX_NOTES_PER_PART = 128

# A control names at most this many bars (2**16 bars is about 36 h at 120
# bpm), checked on its counts before any list of labels is built: a
# 40-byte control file must not ask for gigabytes.
MAX_BARS = 1 << 16

_N_DRUMS = VOCAB_SIZE - DRUM_BASE
_DRUMS_TRACK = len(TRACKS) - 1
_MASK_BYTES = (VOCAB_SIZE + 7) // 8
_BAR_BIT, _EOP_BIT, _EOS_BIT = 1 << BAR_ID, 1 << EOP_ID, 1 << EOS_ID

# Decoding phases.
(
    PH_BAR,
    PH_GENRE,
    PH_SEC,
    PH_BPM,
    PH_CHORD_POS,
    PH_CHORD_SYM,
    PH_TRACK_START,
    PH_NOTE_POS,
    PH_NOTE_DUR,
    PH_NOTE_PITCH,
    PH_DRUM_POS,
    PH_DRUM_KEY,
    PH_TERMINAL,
) = range(13)

PHASE_NAMES = (
    "ExpectBarHeader(bar)",
    "ExpectBarHeader(genre)",
    "ExpectBarHeader(sec)",
    "ExpectBarHeader(bpm_level)",
    "ChordPosOrNext",
    "ChordSymbol",
    "TrackStart",
    "NotePos",
    "NoteDur",
    "NotePitch",
    "DrumPos",
    "DrumKey",
    "Terminal",
)


class _PromptBar(NamedTuple):
    sec: int
    bpm: int
    chords: tuple[tuple[int, int], ...]  # (step, chord index)
    tracks: int  # bitmask over the 5 tracks


def _canonical_chord(text) -> str:
    try:
        return normalize_chord_symbol(str(text))
    except ValueError as exc:
        raise ControlError(str(exc)) from None


def _track_bits(labels) -> int:
    """Bitmask over the tracks of the track names in ``labels``."""
    return sum(1 << TRACKS.index(label) for label in labels)


def _sections(runs: list[tuple[str, int]]) -> list[str]:
    """One section label per bar of the ``(label, bars)`` runs.  The bar
    counts are checked, MAX_BARS in total, before the list is built."""
    for _, n in runs:
        if n < 1:
            raise ControlError(f"bar count must be >= 1 in structure, got {n}")
    total = sum(n for _, n in runs)
    if total > MAX_BARS:
        raise ControlError(
            f"bar count {total} in structure is too large; at most {MAX_BARS} bars are supported"
        )
    return [label for label, n in runs for _ in range(n)]


def parse_chords_arg(text: str) -> tuple[str, ...]:
    """Parse a progression like ``F,C,G,A:min`` into canonical symbols."""
    symbols = tuple(_canonical_chord(part) for part in text.split(",") if part.strip())
    if not symbols:
        raise ControlError("empty chord progression")
    return symbols


def parse_structure_arg(text: str) -> tuple[str, ...]:
    """Expand ``intro*4,verse*8,...`` into one section label per bar."""
    runs: list[tuple[str, int]] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "*" in part:
            label, _, count = part.partition("*")
            label, count = label.strip(), count.strip()
        else:
            label, count = part, "1"
        if label not in SECTIONS:
            raise ControlError(f"unknown section label {label!r}")
        try:
            runs.append((label, parse_whole(count)))
        except ValueError:
            raise ControlError(f"bad bar count {count!r} in structure") from None
    if not runs:
        raise ControlError("empty structure")
    return tuple(_sections(runs))


@dataclass(frozen=True)
class ControlSpec:
    """User inputs constraining generation; every field is optional.

    ``chords`` loops one chord per bar at step 0; ``chord_schedule``
    places chords explicitly as (bar, step, symbol) and pins the listed
    bars to exactly those chords.  ``forced_tracks`` must appear in every
    bar; ``allowed_tracks`` is the closed set a bar may use.  A number is
    stored as the int ``vocab.as_whole`` returns.

    Building a spec validates it and lowers it to what the masks read:
    ``genre_idx`` and ``bpm_idx`` (-1 when free), ``sec_ids`` and
    ``loop`` (section and chord indices, or None), ``schedule`` (bar ->
    (step, chord index) pairs, or None), the ``allowed`` and ``forced``
    track bitmasks, and ``bars``, the bar count (-1 when free).
    """

    genre: str | None = None
    bpm_level: int | None = None
    sections: tuple[str, ...] | None = None
    chords: tuple[str, ...] | None = None
    chord_schedule: tuple[tuple[int, int, str], ...] | None = None
    allowed_tracks: frozenset[str] | None = None
    forced_tracks: frozenset[str] | None = None
    n_bars: int | None = None

    def __post_init__(self):
        if self.genre is not None and self.genre not in GENRES:
            raise ControlError(f"unknown genre {self.genre!r}")
        for name in ("bpm_level", "n_bars"):
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, as_whole(value))
                except ValueError:
                    raise ControlError(f"{name} must be an integer, got {value!r}") from None
        if self.bpm_level is not None and not 0 <= self.bpm_level < len(BPM_LABELS):
            raise ControlError(f"bpm_level must be 0..7, got {self.bpm_level}")
        if self.n_bars is not None and not 1 <= self.n_bars <= MAX_BARS:
            raise ControlError(f"n_bars must be 1..{MAX_BARS}, got {self.n_bars}")
        if self.sections is not None:
            object.__setattr__(self, "sections", tuple(self.sections))
            if not self.sections:
                raise ControlError("sections must be non-empty when given")
            if len(self.sections) > MAX_BARS:
                raise ControlError(f"{len(self.sections)} sections are too many; at most {MAX_BARS}")
            for label in self.sections:
                if label not in SECTIONS:
                    raise ControlError(f"unknown section label {label!r}")
            if self.n_bars is not None and len(self.sections) != self.n_bars:
                raise ControlError(
                    f"sections length {len(self.sections)} != n_bars {self.n_bars}"
                )
        if self.n_bars is not None:
            bars = self.n_bars
        else:
            bars = len(self.sections) if self.sections is not None else -1
        if self.chords is not None and self.chord_schedule is not None:
            raise ControlError("give chords or chord_schedule, not both")
        if self.chords is not None:
            object.__setattr__(
                self, "chords", tuple(_canonical_chord(c) for c in self.chords)
            )
            if not self.chords:
                raise ControlError("chords must be non-empty when given")
        if self.chord_schedule is not None:
            if not self.chord_schedule:
                raise ControlError("chord_schedule must be non-empty when given")
            normalized = []
            for entry in self.chord_schedule:
                try:
                    bar, step, symbol = entry
                    bar, step = as_whole(bar), as_whole(step)
                except (TypeError, ValueError):
                    raise ControlError(
                        f"chord_schedule entries must be (bar, step, symbol) with whole "
                        f"bar and step numbers, got {entry!r}"
                    ) from None
                if not 0 <= bar < MAX_BARS:
                    raise ControlError(f"chord_schedule bar must be 0..{MAX_BARS - 1}, got {bar}")
                if not 0 <= step < N_STEPS:
                    raise ControlError(f"chord_schedule step must be 0..15, got {step}")
                normalized.append((bar, step, _canonical_chord(symbol)))
            normalized.sort(key=lambda e: (e[0], e[1]))
            for a, b in zip(normalized, normalized[1:]):
                if a[0] == b[0] and a[1] >= b[1]:
                    raise ControlError(
                        f"chord_schedule steps must increase within bar {a[0]}"
                    )
            if 0 <= bars <= normalized[-1][0]:
                raise ControlError(
                    f"chord_schedule refers to bar {normalized[-1][0]} but only "
                    f"{bars} bars are requested"
                )
            object.__setattr__(self, "chord_schedule", tuple(normalized))
        for name in ("allowed_tracks", "forced_tracks"):
            value = getattr(self, name)
            if value is not None:
                try:
                    value = frozenset(value)
                except TypeError:
                    raise ControlError(f"{name} must be a collection of track names") from None
                object.__setattr__(self, name, value)
                for label in value:
                    if label not in TRACKS:
                        raise ControlError(f"unknown track {label!r} in {name}")
        if (
            self.allowed_tracks is not None
            and self.forced_tracks is not None
            and not self.forced_tracks <= self.allowed_tracks
        ):
            raise ControlError("forced_tracks must be a subset of allowed_tracks")

        # Attributes, not fields: ==, hash, repr and to_json see only the
        # inputs, and dataclasses.replace derives them afresh.  They are set
        # one by one: reading ``__dict__`` slows every later attribute read
        # on CPython (about 4x on 3.11), and the masks read them per step.
        allowed = TRACKS if self.allowed_tracks is None else self.allowed_tracks
        sec_ids = loop = schedule = None
        if self.sections is not None:
            sec_ids = tuple(map(SECTIONS.index, self.sections))
        if self.chords is not None:
            loop = tuple(map(CHORDS.index, self.chords))
        if self.chord_schedule is not None:
            by_bar: dict[int, list[tuple[int, int]]] = {}
            for bar, step, symbol in self.chord_schedule:
                by_bar.setdefault(bar, []).append((step, CHORDS.index(symbol)))
            schedule = {bar: tuple(v) for bar, v in by_bar.items()}
        for name, value in (
            ("genre_idx", GENRES.index(self.genre) if self.genre is not None else -1),
            ("bpm_idx", self.bpm_level if self.bpm_level is not None else -1),
            ("sec_ids", sec_ids),
            ("loop", loop),
            ("schedule", schedule),
            ("allowed", _track_bits(allowed)),
            ("forced", _track_bits(self.forced_tracks or ())),
            ("bars", bars),
        ):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # A copy or an unpickled spec is built from the inputs and lowers
        # itself, rather than through ``__dict__`` (see above).
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def sched_for(self, bar: int) -> tuple[tuple[int, int], ...] | None:
        """Forced (step, chord) list for a prompt bar; None means free."""
        if self.loop is not None:
            return ((0, self.loop[bar % len(self.loop)]),)
        if self.schedule is not None:
            return self.schedule.get(bar, ())
        return None

    @property
    def describe(self) -> str:
        """The controls as ``key=value`` pairs, for conflict reports."""
        return ", ".join(f"{k}={v}" for k, v in self.to_json().items()) or "none"

    @classmethod
    def from_json(cls, doc: dict) -> "ControlSpec":
        """Build from the control-file schema (see README: control files)."""
        if not isinstance(doc, dict):
            raise ControlError("control document must be a JSON object")
        unknown = sorted(doc.keys() - _CONTROL_KEYS)
        if unknown:
            raise ControlError(f"unknown control key(s) {unknown}")

        def array(key: str) -> list | None:  # None when absent or null
            value = doc.get(key)
            if value is not None and not isinstance(value, list):
                raise ControlError(f"{key} must be an array")
            return value

        structure = array("structure")
        runs = []
        for entry in structure or ():
            if not isinstance(entry, (list, tuple)) or len(entry) != 2:
                raise ControlError("structure entries must be [label, bars] pairs")
            label, bars = entry
            try:
                runs.append((label, as_whole(bars)))
            except ValueError:
                raise ControlError(f"bad bar count {bars!r} in structure") from None
        sections = None if structure is None else _sections(runs)
        return cls(
            genre=doc.get("genre"),
            bpm_level=doc.get("bpm_level"),
            sections=sections,
            chords=array("chords"),
            chord_schedule=array("chord_schedule"),
            allowed_tracks=array("tracks"),
            forced_tracks=array("forced_tracks"),
            n_bars=doc.get("n_bars"),
        )

    @classmethod
    def from_file(cls, path) -> "ControlSpec":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ControlError(f"control file: {exc}") from None
        return cls.from_json(doc)

    def to_json(self) -> dict:
        doc: dict = {}
        if self.genre is not None:
            doc["genre"] = self.genre
        if self.bpm_level is not None:
            doc["bpm_level"] = self.bpm_level
        if self.sections is not None:
            doc["structure"] = [[label, len(list(run))] for label, run in groupby(self.sections)]
        if self.chords is not None:
            doc["chords"] = list(self.chords)
        if self.chord_schedule is not None:
            doc["chord_schedule"] = [list(e) for e in self.chord_schedule]
        if self.allowed_tracks is not None:
            doc["tracks"] = sorted(self.allowed_tracks, key=TRACKS.index)
        if self.forced_tracks is not None:
            doc["forced_tracks"] = sorted(self.forced_tracks, key=TRACKS.index)
        if self.n_bars is not None:
            doc["n_bars"] = self.n_bars
        return doc


_NO_CONTROL = ControlSpec()

# The keys of the control-file schema: what ``to_json`` writes and
# ``from_json`` reads.
_CONTROL_KEYS = frozenset(
    ("genre", "bpm_level", "structure", "chords", "chord_schedule", "tracks", "forced_tracks",
     "n_bars")
)


def compile_control(control: ControlSpec | None) -> ControlSpec:
    """The control the mask code reads: ``control`` itself, or the empty
    control for None.  A ``ControlSpec`` lowers itself when it is built."""
    return _NO_CONTROL if control is None else control


class FsmState:
    """Decoding state owned by one sampling run.

    ``update_state`` advances it in place; a caller that needs an earlier
    state keeps a ``copy.copy`` of it (every slot holds an int, a bool or
    a tuple, so a shallow copy is independent).

    The private ``_offered`` slot holds the offer: the mask ``legal_ids``
    last computed for this state (0 for none), which ``update_state``
    accepts with one bit test.  Every advance resets it to 0, and a copy
    (shallow, deep or unpickled) starts without one.  Writing a public
    slot by hand voids the offer: call ``legal_ids`` again before
    advancing.
    """

    __slots__ = (
        "_offered",
        "phase",
        "in_prompt",
        "bar_index",
        "step",
        "last_position",
        "tracks_emitted",
        "group_count",
        "last_pitch",
        "last_drum",
        "genre",
        "cur_sec",
        "cur_bpm",
        "cur_chords",
        "prompt_bars",
    )

    def __init__(self):
        self._offered = 0
        self.phase = PH_GENRE
        self.in_prompt = True
        self.bar_index = 0
        self.step = 1  # tokens consumed so far; the start token is bar
        self.last_position = -1
        self.tracks_emitted = 0
        self.group_count = 0
        self.last_pitch = -1
        self.last_drum = -1
        self.genre = -1
        self.cur_sec = -1
        self.cur_bpm = -1
        self.cur_chords: tuple[tuple[int, int], ...] = ()
        self.prompt_bars: tuple[_PromptBar, ...] = ()

    @property
    def phase_name(self) -> str:
        return PHASE_NAMES[self.phase]

    @property
    def terminal(self) -> bool:
        return self.phase == PH_TERMINAL

    def describe(self) -> str:
        section = "prompt" if self.in_prompt else "song"
        return f"{self.phase_name} in {section} bar {self.bar_index}"

    def __repr__(self) -> str:
        return f"<FsmState step={self.step} {self.describe()}>"

    def __getstate__(self):
        # What ``copy.copy``, ``copy.deepcopy`` and pickle carry over.  A copy
        # may be tampered with, so it starts without the offer.
        slots = {name: getattr(self, name) for name in self.__slots__}
        slots["_offered"] = 0
        return None, slots


def _block(base: int, count: int) -> int:
    """Bitmask of the ``count`` ids starting at ``base``."""
    return ((1 << count) - 1) << base


class RuleSet:
    """Grammar productions compiled to integer bitmasks over the vocabulary
    (bit ``i`` set means id ``i`` is legal), plus a cache from each mask
    seen to its sorted id array."""

    def __init__(self):
        self.genres = _block(GENRE_BASE, len(GENRES))
        self.secs = _block(SEC_BASE, len(SECTIONS))
        self.bpms = _block(BPM_BASE, len(BPM_LABELS))
        self.chords = _block(CHORD_BASE, len(CHORDS))
        self.durations = _block(DUR_BASE, MAX_DURATION)
        self._ids: dict[int, np.ndarray] = {}

    def ids_of(self, bits: int) -> np.ndarray:
        """Ascending, read-only int64 ids of the set bits; cached per mask."""
        ids = self._ids.get(bits)
        if ids is None:
            packed = np.frombuffer(bits.to_bytes(_MASK_BYTES, "little"), dtype=np.uint8)
            ids = np.flatnonzero(np.unpackbits(packed, bitorder="little"))
            ids.flags.writeable = False
            self._ids[bits] = ids
        return ids


@lru_cache(maxsize=1)
def build_rules() -> RuleSet:
    return RuleSet()


def initial_state(control: ControlSpec | None = None) -> FsmState:
    """State after the start token ``bar``; the next token is bar 0's genre.

    The start state is the same under every control: a ``ControlSpec`` is
    checked when it is built, and the masks read it at each step.
    """
    return FsmState()


def _track_candidates(state: FsmState, cc: ControlSpec) -> int:
    if state.in_prompt:
        allowed = cc.allowed
    else:
        allowed = state.prompt_bars[state.bar_index].tracks & cc.allowed
    # fixed order: only tracks after every already-emitted one
    candidates = allowed & ~((1 << state.tracks_emitted.bit_length()) - 1)
    remaining_forced = cc.forced & ~state.tracks_emitted
    if remaining_forced:
        first_unmet = (remaining_forced & -remaining_forced).bit_length() - 1
        candidates &= (1 << (first_unmet + 1)) - 1
    return candidates


def _bar_end_bits(state: FsmState, cc: ControlSpec) -> int:
    if cc.forced & ~state.tracks_emitted:
        return 0
    if state.in_prompt:
        if cc.bars >= 0:
            return _BAR_BIT if state.bar_index < cc.bars - 1 else _EOP_BIT
        return _BAR_BIT | _EOP_BIT
    return _BAR_BIT if state.bar_index < len(state.prompt_bars) - 1 else _EOS_BIT


def _exits(state: FsmState, cc: ControlSpec) -> int:
    """Bits of the tokens that leave the current part: a next track or a bar end."""
    return _track_candidates(state, cc) << TRACK_BASE | _bar_end_bits(state, cc)


def _legal_bits(rules: RuleSet, state: FsmState, cc: ControlSpec) -> int:
    """Bitmask of the tokens legal in ``state``; 0 when the controls leave none."""
    ph = state.phase
    # Songs spend most steps in the note and drum phases, so they come first.
    if ph == PH_NOTE_DUR:
        return rules.durations
    if ph == PH_NOTE_PITCH:
        first = state.last_pitch + 1
        return _block(PITCH_BASE + first, N_PITCHES - first)
    if ph == PH_DRUM_KEY:
        first = state.last_drum + 1
        return _block(DRUM_BASE + first, _N_DRUMS - first)
    if ph == PH_NOTE_POS or ph == PH_DRUM_POS:
        bits = 0
        if state.group_count < MAX_NOTES_PER_PART:
            first = max(state.last_position, 0)
            bits = _block(POS_BASE + first, N_STEPS - first)
            last = state.last_pitch if ph == PH_NOTE_POS else state.last_drum
            if last >= (N_PITCHES if ph == PH_NOTE_POS else _N_DRUMS) - 1:
                bits &= ~(1 << (POS_BASE + state.last_position))
        if state.group_count >= 1:
            bits |= _exits(state, cc)
        return bits
    if ph == PH_BAR:
        return 1 << BAR_ID
    if ph == PH_GENRE:
        if state.genre >= 0:
            return 1 << (GENRE_BASE + state.genre)
        if cc.genre_idx >= 0:
            return 1 << (GENRE_BASE + cc.genre_idx)
        return rules.genres
    if ph == PH_SEC:
        if not state.in_prompt:
            return 1 << (SEC_BASE + state.prompt_bars[state.bar_index].sec)
        if cc.sec_ids is not None and state.bar_index < len(cc.sec_ids):
            return 1 << (SEC_BASE + cc.sec_ids[state.bar_index])
        return rules.secs
    if ph == PH_BPM:
        if not state.in_prompt:
            return 1 << (BPM_BASE + state.prompt_bars[state.bar_index].bpm)
        if cc.bpm_idx >= 0:
            return 1 << (BPM_BASE + cc.bpm_idx)
        return rules.bpms
    if ph == PH_CHORD_POS or ph == PH_CHORD_SYM:
        if state.in_prompt:
            sched = cc.sched_for(state.bar_index)
        else:
            sched = state.prompt_bars[state.bar_index].chords
        k = len(state.cur_chords)
        if ph == PH_CHORD_SYM:
            return rules.chords if sched is None else 1 << (CHORD_BASE + sched[k][1])
        if sched is None:
            first = state.cur_chords[-1][0] + 1 if state.cur_chords else 0
            return _block(POS_BASE + first, N_STEPS - first) | _exits(state, cc)
        if k < len(sched):
            return 1 << (POS_BASE + sched[k][0])
        return _exits(state, cc)
    if ph == PH_TRACK_START:
        return _exits(state, cc)
    raise ValueError("terminal state has no legal continuation")


def legal_ids(
    rules: RuleSet, state: FsmState, control: ControlSpec | None = None
) -> np.ndarray:
    """Ascending ids of the tokens legal in ``state`` under ``control``
    (None: the grammar alone).

    The array is shared between calls and read-only.  Raises
    ConstraintConflictError when controls empty the grammar mask.  The
    mask is left on ``state`` as its offer (0 after a conflict), so the
    next ``update_state`` accepts a token from it with one bit test.
    """
    cc = _NO_CONTROL if control is None else control
    state._offered = bits = _legal_bits(rules, state, cc)
    # A mask seen before is one lookup.  0 is never cached: ``ids_of`` is
    # reached only with a non-empty mask.
    ids = rules._ids.get(bits)
    if ids is not None:
        return ids
    if not bits:
        grammar = rules.ids_of(_legal_bits(rules, state, _NO_CONTROL))
        expects = sorted(
            {PHASE_NAMES[state.phase]} | {build_vocab().render(int(i)) for i in grammar[:8]}
        )
        raise ConstraintConflictError(
            state.step, f"{state.describe()} ({', '.join(expects)})", cc.describe
        )
    return rules.ids_of(bits)


def mask_for_state(
    rules: RuleSet, state: FsmState, control: ControlSpec | None = None
) -> np.ndarray:
    """Boolean mask over the vocabulary of tokens legal in ``state``.

    The result is freshly allocated and safe for the caller to modify.
    Raises ConstraintConflictError when controls empty the grammar mask.
    """
    mask = np.zeros(VOCAB_SIZE, dtype=bool)
    mask[legal_ids(rules, state, control)] = True
    return mask


def _close_bar(state: FsmState) -> None:
    if state.in_prompt:
        state.prompt_bars = state.prompt_bars + (
            _PromptBar(state.cur_sec, state.cur_bpm, state.cur_chords, state.tracks_emitted),
        )
    state.cur_sec = -1
    state.cur_bpm = -1
    state.cur_chords = ()
    state.tracks_emitted = 0
    state.group_count = 0
    state.last_position = -1
    state.last_pitch = -1
    state.last_drum = -1


def _illegal(state: FsmState, token) -> Exception:
    try:
        name = build_vocab().render(as_id(token))
    except ValueError:
        name = token  # as given
    return ValueError(
        f"illegal transition: token {name} in state {state.describe()} (step {state.step})"
    )


def update_state(rules: RuleSet, state: FsmState, token: int) -> FsmState:
    """Advance ``state`` in place by ``token`` and return it.

    ``token`` is accepted only when it is in the grammar mask of
    ``state``: the mask ``legal_ids`` gives with no control.  Every
    controlled mask is a subset of it, so a token in the mask that
    ``legal_ids`` last offered on ``state`` is accepted with one bit
    test; any other token gets the full grammar check.  Any token outside
    the grammar mask, and every token in the terminal state, raises
    ValueError before anything is written, leaving ``state`` as it was.
    An advance clears the offer.  ``token`` is an integer id of any type,
    a NumPy one included; a bool, or anything else that is not an integer
    in 0..335, is an illegal transition.
    """
    if type(token) is int:
        token_id = token
    else:
        try:
            token_id = as_id(token)
        except ValueError:
            raise _illegal(state, token) from None
    ph = state.phase
    if token_id < 0 or ph == PH_TERMINAL or not (
        state._offered >> token_id & 1
        or _legal_bits(rules, state, _NO_CONTROL) >> token_id & 1
    ):
        raise _illegal(state, token_id)
    state.step += 1
    state._offered = 0

    # The note and drum phases come first: most steps are in them, and their
    # grammar masks hold no bar, end or track token.
    if ph == PH_NOTE_DUR:
        state.phase = PH_NOTE_PITCH
    elif ph == PH_NOTE_PITCH:
        state.last_pitch = token_id - PITCH_BASE
        state.group_count += 1
        state.phase = PH_NOTE_POS
    elif ph == PH_DRUM_KEY:
        state.last_drum = token_id - DRUM_BASE
        state.group_count += 1
        state.phase = PH_DRUM_POS
    elif token_id == BAR_ID:
        _close_bar(state)
        state.bar_index += 1
        state.phase = PH_GENRE
    elif token_id == EOP_ID:
        _close_bar(state)
        state.in_prompt = False
        state.bar_index = -1
        state.phase = PH_BAR
    elif token_id == EOS_ID:
        _close_bar(state)
        state.phase = PH_TERMINAL
    elif TRACK_BASE <= token_id < TRACK_BASE + len(TRACKS):
        _enter_track(state, token_id - TRACK_BASE)
    elif ph == PH_GENRE:
        state.genre = token_id - GENRE_BASE
        state.phase = PH_SEC
    elif ph == PH_SEC:
        state.cur_sec = token_id - SEC_BASE
        state.phase = PH_BPM
    elif ph == PH_BPM:
        state.cur_bpm = token_id - BPM_BASE
        state.phase = PH_CHORD_POS
        state.last_position = -1
    elif ph == PH_CHORD_POS:
        state.last_position = token_id - POS_BASE
        state.phase = PH_CHORD_SYM
    elif ph == PH_CHORD_SYM:
        state.cur_chords = state.cur_chords + ((state.last_position, token_id - CHORD_BASE),)
        state.phase = PH_CHORD_POS
    elif ph == PH_NOTE_POS or ph == PH_DRUM_POS:
        step = token_id - POS_BASE
        if not (state.group_count and step == state.last_position):
            # a new group; a part holds notes or drums, so one of these is -1 already
            state.last_pitch = -1
            state.last_drum = -1
        state.last_position = step
        state.phase = PH_NOTE_DUR if ph == PH_NOTE_POS else PH_DRUM_KEY
    return state


def _enter_track(state: FsmState, track: int) -> None:
    state.tracks_emitted |= 1 << track
    state.group_count = 0
    state.last_position = -1
    state.last_pitch = -1
    state.last_drum = -1
    if state.in_prompt:
        state.phase = PH_TRACK_START
    elif track == _DRUMS_TRACK:
        state.phase = PH_DRUM_POS
    else:
        state.phase = PH_NOTE_POS


def replay(rules: RuleSet, seq: list[int], control: ControlSpec | None = None) -> FsmState:
    """Drive the machine over a full sequence (first token must be bar).

    Every token is checked against ``legal_ids`` under ``control`` before
    the machine advances, which makes this a completeness check for
    encoder output: an encoded song that satisfies ``control`` replays to
    the terminal state.  Raises ValueError at the first token outside the
    legal ids, an id outside the vocabulary included, and
    ConstraintConflictError where the controls leave none.
    """
    if not seq or seq[0] != BAR_ID:
        raise ValueError("sequence must start with the bar token")
    state = initial_state(control)
    for token_id in seq[1:]:
        if token_id not in legal_ids(rules, state, control):
            raise _illegal(state, token_id)
        state = update_state(rules, state, token_id)
    return state
