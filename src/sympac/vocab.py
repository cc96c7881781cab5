"""Token vocabulary for the bar-based multi-track music encoding.

The vocabulary is a fixed bijection between 336 token values and the
contiguous ids 0..335.  Kind blocks appear in a fixed order and each
block enumerates its options in their printed order, so ids are stable
across runs and platforms.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from functools import lru_cache

SECTIONS = ("silence", "intro", "verse", "chorus", "inst", "bridge", "outro")

BPM_LABELS = (
    "<82",
    "[82,96)",
    "[96,110)",
    "[110,120)",
    "[120,125)",
    "[125,132)",
    "[132,143)",
    ">=143",
)
# Left-closed bucket edges; bucket i covers [BPM_EDGES[i-1], BPM_EDGES[i]).
BPM_EDGES = (82.0, 96.0, 110.0, 120.0, 125.0, 132.0, 143.0)
# Representative tempo per bucket, used when a bucket must become a number
# again (open-ended buckets get a nearby interior value).
BPM_BUCKET_MIDPOINTS = (76.0, 89.0, 103.0, 115.0, 122.5, 128.5, 137.5, 150.0)

GENRES = (
    "Blues",
    "Childhood",
    "Classical",
    "Country",
    "Easy_Listening",
    "Electronic",
    "Experimental",
    "Folk",
    "Hip_Hop/Rap",
    "Jazz",
    "Latin",
    "Metal",
    "New_Age",
    "Pop",
    "R&B/Soul",
    "Reggae",
    "Rock",
)

ROOTS = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
QUALITIES = ("maj", "min", "sus2", "sus4", "aug", "dim")
CHORDS = tuple(f"{root}:{quality}" for quality in QUALITIES for root in ROOTS) + ("N",)
NO_CHORD = "N"

TRACKS = ("vocal", "piano", "guitar", "bass", "drums")
MELODIC_TRACKS = TRACKS[:4]

N_STEPS = 16
MAX_DURATION = 32
N_PITCHES = 128
DRUM_KEY_MIN = 35
DRUM_KEY_MAX = 81
N_DRUM_KEYS = DRUM_KEY_MAX - DRUM_KEY_MIN + 1

# Id block layout.  Order of kinds is fixed; do not reorder.
BAR_ID = 0
EOP_ID = 1
EOS_ID = 2
SEC_BASE = 3
BPM_BASE = SEC_BASE + len(SECTIONS)            # 10
GENRE_BASE = BPM_BASE + len(BPM_LABELS)        # 18
POS_BASE = GENRE_BASE + len(GENRES)            # 35
CHORD_BASE = POS_BASE + N_STEPS                # 51
TRACK_BASE = CHORD_BASE + len(CHORDS)          # 124
PITCH_BASE = TRACK_BASE + len(TRACKS)          # 129
DUR_BASE = PITCH_BASE + N_PITCHES              # 257
DRUM_BASE = DUR_BASE + MAX_DURATION            # 289
VOCAB_SIZE = DRUM_BASE + N_DRUM_KEYS           # 336

@dataclass(frozen=True, slots=True)
class Token:
    """One token value: a kind plus its option, if the kind has options."""

    kind: str
    value: object = None

    def render(self) -> str:
        if self.value is None:
            return self.kind
        if self.kind == "position":
            return f"position<{self.value}/16>"
        if self.kind == "duration":
            return f"duration<{self.value}/16>"
        return f"{self.kind}<{self.value}>"

    def __str__(self) -> str:
        return self.render()


def sec_id(label: str) -> int:
    return SEC_BASE + SECTIONS.index(label)


def bpm_id(bucket: int) -> int:
    if not 0 <= bucket < len(BPM_LABELS):
        raise ValueError(f"bpm bucket out of range: {bucket}")
    return BPM_BASE + bucket


def genre_id(label: str) -> int:
    return GENRE_BASE + GENRES.index(label)


def position_id(step: int) -> int:
    if not 0 <= step < N_STEPS:
        raise ValueError(f"step out of range: {step}")
    return POS_BASE + step


def chord_id(symbol: str) -> int:
    return CHORD_BASE + CHORDS.index(symbol)


def track_id(label: str) -> int:
    return TRACK_BASE + TRACKS.index(label)


def pitch_id(key: int) -> int:
    if not 0 <= key < N_PITCHES:
        raise ValueError(f"pitch out of range: {key}")
    return PITCH_BASE + key


def duration_id(length: int) -> int:
    if not 1 <= length <= MAX_DURATION:
        raise ValueError(f"duration out of range: {length}")
    return DUR_BASE + length - 1


def drum_id(key: int) -> int:
    if not DRUM_KEY_MIN <= key <= DRUM_KEY_MAX:
        raise ValueError(f"drum key out of range: {key}")
    return DRUM_BASE + key - DRUM_KEY_MIN


def _build_tokens() -> tuple[Token, ...]:
    tokens = [Token("bar"), Token("end_of_prompt"), Token("end_of_song")]
    tokens += [Token("sec", s) for s in SECTIONS]
    tokens += [Token("bpm_level", b) for b in BPM_LABELS]
    tokens += [Token("genre", g) for g in GENRES]
    tokens += [Token("position", i) for i in range(N_STEPS)]
    tokens += [Token("chord", c) for c in CHORDS]
    tokens += [Token("track", t) for t in TRACKS]
    tokens += [Token("pitch", p) for p in range(N_PITCHES)]
    tokens += [Token("duration", d) for d in range(1, MAX_DURATION + 1)]
    tokens += [Token("drum", k) for k in range(DRUM_KEY_MIN, DRUM_KEY_MAX + 1)]
    return tuple(tokens)


class Vocab:
    """Bijection between Token values and ids 0..335."""

    def __init__(self) -> None:
        self._tokens = _build_tokens()
        assert len(self._tokens) == VOCAB_SIZE
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        self._by_name = {tok.render(): i for i, tok in enumerate(self._tokens)}

    @property
    def total_size(self) -> int:
        return VOCAB_SIZE

    def id_of(self, token: Token) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise ValueError(f"not a vocabulary token: {token!r}") from None

    def token_of(self, token_id: int) -> Token:
        if not 0 <= token_id < VOCAB_SIZE:
            raise ValueError(f"token id out of range: {token_id}")
        return self._tokens[token_id]

    def id_of_name(self, name: str) -> int:
        """Id of a token given its text rendering, e.g. ``chord<C:maj>``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown token name: {name!r}") from None

    def render(self, token_id: int) -> str:
        return self.token_of(token_id).render()

    def __len__(self) -> int:
        return VOCAB_SIZE

    def __iter__(self):
        return iter(self._tokens)


@lru_cache(maxsize=1)
def build_vocab() -> Vocab:
    """The fixed 336-entry vocabulary, built once and shared."""
    return Vocab()


def as_whole(value) -> int:
    """``value`` as a Python int: an integer of any type, NumPy's included, or
    an integral float of any type.  Anything else, a bool too, raises ValueError."""
    if type(value) is int:
        return value
    real = isinstance(value, numbers.Real) and type(value) is not bool
    if not (real and float(value).is_integer()):  # false for a NaN or an infinity too
        raise ValueError(f"not a whole number: {value!r}")
    return int(value)


def as_real(value) -> float:
    """``value`` as a Python float: an int or a float of any type, NumPy's
    included, but not a bool.  Anything else raises ValueError."""
    if not (type(value) is float or (isinstance(value, numbers.Real) and type(value) is not bool)):
        raise ValueError(f"not a real number: {value!r}")
    return float(value)


_WHOLE_TEXT = re.compile(r"[+-]?[0-9]+")
_REAL_TEXT = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")


def parse_whole(text: str) -> int:
    """The whole number ``text`` writes: ASCII digits with an optional sign, as
    in ``12`` or ``-3``.  A digit separator, a space, a non-ASCII digit or an
    exponent raises ValueError."""
    if not _WHOLE_TEXT.fullmatch(text):
        raise ValueError(f"not a whole number: {text!r}")
    return int(text)


def parse_real(text: str) -> float:
    """The finite real number ``text`` writes as an ASCII decimal literal, as in
    ``0.9``, ``.5``, ``2`` or ``1e-3``.  ``nan``, ``inf``, a literal too large
    for a float, a digit separator or a space raises ValueError."""
    if _REAL_TEXT.fullmatch(text):
        value = float(text)
        if math.isfinite(value):
            return value
    raise ValueError(f"not a real number: {text!r}")


def as_id(value) -> int:
    """``value`` as a token id: an integer in 0..335 of any type, NumPy's
    included, but never a bool or a float.  Anything else raises ValueError."""
    token_id = value
    if type(value) is not int:
        integer = isinstance(value, numbers.Integral) and not isinstance(value, bool)
        token_id = int(value) if integer else -1  # -1 fails the range test below
    if not 0 <= token_id < VOCAB_SIZE:
        raise ValueError(f"token ids must be integers in 0..{VOCAB_SIZE - 1}, got {value!r}")
    return token_id


def kind_of_id(token_id: int) -> str:
    """Token kind for an id; ValueError outside 0..335."""
    return build_vocab().token_of(token_id).kind


def chord_root(symbol: str) -> str:
    """Root name of a chord symbol; ``N`` has no root and maps to ``N``."""
    if symbol == NO_CHORD:
        return NO_CHORD
    return symbol.split(":", 1)[0]


def chord_quality(symbol: str) -> str:
    if symbol == NO_CHORD:
        return NO_CHORD
    return symbol.split(":", 1)[1]


def chord_root_index(symbol: str) -> int:
    """Semitone index 0..11 of a chord symbol's root."""
    return ROOTS.index(chord_root(symbol))


def normalize_chord_symbol(text: str) -> str:
    """Canonicalize user chord input: bare roots mean major, e.g. ``F`` -> ``F:maj``."""
    sym = text.strip()
    if not sym:
        raise ValueError("empty chord symbol")
    if sym in CHORDS:
        return sym
    if ":" not in sym and sym.upper() != "N":
        root = sym[0].upper() + sym[1:]
        candidate = f"{root}:maj"
        if candidate in CHORDS:
            return candidate
    if sym.upper() == "N":
        return NO_CHORD
    raise ValueError(f"unknown chord symbol: {text!r}")
