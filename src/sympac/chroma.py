"""Chroma-template chord detection for generated bars.

A 12-dimensional pitch-class template is learned per chord class (major
and minor) by rotating each labeled region's chroma to a common root and
averaging.  Detection scores a bar's chroma against all 24 root-rotated
templates by cosine similarity and reports the best, falling back to N
for silent bars or weak matches.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError
from .ingest import GridBar, GridSong
from .vocab import N_STEPS, NO_CHORD, ROOTS, chord_quality, chord_root_index

DEFAULT_THRESHOLD = 0.5
_CLASSES = ("maj", "min")


@dataclass(frozen=True)
class TemplateBank:
    """L2-normalized 12-d chroma template per chord class."""

    maj: np.ndarray
    min: np.ndarray

    def template(self, quality: str) -> np.ndarray:
        if quality == "maj":
            return self.maj
        if quality == "min":
            return self.min
        raise KeyError(quality)

    def to_json(self) -> dict:
        return {"maj": [float(x) for x in self.maj], "min": [float(x) for x in self.min]}

    @classmethod
    def from_json(cls, doc: dict) -> "TemplateBank":
        """The bank a ``to_json`` document holds; keys other than ``maj``
        and ``min``, such as the ``N`` of older files, are ignored."""
        if not isinstance(doc, dict):
            raise ValidationError("template bank must be a JSON object")

        def vec(key: str) -> np.ndarray:
            values = doc.get(key)
            if isinstance(values, list) and len(values) == 12:
                if all(type(x) in (int, float) for x in values):
                    with np.errstate(over="ignore"):  # an overflow is an inf norm, rejected below
                        norm = float(np.linalg.norm(values))
                    if 0 < norm < math.inf:  # false for a NaN or infinite entry too
                        return np.asarray(values, dtype=float) / norm
            raise ValidationError(f"template {key!r} must be 12 finite numbers, not all zero")

        return cls(maj=vec("maj"), min=vec("min"))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2)

    @classmethod
    def load(cls, path) -> "TemplateBank":
        with open(path, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ParseError(f"template bank {path}: {exc}") from None
        return cls.from_json(doc)


def _unit(v: np.ndarray) -> np.ndarray:
    return v / float(np.linalg.norm(v))


def ideal_bank() -> TemplateBank:
    """Root-position triad templates; exact on synthetic triads."""
    maj = np.zeros(12)
    maj[[0, 4, 7]] = 1.0
    minor = np.zeros(12)
    minor[[0, 3, 7]] = 1.0
    return TemplateBank(maj=_unit(maj), min=_unit(minor))


def bar_chroma(bar: GridBar, lo: int = 0, hi: int = N_STEPS) -> np.ndarray:
    """Duration-weighted pitch-class mass of a bar's melodic notes whose
    onset step lies in ``[lo, hi)``; the defaults take the whole bar."""
    chroma = np.zeros(12)
    for notes in bar.tracks.values():
        for note in notes:
            if lo <= note.step < hi:
                chroma[note.pitch % 12] += note.duration
    return chroma


def learn_templates(labeled_bars: list[tuple[GridBar, list[str]]]) -> TemplateBank:
    """Learn class templates from (bar, chord symbol per beat) examples.

    Each labeled beat region's chroma is rotated by minus its root so
    all examples of a class align; templates are the normalized sums.
    Symbols outside {maj, min, N} are ignored; N regions teach nothing.
    """
    accum = {c: np.zeros(12) for c in _CLASSES}
    for bar, symbols in labeled_bars:
        n_beats = len(symbols)
        if n_beats == 0:
            continue
        for b, symbol in enumerate(symbols):
            if symbol == NO_CHORD:
                continue
            quality = chord_quality(symbol)
            if quality not in _CLASSES:
                continue
            lo = b * N_STEPS // n_beats
            hi = (b + 1) * N_STEPS // n_beats
            chroma = bar_chroma(bar, lo, hi)
            if chroma.any():
                accum[quality] += np.roll(chroma, -chord_root_index(symbol))
    missing = [c for c in _CLASSES if not accum[c].any()]
    if missing:
        raise ValidationError(f"no labeled examples for class(es): {', '.join(missing)}")
    return TemplateBank(maj=_unit(accum["maj"]), min=_unit(accum["min"]))


# _ROTATIONS[r] indexes a template rotated up r semitones:
# template[_ROTATIONS[r]] equals np.roll(template, r).
_ROTATIONS = (np.arange(12) - np.arange(12)[:, None]) % 12
_SYMBOLS = tuple(f"{ROOTS[root]}:{quality}" for quality in _CLASSES for root in range(12))


def _detect(chromas: np.ndarray, bank: TemplateBank | None, threshold: float) -> list[str]:
    """Detected symbol for each row of an (n, 12) chroma array."""
    bank = bank or ideal_bank()
    templates = np.concatenate([bank.template(q)[_ROTATIONS] for q in _CLASSES])
    norms = np.linalg.norm(chromas, axis=1)
    silent = norms == 0
    scores = (chromas / np.where(silent, 1.0, norms)[:, None]) @ templates.T
    best = np.argmax(scores > scores.max(axis=1, keepdims=True) - 1e-12, axis=1)
    return [
        NO_CHORD if quiet or row[k] < threshold else _SYMBOLS[k]
        for row, k, quiet in zip(scores, best, silent)
    ]


def detect_chord(
    chroma: np.ndarray,
    bank: TemplateBank | None = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> str:
    """Best of the 24 root-rotated class templates by cosine score.

    Returns N for a silent chroma or when the best score falls below
    the threshold.  Scores within 1e-12 of the best tie, and ties go to
    the first template in the order C:maj .. B:maj, C:min .. B:min:
    major before minor, then the lower root.
    """
    return _detect(np.asarray(chroma, dtype=float)[None, :], bank, threshold)[0]


def detect_bar_chords(song: GridSong, bank: TemplateBank | None = None) -> list[str]:
    """Detected chord symbol for every bar of a song."""
    chromas = np.array([bar_chroma(bar) for bar in song.bars]).reshape(-1, 12)
    return _detect(chromas, bank, DEFAULT_THRESHOLD)


def chord_accuracy(
    generated: list[GridSong],
    progression: list[str] | tuple[str, ...],
    bank: TemplateBank | None = None,
) -> tuple[float | None, int]:
    """Fraction of bars whose detected chord equals the intended one.

    The progression loops one chord per bar: bar i of every song intends
    ``progression[i % len(progression)]``, so a per-bar list is a loop as
    long as the song.  Bars whose intended chord is N are excluded.
    Returns ``(accuracy, bars_scored)``; the accuracy is None when no bar
    was scored.
    """
    if not progression:
        raise ValidationError("empty chord progression")
    matched = 0
    counted = 0
    for song in generated:
        for i, got in enumerate(detect_bar_chords(song, bank)):
            want = progression[i % len(progression)]
            if want == NO_CHORD:
                continue
            counted += 1
            matched += want == got
    return (matched / counted if counted else None), counted
