"""Next-token models: a pluggable interface, a uniform baseline, and an
interpolated absolute-discount n-gram model.

The n-gram model counts every context of length 0..n-1 within each
training sequence independently (no windows span sequence boundaries)
and smooths by absolute discounting with interpolation down to the
unigram level and finally a uniform floor, so every conditional
distribution sums to one and assigns positive mass everywhere.

The counts are one table, context -> {next id: count}, for contexts of
every length below the order; training, ``add_sequence`` and loading all
fill it from (context, id, count) triples.  A model file holds the
triples in strictly increasing (len(context), context, id) order.
"""

from __future__ import annotations

import struct
from collections import Counter
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from .errors import ModelFormatError
from .vocab import VOCAB_SIZE, as_real, as_whole

MODEL_MAGIC = b"SYMLM001"
DEFAULT_ORDER = 5
DEFAULT_DISCOUNT = 0.5
MAX_ORDER = 8

_Triple = tuple[tuple[int, ...], int, int]  # (context, next id, count)


class NextTokenModel(Protocol):
    """Anything that scores the next token given a context."""

    context_limit: int

    def score(self, context: Sequence[int]) -> np.ndarray:
        """336 finite log-scores; softmax gives the conditional distribution."""
        ...


class UniformModel:
    """Maximum-entropy baseline: every token equally likely."""

    context_limit = 0

    def __init__(self) -> None:
        self._scores = np.zeros(VOCAB_SIZE)
        self._scores.flags.writeable = False

    def score(self, context: Sequence[int]) -> np.ndarray:
        return self._scores


class NgramModel:
    """Interpolated absolute-discount n-gram model over the 336-token vocabulary.
    ``order`` passes ``vocab.as_whole`` and ``discount`` ``vocab.as_real``."""

    def __init__(self, order: int, discount: float = DEFAULT_DISCOUNT):
        order, discount = as_whole(order), as_real(discount)
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"order must be 1..{MAX_ORDER}, got {order}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {discount}")
        self.order = order
        self.discount = discount
        self.context_limit = order - 1
        # context of any length 0..order-1 -> {next id: count}
        self._counts: dict[tuple[int, ...], dict[int, int]] = {}
        # longest seen context suffix -> read-only log-probabilities
        self._scores: dict[tuple[int, ...], np.ndarray] = {}

    def _add(self, triples: Iterable[_Triple]) -> None:
        """Add (context, id, count) triples to the counts: the one writer."""
        self._scores.clear()
        counts = self._counts
        for ctx, nxt, count in triples:
            slot = counts.get(ctx)
            if slot is None:
                slot = counts[ctx] = {}
            slot[nxt] = slot.get(nxt, 0) + count

    def add_sequence(self, seq: Sequence[int]) -> None:
        self._add(_count_windows([list(seq)], self.order))

    def _longest_seen(self, context: Sequence[int]) -> tuple[int, ...]:
        """The longest suffix of the usable context that the counts hold.

        Every suffix of a seen context is seen too, so this suffix alone
        fixes the interpolated distribution.  An empty model gives ()."""
        ctx = tuple(context[-self.context_limit :]) if self.context_limit else ()
        for start in range(len(ctx)):
            key = ctx[start:]
            if key in self._counts:
                return key
        return ()

    def _interpolate(self, key: tuple[int, ...]) -> np.ndarray:
        p = np.full(VOCAB_SIZE, 1.0 / VOCAB_SIZE)
        for k in range(len(key) + 1):
            slot = self._counts.get(key[len(key) - k :])
            if slot is None:
                break
            total = sum(slot.values())
            p *= self.discount * len(slot) / total
            for nxt, count in slot.items():
                p[nxt] += (count - self.discount) / total
        return p

    def probabilities(self, context: Sequence[int]) -> np.ndarray:
        """Full conditional distribution over the vocabulary (a fresh array)."""
        return self._interpolate(self._longest_seen(context))

    def score(self, context: Sequence[int]) -> np.ndarray:
        """Log-probabilities; the array is cached per seen context, so it is
        shared between calls and read-only."""
        key = self._longest_seen(context)
        scores = self._scores.get(key)
        if scores is None:
            scores = np.log(self._interpolate(key))
            scores.flags.writeable = False
            self._scores[key] = scores
        return scores

    def iter_counts(self) -> Iterator[_Triple]:
        """All (context, id, count) triples in (len(context), context, id) order."""
        for ctx in sorted(self._counts, key=lambda c: (len(c), c)):
            slot = self._counts[ctx]
            for nxt in sorted(slot):
                yield ctx, nxt, slot[nxt]


def _count_windows(seqs: list[Sequence[int]], order: int) -> Iterator[_Triple]:
    """(context, id, count) for every window of 1..order ids in ``seqs``,
    each window length counted in one pass over the corpus."""
    for k in range(1, order + 1):
        windows: Counter = Counter()
        for seq in seqs:
            windows.update(zip(*(seq[j:] for j in range(k))))
        for window, count in windows.items():
            yield window[:-1], window[-1], count


def train_ngram(
    corpus: Iterable[Sequence[int]],
    order: int = DEFAULT_ORDER,
    discount: float = DEFAULT_DISCOUNT,
) -> NgramModel:
    """Count all length-<=order windows of every sequence and smooth."""
    model = NgramModel(order, discount)
    seqs = list(corpus)
    if not seqs:
        raise ValueError("training corpus is empty")
    model._add(_count_windows(seqs, model.order))
    return model


def save_model(model: NgramModel) -> bytes:
    triples = list(model.iter_counts())
    out = bytearray(MODEL_MAGIC + struct.pack("<IdQ", model.order, model.discount, len(triples)))
    for ctx, nxt, count in triples:
        out += struct.pack(f"<B{len(ctx)}HHQ", len(ctx), *ctx, nxt, count)
    return bytes(out)


def _read_counts(data: bytes, model: NgramModel) -> Iterator[_Triple]:
    """The triples of a model file in file order, each checked as read.
    They are being added to ``model``, so a context's suffix, which sorts
    before it, is in the counts by the time the context is read."""
    (n_triples,) = struct.unpack_from("<Q", data, 20)
    offset, last = 28, None
    for _ in range(n_triples):
        start = offset
        *ctx, nxt, count = struct.unpack_from(f"<{data[offset]}HHQ", data, offset + 1)
        ctx = tuple(ctx)
        offset += 11 + 2 * len(ctx)
        if len(ctx) >= model.order or max((nxt, *ctx)) >= VOCAB_SIZE or count < 1:
            raise ModelFormatError(f"corrupt count entry at byte {start}")
        if last is not None and (len(ctx), ctx, nxt) <= last:
            raise ModelFormatError(f"count entry out of order at byte {start}")
        if ctx and ctx[1:] not in model._counts:
            raise ModelFormatError(f"context without its suffix at byte {start}")
        last = (len(ctx), ctx, nxt)
        yield ctx, nxt, count
    if offset != len(data):
        raise ModelFormatError(f"trailing bytes after model data (byte {offset})")


def load_model(data: bytes) -> NgramModel:
    """The model ``save_model`` wrote as ``data``.  Any stream it cannot
    write raises ModelFormatError naming the byte, triples out of strictly
    increasing (len(context), context, id) order and a context whose
    one-shorter suffix is missing included."""
    if data[:8] != MODEL_MAGIC:
        raise ModelFormatError("bad magic; not a model file")
    try:
        model = NgramModel(*struct.unpack_from("<Id", data, 8))
        model._add(_read_counts(data, model))
    except (struct.error, IndexError) as exc:
        raise ModelFormatError(f"truncated model stream: {exc}") from None
    except ValueError as exc:
        raise ModelFormatError(str(exc)) from None
    return model


def save_model_file(model: NgramModel, path) -> None:
    with open(path, "wb") as fh:
        fh.write(save_model(model))


def load_model_file(path) -> NgramModel:
    with open(path, "rb") as fh:
        return load_model(fh.read())


def perplexity(model: NextTokenModel, corpus: Iterable[Sequence[int]]) -> float:
    """exp of the mean negative log-likelihood over every token position.

    Each position passes the model only its last ``context_limit``
    tokens, and the log-normalizer of a shared read-only score array is
    computed once, so the cost is linear in the corpus length."""
    total = 0.0
    count = 0
    # id(scores) -> (scores, log-normalizer); holding the array keeps its id
    lse_of: dict[int, tuple[np.ndarray, float]] = {}
    for seq in corpus:
        seq = list(seq)
        for i, token in enumerate(seq):
            scores = model.score(seq[max(0, i - model.context_limit) : i])
            entry = lse_of.get(id(scores))
            if entry is None:
                entry = (scores, _logsumexp(scores))
                if not scores.flags.writeable:
                    lse_of[id(scores)] = entry
            total += float(scores[token] - entry[1])
            count += 1
    if count == 0:
        raise ValueError("corpus has no tokens")
    return float(np.exp(-total / count))


def _logsumexp(x: np.ndarray) -> float:
    m = float(np.max(x))
    return m + float(np.log(np.sum(np.exp(x - m))))
