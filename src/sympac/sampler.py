"""Constrained autoregressive sampling.

Each step intersects the model's distribution with the state machine's
legal sub-vocabulary: masked-out ids get zero probability, temperature
and top-k/top-p act only on the surviving ids, the result is
renormalized, one token is drawn, and the machine advances.  Filtering
after masking means high-probability illegal tokens can never starve
the constraint set.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .fsm import (
    PH_TERMINAL,
    ControlSpec,
    RuleSet,
    initial_state,
    legal_ids,
    update_state,
)
from .lm import NextTokenModel
from .vocab import BAR_ID, as_real, as_whole


# model -> {(temperature, top_k, top_p): {(id(scores), id(ids)): (weak
# reference to scores, ids, cumulative weights, legal ids)}}, the last two
# as Python lists.  An entry holds its id array, and the weak reference
# removes the entry when the score array is freed (before its memory can
# be reused), so neither id in a live key can name another array.  A model
# that drops its score arrays, as `NgramModel.add_sequence` does, drops
# their entries with them.
_STEP_CACHE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

# Uniforms a song draws from its generator at a time.  PCG64 fills a block
# with the doubles that successive scalar ``random()`` calls return, in the
# same order, so the block size moves no stream.
_DRAW_BLOCK = 256


@dataclass(frozen=True)
class SamplerConfig:
    """Sampling hyperparameters; output is reproducible from the seed.  Each
    is stored as the int ``vocab.as_whole`` or float ``vocab.as_real`` returns."""

    temperature: float = 1.0
    top_k: int | None = None
    top_p: float | None = None
    max_tokens: int = 20000
    rng_seed: int = 0

    def __post_init__(self):
        for name, rule, legal, bound in (
            ("temperature", as_real, lambda t: t > 0, "positive"),  # a NaN fails the test too
            ("top_k", as_whole, lambda k: k >= 1, ">= 1"),
            ("top_p", as_real, lambda p: 0 < p <= 1, "in (0, 1]"),
            ("max_tokens", as_whole, lambda n: n >= 2, ">= 2"),
            ("rng_seed", as_whole, lambda s: s >= 0, ">= 0"),
        ):
            value = getattr(self, name)
            if value is None and name in ("top_k", "top_p"):
                continue
            try:
                number = rule(value)
            except ValueError:
                kind = "an integer" if rule is as_whole else "a real number"
                raise ValueError(f"{name} must be {kind}, got {value!r}") from None
            if not legal(number):
                raise ValueError(f"{name} must be {bound}, got {number}")
            object.__setattr__(self, name, number)


@dataclass(slots=True)
class SampleResult:
    tokens: list[int]
    truncated: bool


def _masked_weights(
    scores: np.ndarray,
    ids: np.ndarray,
    temperature: float,
    top_k: int | None,
    top_p: float | None,
) -> np.ndarray:
    """Probabilities of the ids in ``ids``, in their order: softmax of
    ``scores / temperature`` over those ids, then top-k, then top-p, then
    renormalized to one."""
    logits = scores[ids]
    with np.errstate(over="ignore"):  # a tiny temperature overflows to inf, and exp(-inf) = 0
        weights = np.exp((logits - logits.max()) / temperature)
    if top_k is not None and top_k < len(ids):
        order = np.argsort(-weights, kind="stable")
        weights[order[top_k:]] = 0.0
    if top_p is not None and top_p < 1.0:
        order = np.argsort(-weights, kind="stable")
        cumulative = np.cumsum(weights[order]) / weights.sum()
        keep = int(np.searchsorted(cumulative, top_p, side="left")) + 1
        weights[order[keep:]] = 0.0
    return weights / weights.sum()


def _uniforms(rng: np.random.Generator):
    """The generator's doubles in order, drawn ``_DRAW_BLOCK`` at a time."""
    while True:
        yield from rng.random(_DRAW_BLOCK).tolist()


def constrained_sample(
    model: NextTokenModel,
    rules: RuleSet,
    control: ControlSpec | None = None,
    config: SamplerConfig | None = None,
) -> SampleResult:
    """Sample one token sequence under grammar and control constraints.

    Starts from the ``bar`` token, loops sample/advance until the
    machine reaches its terminal state, and stops early (flagging the
    result truncated) after ``max_tokens`` tokens.  Constraint
    conflicts from the state machine propagate with step context.

    Each step takes the next double of the song's generator, which the
    sampler draws in blocks, and walks the cumulative probabilities of
    the legal ids in ascending id order.  A step with a single legal id
    emits it without scoring the model but still consumes its double, so
    a seed gives the stream it would give if every step were scored.

    The cumulative probabilities of a step are a pure function of the
    score array, the legal-id array and the settings.  When the model
    returns a read-only score array, they are kept for as long as both
    the model and that array live, and reused whenever both arrays
    recur, so a hit draws from the very floats a miss would compute.
    """
    config = config or SamplerConfig()
    settings = (config.temperature, config.top_k, config.top_p)
    try:
        cache = _STEP_CACHE.setdefault(model, {}).setdefault(settings, {})
    except TypeError:  # the model cannot be weakly referenced or hashed
        cache = {}
    state = initial_state(control)
    max_tokens, score = config.max_tokens, model.score
    seq = [BAR_ID]
    # ``legal_ids`` and ``update_state`` are looked up on this module at each
    # step, so a wrapper set on it sees every call.
    for u in _uniforms(np.random.default_rng(config.rng_seed)):
        if state.phase == PH_TERMINAL:
            return SampleResult(seq, truncated=False)
        if len(seq) >= max_tokens:
            return SampleResult(seq, truncated=True)
        ids = legal_ids(rules, state, control)
        if len(ids) == 1:
            token = ids.item(0)
        else:
            scores = score(seq)
            key = (id(scores), id(ids))
            entry = cache.get(key)
            if entry is None:
                weights = _masked_weights(scores, ids, *settings)
                entry = (scores, ids, weights.cumsum().tolist(), ids.tolist())
                if not scores.flags.writeable:
                    ref = weakref.ref(scores, lambda _, key=key: cache.pop(key, None))
                    cache[key] = (ref, *entry[1:])
            _, _, cumulative, tokens = entry
            token = tokens[bisect_right(cumulative, u * cumulative[-1])]
        seq.append(token)
        state = update_state(rules, state, token)
