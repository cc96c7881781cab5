import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympac import sampler
from sympac.encoding import decode_sequence, encode_song, validate
from sympac.errors import ConstraintConflictError
from sympac.fsm import (
    ControlSpec,
    build_rules,
    compile_control,
    initial_state,
    legal_ids,
    parse_chords_arg,
    parse_structure_arg,
    update_state,
)
from sympac.lm import UniformModel, train_ngram
from sympac.sampler import SamplerConfig, SampleResult, constrained_sample
from sympac.vocab import BAR_ID, VOCAB_SIZE
from synthcorpus import FreshScores, OneBuffer, chord_corpus, control_specs

RULES = build_rules()


def test_renormalize_uniform_mass():
    ids = np.arange(10, 27)
    probs = sampler._masked_weights(np.zeros(VOCAB_SIZE), ids, 1.0, None, None)
    assert probs == pytest.approx(np.full(17, 1 / 17))
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_renormalize_zero_temperature_limit():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=VOCAB_SIZE)
    ids = np.arange(50, 90)
    # at 1e-320 the scores divided by the temperature would overflow
    for temperature in (1e-9, 1e-320):
        probs = sampler._masked_weights(scores, ids, temperature, None, None)
        assert probs[int(np.argmax(scores[50:90]))] == pytest.approx(1.0)


def test_top_k_one_equals_argmax():
    rng = np.random.default_rng(3)
    for _ in range(200):
        scores = rng.normal(size=VOCAB_SIZE)
        ids = np.sort(rng.choice(VOCAB_SIZE, size=rng.integers(2, 40), replace=False))
        via_top_k = sampler._masked_weights(scores, ids, 1.0, 1, None)
        via_temp = sampler._masked_weights(scores, ids, 1e-12, None, None)
        assert np.argmax(via_top_k) == np.argmax(via_temp)
        assert via_top_k[np.argmax(via_top_k)] == pytest.approx(1.0)


def test_top_p_keeps_smallest_sufficient_prefix():
    scores = np.full(VOCAB_SIZE, -np.inf)
    scores[:4] = np.log([0.5, 0.3, 0.15, 0.05])
    probs = sampler._masked_weights(scores, np.arange(4), 1.0, None, 0.79)
    assert probs[0] == pytest.approx(0.5 / 0.8)
    assert probs[1] == pytest.approx(0.3 / 0.8)
    assert probs[2] == probs[3] == 0.0


def test_mass_conservation_along_generation():
    rng = np.random.default_rng(4)
    for _ in range(100):
        scores = rng.normal(size=VOCAB_SIZE) * 3
        ids = np.sort(rng.choice(VOCAB_SIZE, size=rng.integers(1, 100), replace=False))
        probs = sampler._masked_weights(scores, ids, 0.7, 8, 0.9)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_uniform_sampling_is_sound():
    model = UniformModel()
    for seed in range(300):
        result = constrained_sample(model, RULES, None, SamplerConfig(rng_seed=seed))
        if not result.truncated:
            assert validate(result.tokens) == []


def test_determinism():
    model = UniformModel()
    a = constrained_sample(model, RULES, None, SamplerConfig(rng_seed=97))
    b = constrained_sample(model, RULES, None, SamplerConfig(rng_seed=97))
    assert a == SampleResult(tokens=b.tokens, truncated=b.truncated)
    c = constrained_sample(model, RULES, None, SamplerConfig(rng_seed=98))
    assert c.tokens != a.tokens


def test_genre_control_adhered():
    model = UniformModel()
    control = ControlSpec(genre="Rock")
    for seed in range(20):
        result = constrained_sample(model, RULES, control, SamplerConfig(rng_seed=seed))
        assert not result.truncated
        assert decode_sequence(result.tokens).genre == "Rock"


def test_singleton_masks_force_the_sequence():
    # with header, chords, and the single allowed+forced track all pinned,
    # two different models produce the same forced skeleton
    control = ControlSpec(
        genre="Jazz",
        bpm_level=0,
        sections=("verse",),
        chords=("C",),
        allowed_tracks=frozenset({"piano"}),
        forced_tracks=frozenset({"piano"}),
    )
    uniform = constrained_sample(UniformModel(), RULES, control, SamplerConfig(rng_seed=0))
    model = train_ngram([uniform.tokens], order=2)
    again = constrained_sample(model, RULES, control, SamplerConfig(rng_seed=0))
    skeleton = ["bar", "genre<Jazz>", "sec<verse>", "bpm_level<<82>",
                "position<0/16>", "chord<C:maj>", "track<piano>"]
    from sympac.vocab import build_vocab

    vocab = build_vocab()
    assert [vocab.render(t) for t in uniform.tokens[:7]] == skeleton
    assert [vocab.render(t) for t in again.tokens[:7]] == skeleton


def test_truncation_flag():
    result = constrained_sample(
        UniformModel(), RULES, None, SamplerConfig(rng_seed=1, max_tokens=5)
    )
    assert result.truncated and len(result.tokens) == 5


def test_default_config_fits_a_controlled_24_bar_song():
    # a 24-bar song under chord and structure controls runs to about
    # 2,400 tokens, so the default max_tokens must not cut it short
    corpus = [encode_song(song) for song in chord_corpus(np.random.default_rng(0), 12)]
    model = train_ngram(corpus, order=5)
    control = ControlSpec(
        genre="Pop",
        sections=parse_structure_arg("intro*4,verse*8,chorus*8,outro*4"),
        chords=parse_chords_arg("F,C,G,A:min"),
    )
    result = constrained_sample(model, RULES, control, SamplerConfig())
    assert not result.truncated
    assert len(decode_sequence(result.tokens).bars) == 24


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(temperature=0.0)
    with pytest.raises(ValueError, match="temperature"):
        SamplerConfig(temperature=float("nan"))
    with pytest.raises(ValueError):
        SamplerConfig(top_k=0)
    with pytest.raises(ValueError):
        SamplerConfig(top_p=1.5)
    with pytest.raises(ValueError, match="rng_seed"):
        SamplerConfig(rng_seed=-3)


@pytest.mark.parametrize("seed", [0, 1, 97, 2**32 - 1, 2**63 + 5])
def test_blocks_of_draws_equal_successive_scalar_draws(seed):
    # The sampler draws a song's doubles in blocks; this is the property of
    # numpy's default generator that keeps every stream as scalar draws made it.
    scalar = np.random.default_rng(seed)
    expected = [scalar.random() for _ in range(700)]
    blocks = np.random.default_rng(seed)
    drawn = []
    for size in (100, 256, 1, 343):  # block ends fall mid-way through each other
        drawn += blocks.random(size).tolist()
    assert drawn == expected


def test_a_song_longer_than_two_blocks_matches_the_reference():
    control = ControlSpec(chords=parse_chords_arg("F,C,G,A:min"), n_bars=48)
    config = SamplerConfig(rng_seed=31)
    result = constrained_sample(UniformModel(), RULES, control, config)
    assert len(result.tokens) > 2 * sampler._DRAW_BLOCK
    assert result == reference_sample(UniformModel(), RULES, control, config)


def test_every_step_calls_the_module_level_fsm_functions(monkeypatch):
    # Tracing replaces these two names on the sampler module; a sampler that
    # reached the functions through any other name would hide its steps.
    calls = {"legal_ids": 0, "update_state": 0}

    def counting(name):
        original = getattr(sampler, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(sampler, name, counting(name))
    control = ControlSpec(genre="Pop", chords=("C", "G"), n_bars=2)
    result = constrained_sample(UniformModel(), RULES, control, SamplerConfig(rng_seed=4))
    assert calls == dict.fromkeys(calls, len(result.tokens) - 1)


def test_sampler_respects_context_limit():
    # an order-2 model conditions on one token only; the run must still
    # terminate and validate because masks do the structural work
    corpus = [
        constrained_sample(UniformModel(), RULES, None, SamplerConfig(rng_seed=s)).tokens
        for s in range(5)
    ]
    model = train_ngram(corpus, order=2)
    result = constrained_sample(model, RULES, None, SamplerConfig(rng_seed=11))
    assert not result.truncated
    assert validate(result.tokens) == []


def reference_sample(model, rules, control, config):
    """`constrained_sample` without the step cache or the draw buffer:
    every scored step computes its distribution afresh, and every step
    makes its own scalar draw."""
    cc = compile_control(control)
    state = initial_state(control)
    rng = np.random.default_rng(config.rng_seed)
    seq = [BAR_ID]
    while not state.terminal:
        if len(seq) >= config.max_tokens:
            return SampleResult(seq, truncated=True)
        ids = legal_ids(rules, state, cc)
        if len(ids) == 1:
            rng.random()
            token = int(ids[0])
        else:
            weights = sampler._masked_weights(
                model.score(seq), ids, config.temperature, config.top_k, config.top_p
            )
            cumulative = weights.cumsum()
            r = rng.random() * cumulative[-1]
            token = int(ids[cumulative.searchsorted(r, side="right")])
        seq.append(token)
        state = update_state(rules, state, token)
    return SampleResult(seq, truncated=False)


def outcome(sample, model, control, config):
    try:
        return sample(model, RULES, control, config)
    except ConstraintConflictError as exc:
        return str(exc)


class NoWeakref:
    """A plug-in model that cannot be weakly referenced, returning shared
    read-only arrays."""

    __slots__ = ("model", "context_limit")

    def __init__(self, model):
        self.model = model
        self.context_limit = model.context_limit

    def score(self, context):
        return self.model.score(context)


CORPUS = [encode_song(song) for song in chord_corpus(np.random.default_rng(0), 6)]
# Shared by every example, so its cache is warm with earlier examples' steps.
SHARED = train_ngram(CORPUS, order=5)
MODELS = {
    "shared": lambda: SHARED,
    "uniform": UniformModel,
    "fresh": lambda: FreshScores(SHARED),
    "one_buffer": lambda: OneBuffer(SHARED),
    "no_weakref": lambda: NoWeakref(SHARED),
    "grown": lambda: train_ngram(CORPUS[:3], order=4),
}
sampler_settings = st.fixed_dictionaries(
    {},
    optional={
        "temperature": st.sampled_from([0.5, 1.0, 1.7]),
        "top_k": st.sampled_from([1, 2, 8, 40]),
        "top_p": st.sampled_from([0.3, 0.8, 1.0]),
    },
)


@settings(max_examples=80, deadline=None)
@given(
    control=control_specs(),
    kind=st.sampled_from(sorted(MODELS)),
    first=sampler_settings,
    then=sampler_settings,
    seed=st.integers(0, 2**32 - 1),
)
def test_step_cache_keeps_every_stream(control, kind, first, then, seed):
    model = MODELS[kind]()
    # warm the model under other settings and another seed first
    outcome(constrained_sample, model, control, SamplerConfig(rng_seed=seed ^ 1, max_tokens=800, **first))
    if kind == "grown":
        # new counts replace every score array the warm-up cached
        model.add_sequence(CORPUS[3])
    config = SamplerConfig(rng_seed=seed, max_tokens=800, **then)
    assert outcome(constrained_sample, model, control, config) == outcome(
        reference_sample, model, control, config
    )


def test_step_cache_lives_as_long_as_the_model():
    model = train_ngram(CORPUS, order=3)
    control = ControlSpec(chords=("C", "G"), n_bars=2)
    constrained_sample(model, RULES, control, SamplerConfig(rng_seed=5))
    (steps,) = sampler._STEP_CACHE[model].values()
    scores = next(iter(steps.values()))[0]  # a weak reference to the score array
    assert scores() is not None
    model_ref = weakref.ref(model)
    del steps
    gc.collect()
    held = len(sampler._STEP_CACHE)
    del model
    gc.collect()
    assert model_ref() is None
    assert len(sampler._STEP_CACHE) == held - 1
    assert scores() is None


def test_step_cache_drops_what_add_sequence_replaces():
    # Rounds of songs, each followed by one add_sequence: the cache must
    # not keep distributions of score arrays the model has dropped.
    songs = [encode_song(song) for song in chord_corpus(np.random.default_rng(0), 25)]
    model = train_ngram(songs[:20], order=5)
    control = ControlSpec(
        chords=parse_chords_arg("F,C,G,A:min"),
        sections=parse_structure_arg("verse*4,chorus*4"),
        genre="Pop",
    )
    for round_ in range(5):
        for seed in range(10):
            constrained_sample(model, RULES, control, SamplerConfig(rng_seed=10 * round_ + seed))
        assert any(sampler._STEP_CACHE[model].values())
        model.add_sequence(songs[20 + round_])
        assert not any(sampler._STEP_CACHE[model].values())


def test_a_tiny_temperature_samples():
    model = train_ngram(CORPUS, order=3)
    result = constrained_sample(model, RULES, None, SamplerConfig(temperature=1e-320, rng_seed=1))
    assert result.truncated or validate(result.tokens) == []


def test_uniform_scores_are_read_only():
    scores = UniformModel().score(())
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0] = 1.0
