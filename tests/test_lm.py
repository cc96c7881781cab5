import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympac.errors import ModelFormatError, SympacError
from sympac.lm import (
    NgramModel,
    UniformModel,
    _logsumexp,
    load_model,
    perplexity,
    save_model,
    train_ngram,
)
from sympac.vocab import VOCAB_SIZE
from synthcorpus import FreshScores, OneBuffer, damaged


def brute_force_probability(corpus, order, discount, context, token):
    """Direct evaluation of the interpolated absolute-discount formula
    from raw window counts, independent of the model's tables."""
    def counts_for(ctx):
        totals = {}
        k = len(ctx)
        for seq in corpus:
            for i in range(k, len(seq)):
                if tuple(seq[i - k : i]) == ctx:
                    totals[seq[i]] = totals.get(seq[i], 0) + 1
        return totals

    p = 1.0 / VOCAB_SIZE
    ctx = tuple(context[-(order - 1):]) if order > 1 else ()
    for k in range(order):
        if k > len(ctx):
            break
        key = ctx[len(ctx) - k:] if k else ()
        slot = counts_for(key)
        if not slot:
            break
        total = sum(slot.values())
        p *= discount * len(slot) / total
        p += max(slot.get(token, 0) - discount, 0.0) / total
    return p


def test_bigram_smoothing_matches_closed_form():
    corpus = [[7, 8, 7, 8, 7, 8]]
    model = train_ngram(corpus, order=2, discount=0.5)
    probs = model.probabilities([7])
    # P1(8) = (3-0.5)/6 + (0.5*2/6)/336 ; P(8|7) = (3-0.5)/3 + (0.5*1/3)*P1(8)
    p1 = 2.5 / 6 + (0.5 * 2 / 6) * (1 / VOCAB_SIZE)
    expected = 2.5 / 3 + (0.5 * 1 / 3) * p1
    assert probs[8] == pytest.approx(expected, abs=1e-12)
    assert probs[8] > 0.9


def test_matches_brute_force_on_random_corpora():
    rng = np.random.default_rng(13)
    corpus = [list(rng.integers(0, 30, size=rng.integers(4, 25))) for _ in range(8)]
    model = train_ngram(corpus, order=3, discount=0.4)
    for _ in range(60):
        context = list(rng.integers(0, 30, size=rng.integers(0, 5)))
        token = int(rng.integers(0, 30))
        expect = brute_force_probability(corpus, 3, 0.4, context, token)
        assert model.probabilities(context)[token] == pytest.approx(expect, abs=1e-12)


def test_unseen_context_backs_off():
    model = train_ngram([[1, 2, 3, 4]], order=3)
    assert np.array_equal(
        model.probabilities([200, 201]), model.probabilities([300, 201])
    )
    assert np.array_equal(model.probabilities([201]), model.probabilities([300, 201]))


def test_unigram_model_is_context_free():
    model = train_ngram([[5, 5, 9]], order=1)
    assert np.array_equal(model.probabilities([1, 2, 3]), model.probabilities([]))
    assert model.probabilities([])[5] > model.probabilities([])[9]


def test_distributions_normalize():
    rng = np.random.default_rng(21)
    corpus = [list(rng.integers(0, VOCAB_SIZE, size=50)) for _ in range(20)]
    model = train_ngram(corpus, order=5)
    for _ in range(300):
        context = list(rng.integers(0, VOCAB_SIZE, size=rng.integers(0, 9)))
        assert abs(model.probabilities(context).sum() - 1.0) < 1e-9
        scores = model.score(context)
        assert np.isfinite(scores).all()


def test_scores_are_log_probabilities():
    model = train_ngram([[1, 2, 3]], order=2)
    context = [1]
    assert np.exp(model.score(context)) == pytest.approx(
        model.probabilities(context), rel=1e-12
    )


def test_uniform_model():
    model = UniformModel()
    scores = model.score([1, 2, 3])
    assert (scores == scores[0]).all()
    assert model.context_limit == 0


def test_context_limit_respected():
    model = train_ngram([[1, 2, 3, 4, 5, 6]], order=3)
    assert model.context_limit == 2
    long_ctx = [9, 9, 9, 9, 2, 3]
    short_ctx = [2, 3]
    assert np.array_equal(model.probabilities(long_ctx), model.probabilities(short_ctx))


def test_train_rejects_bad_inputs():
    with pytest.raises(ValueError):
        train_ngram([], order=2)
    with pytest.raises(ValueError):
        train_ngram([[1]], order=0)
    with pytest.raises(ValueError):
        train_ngram([[1]], order=9)
    with pytest.raises(ValueError):
        NgramModel(order=2, discount=0.0)


def test_save_load_round_trip():
    rng = np.random.default_rng(41)
    corpus = [list(rng.integers(0, VOCAB_SIZE, size=30)) for _ in range(10)]
    model = train_ngram(corpus, order=4, discount=0.3)
    again = load_model(save_model(model))
    assert again.order == 4
    assert again.discount == pytest.approx(0.3)
    for _ in range(100):
        context = list(rng.integers(0, VOCAB_SIZE, size=rng.integers(0, 6)))
        assert np.array_equal(model.score(context), again.score(context))


def test_save_is_deterministic():
    model = train_ngram([[3, 1, 2, 1, 3]], order=3)
    assert save_model(model) == save_model(load_model(save_model(model)))


def test_load_rejects_corruption():
    blob = save_model(train_ngram([[1, 2, 3]], order=2))
    with pytest.raises(ModelFormatError, match="magic"):
        load_model(b"WRONG!!!" + blob[8:])
    with pytest.raises(ModelFormatError, match="truncated"):
        load_model(blob[:-3])
    with pytest.raises(ModelFormatError, match="trailing"):
        load_model(blob + b"\x00")


def test_load_rejects_context_id_outside_vocabulary():
    header = save_model(train_ngram([[1, 2, 3]], order=2))[:20]
    suffix = struct.pack("<BHQ", 0, 5, 1)  # context () -> 5, count 1
    entry = struct.pack("<BHHQ", 1, VOCAB_SIZE - 1, 5, 1)  # context (335,) -> 5, count 1
    good = load_model(header + struct.pack("<Q", 2) + suffix + entry)
    assert list(good.iter_counts()) == [((), 5, 1), ((VOCAB_SIZE - 1,), 5, 1)]
    bad = struct.pack("<BHHQ", 1, 400, 5, 1)
    with pytest.raises(ModelFormatError, match="corrupt count entry"):
        load_model(header + struct.pack("<Q", 2) + suffix + bad)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_model_bytes_load_or_raise_model_format_error(data):
    blob = save_model(train_ngram([[1, 2, 3, 2, 1], [4, 2, 3]], order=3))
    try:
        load_model(damaged(blob, data))
    except SympacError:
        pass


def test_tiny_model_round_trips():
    model = train_ngram([[42]], order=1)
    again = load_model(save_model(model))
    assert np.array_equal(model.score([]), again.score([]))


def test_perplexity_beats_uniform_on_training_data():
    rng = np.random.default_rng(51)
    corpus = [list(rng.integers(0, 20, size=40)) for _ in range(10)]
    model = train_ngram(corpus, order=4)
    assert perplexity(model, corpus) < perplexity(UniformModel(), corpus) == pytest.approx(VOCAB_SIZE)


def reference_perplexity(model, corpus):
    """The quadratic loop `perplexity` replaced: the whole prefix as the
    context and a fresh log-normalizer at every position."""
    total = 0.0
    count = 0
    for seq in corpus:
        seq = list(seq)
        for i, token in enumerate(seq):
            scores = model.score(seq[:i])
            logp = scores - _logsumexp(scores)
            total += float(logp[token])
            count += 1
    return float(np.exp(-total / count))


sequences = st.lists(st.lists(st.integers(0, 11), min_size=1, max_size=40), min_size=1, max_size=5)


@settings(max_examples=60, deadline=None)
@given(
    train=sequences,
    held_out=sequences,
    order=st.integers(1, 8),
    discount=st.floats(0.05, 0.95),
    kind=st.sampled_from(["ngram", "fresh", "one_buffer", "uniform"]),
)
def test_perplexity_is_bit_equal_to_the_full_prefix_loop(train, held_out, order, discount, kind):
    model = train_ngram(train, order=order, discount=discount)
    model = {
        "ngram": model,
        "fresh": FreshScores(model),
        "one_buffer": OneBuffer(model),
        "uniform": UniformModel(),
    }[kind]
    for corpus in (train, held_out):
        assert perplexity(model, corpus) == reference_perplexity(model, corpus)


def test_adding_pinned_sequence_raises_its_ngram_probabilities():
    # A concrete monotonicity instance: every context in the added
    # sequence continues to a single token inside it (period-2 pattern),
    # so each of its n-gram probabilities may only move up.
    rng = np.random.default_rng(61)
    base = [list(rng.integers(0, 12, size=30)) for _ in range(6)]
    added = [3, 7] * 10
    before = train_ngram(base, order=3)
    after = train_ngram(base + [added], order=3)
    for i in range(2, len(added)):
        ctx = added[max(0, i - 2) : i]
        token = added[i]
        assert after.probabilities(ctx)[token] >= before.probabilities(ctx)[token] - 1e-12


def test_cached_score_is_the_log_of_probabilities():
    rng = np.random.default_rng(71)
    corpus = [list(rng.integers(0, 25, size=rng.integers(5, 40))) for _ in range(10)]
    model = train_ngram(corpus, order=4)
    for _ in range(300):
        context = list(rng.integers(0, 30, size=rng.integers(0, 8)))
        expect = np.log(model.probabilities(context))
        # twice: the first call fills the cache, the second reads it
        assert np.array_equal(model.score(context), expect)
        assert np.array_equal(model.score(context), expect)


def test_cached_score_is_read_only_and_shared_by_seen_suffix():
    model = train_ngram([[1, 2, 3, 4, 5]], order=3)
    scores = model.score([2, 3])
    assert not scores.flags.writeable
    with pytest.raises(ValueError):
        scores[0] = 0.0
    # [9, 3] backs off to the seen suffix (3,), as does [3]
    assert model.score([9, 3]) is model.score([3])


def test_score_follows_add_sequence():
    model = NgramModel(order=2)
    model.add_sequence([4, 5])
    before = model.score([4]).copy()
    model.add_sequence([4, 6, 4, 6])
    after = model.score([4])
    assert not np.array_equal(before, after)
    assert np.array_equal(after, np.log(model.probabilities([4])))
    assert after[6] > before[6]


def model_file(order, discount, triples):
    """A model file of (context, id, count) triples, laid out by hand."""
    out = b"SYMLM001" + struct.pack("<IdQ", order, discount, len(triples))
    for ctx, nxt, count in triples:
        out += struct.pack(f"<B{len(ctx)}HHQ", len(ctx), *ctx, nxt, count)
    return out


def reference_model_bytes(corpus, order, discount=0.5):
    """The file of a model counted window by window into one dict per
    context length, independent of `NgramModel`'s tables."""
    levels = [{} for _ in range(order)]
    for seq in corpus:
        for k in range(order):
            for i in range(k, len(seq)):
                slot = levels[k].setdefault(tuple(seq[i - k : i]), {})
                slot[seq[i]] = slot.get(seq[i], 0) + 1
    triples = [
        (ctx, nxt, level[ctx][nxt]) for level in levels for ctx in sorted(level)
        for nxt in sorted(level[ctx])
    ]
    return model_file(order, discount, triples)


@pytest.mark.parametrize("order", range(1, 9))
def test_model_bytes_match_the_reference_counter_on_the_golden_corpus(order):
    from sympac.encoding import encode_song
    from synthcorpus import chord_corpus

    corpus = [encode_song(s) for s in chord_corpus(np.random.default_rng(0), 20)]
    blob = save_model(train_ngram(corpus, order=order))
    assert blob == reference_model_bytes(corpus, order)
    assert save_model(load_model(blob)) == blob


@settings(max_examples=100, deadline=None)
@given(
    corpus=st.lists(
        st.lists(st.integers(0, 5) | st.integers(0, VOCAB_SIZE - 1), max_size=12),
        min_size=1,
        max_size=5,
    ),
    order=st.integers(1, 8),
)
def test_model_bytes_match_the_reference_counter(corpus, order):
    # Sequences shorter than the order, empty ones included, count only
    # the windows that fit.
    blob = save_model(train_ngram(corpus, order=order))
    assert blob == reference_model_bytes(corpus, order)
    one_by_one = NgramModel(order)
    for seq in corpus:
        one_by_one.add_sequence(seq)
    assert save_model(one_by_one) == blob
    assert save_model(load_model(blob)) == blob


def test_load_rejects_triples_save_model_cannot_write():
    triples = [((), 3, 2), ((), 7, 1), ((3,), 7, 1)]  # bytes 28, 39, 50; 63 is the end
    assert save_model(load_model(model_file(3, 0.5, triples))) == model_file(3, 0.5, triples)
    cases = {
        "a repeated triple": (triples + triples[2:], "out of order at byte 63"),
        "two ids out of order": ([triples[1], triples[0], triples[2]], "out of order at byte 39"),
        "a shorter context after a longer": ([triples[0], triples[2], triples[1]], "out of order at byte 52"),
        "a context without its suffix": (triples + [((4, 9), 7, 1)], "without its suffix at byte 63"),
        "no empty context": ([((3,), 7, 1)], "without its suffix at byte 28"),
    }
    for name, (bad, message) in cases.items():
        with pytest.raises(ModelFormatError, match=message):
            load_model(model_file(3, 0.5, bad))
            pytest.fail(name)
