import pytest
from hypothesis import given, strategies as st

from sympac import vocab as v
from sympac.vocab import (
    BAR_ID,
    CHORDS,
    GENRES,
    SECTIONS,
    TRACKS,
    VOCAB_SIZE,
    Token,
    build_vocab,
    chord_root,
    chord_root_index,
    kind_of_id,
    normalize_chord_symbol,
)


def test_total_size_is_sum_of_option_counts():
    # 1 bar + 1 eop + 1 eos + 7 sec + 8 bpm + 17 genre + 16 pos + 73 chord
    # + 5 track + 128 pitch + 32 duration + 47 drum
    assert 1 + 1 + 1 + 7 + 8 + 17 + 16 + 73 + 5 + 128 + 32 + 47 == 336
    assert build_vocab().total_size == 336


def test_bar_is_id_zero():
    assert build_vocab().id_of(Token("bar")) == BAR_ID == 0


def test_option_counts():
    assert len(SECTIONS) == 7
    assert len(GENRES) == 17
    assert len(CHORDS) == 73
    assert len(TRACKS) == 5


@given(st.integers(min_value=0, max_value=VOCAB_SIZE - 1))
def test_bijection(token_id):
    vocab = build_vocab()
    token = vocab.token_of(token_id)
    assert vocab.id_of(token) == token_id
    assert vocab.id_of_name(vocab.render(token_id)) == token_id
    assert kind_of_id(token_id) == token.kind


def test_id_layout_matches_the_token_table():
    first: dict[str, int] = {}
    for token_id, token in enumerate(build_vocab()):
        first.setdefault(token.kind, token_id)
    assert first == {
        "bar": v.BAR_ID,
        "end_of_prompt": v.EOP_ID,
        "end_of_song": v.EOS_ID,
        "sec": v.SEC_BASE,
        "bpm_level": v.BPM_BASE,
        "genre": v.GENRE_BASE,
        "position": v.POS_BASE,
        "chord": v.CHORD_BASE,
        "track": v.TRACK_BASE,
        "pitch": v.PITCH_BASE,
        "duration": v.DUR_BASE,
        "drum": v.DRUM_BASE,
    }
    last_drum = max(i for i, token in enumerate(build_vocab()) if token.kind == "drum")
    assert VOCAB_SIZE == last_drum + 1 == len(list(build_vocab()))


@pytest.mark.parametrize("token_id", [-1, VOCAB_SIZE])
def test_kind_of_id_rejects_ids_outside_the_vocabulary(token_id):
    with pytest.raises(ValueError):
        kind_of_id(token_id)


def test_chord_token_round_trip():
    vocab = build_vocab()
    token = Token("chord", "C:maj")
    assert vocab.token_of(vocab.id_of(token)) == token


def test_renderings():
    vocab = build_vocab()
    assert vocab.render(vocab.id_of(Token("position", 3))) == "position<3/16>"
    assert vocab.render(vocab.id_of(Token("duration", 4))) == "duration<4/16>"
    assert vocab.render(vocab.id_of(Token("bpm_level", "[120,125)"))) == "bpm_level<[120,125)>"


def test_ids_out_of_range():
    vocab = build_vocab()
    with pytest.raises(ValueError):
        vocab.token_of(336)
    with pytest.raises(ValueError):
        vocab.id_of(Token("chord", "H:maj"))


def test_chord_roots():
    assert chord_root("A#:min") == "A#"
    assert chord_root("N") == "N"
    assert chord_root_index("D:sus2") == 2


@pytest.mark.parametrize(
    "raw,expected",
    [("F", "F:maj"), ("A:min", "A:min"), ("A#", "A#:maj"), ("n", "N"), ("G#:dim", "G#:dim")],
)
def test_normalize_chord_symbol(raw, expected):
    assert normalize_chord_symbol(raw) == expected


def test_normalize_rejects_garbage():
    with pytest.raises(ValueError):
        normalize_chord_symbol("H:maj")


def test_as_id_takes_an_integer_of_any_type_in_the_vocabulary():
    np = pytest.importorskip("numpy")
    for value in (0, 335, np.int64(18), np.uint16(335), np.int8(0)):
        token_id = v.as_id(value)
        assert type(token_id) is int and token_id == value
    for value in (np.bool_(True), np.float64(1.0), np.int64(-1)):
        with pytest.raises(ValueError, match="token ids must be integers"):
            v.as_id(value)


@pytest.mark.parametrize("value", [True, False, -1, 336, 1.0, "1", None, [1], 2**70])
def test_as_id_refuses_a_bool_a_non_integer_or_an_id_outside_the_vocabulary(value):
    with pytest.raises(ValueError, match=r"token ids must be integers in 0\.\.335, got "):
        v.as_id(value)
