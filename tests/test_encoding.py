import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympac.encoding import (
    decode_sequence,
    encode_song,
    iter_corpus,
    read_token_file,
    tokens_from_bytes,
    tokens_to_bytes,
    tokens_to_text,
    text_to_tokens,
    validate,
    write_corpus,
    write_token_file,
)
from sympac.errors import DecodeError, ParseError, SympacError
from sympac.ingest import GridBar, GridNote, GridSong
from sympac.vocab import BAR_ID, EOP_ID, EOS_ID, VOCAB_SIZE, build_vocab
from synthcorpus import damaged, random_grid_song


def one_bar_song():
    return GridSong(
        source_id="x",
        genre="Pop",
        bars=[
            GridBar(
                section="verse",
                bpm_level=4,
                chords=[(0, "C:maj")],
                tracks={"piano": [GridNote(0, 4, 60)]},
                drums=[],
            )
        ],
    )


def bar_token_cost(bar: GridBar) -> int:
    """Independent count oracle: 4 header + 2 per chord + 1 per non-empty
    track + 3 per note + 1 if drums + 2 per drum hit."""
    c = len(bar.chords)
    melodic = [notes for notes in bar.tracks.values() if notes]
    k = len(melodic)
    n = sum(len(notes) for notes in melodic)
    d = len(bar.drums)
    k_d = 1 if d else 0
    return 4 + 2 * c + k + 3 * n + k_d + 2 * d


def prompt_token_cost(bar: GridBar) -> int:
    c = len(bar.chords)
    k = len([notes for notes in bar.tracks.values() if notes])
    k_d = 1 if bar.drums else 0
    return 4 + 2 * c + k + k_d


def test_layout_of_one_bar_song():
    vocab = build_vocab()
    names = [vocab.render(i) for i in encode_song(one_bar_song())]
    assert names == [
        "bar", "genre<Pop>", "sec<verse>", "bpm_level<[120,125)>",
        "position<0/16>", "chord<C:maj>", "track<piano>",
        "end_of_prompt",
        "bar", "genre<Pop>", "sec<verse>", "bpm_level<[120,125)>",
        "position<0/16>", "chord<C:maj>", "track<piano>",
        "position<0/16>", "duration<4/16>", "pitch<60>",
        "end_of_song",
    ]


def test_bar_without_notes_has_no_track_tokens():
    song = one_bar_song()
    song.bars[0].tracks = {}
    names = [build_vocab().render(i) for i in encode_song(song)]
    assert "track<piano>" not in names


def test_round_trip_random_songs():
    rng = np.random.default_rng(5)
    for _ in range(200):
        song = random_grid_song(rng)
        seq = encode_song(song)
        assert validate(seq) == []
        assert decode_sequence(seq) == song


def test_token_count_formula():
    rng = np.random.default_rng(6)
    for _ in range(100):
        song = random_grid_song(rng)
        expected = (
            sum(prompt_token_cost(b) + bar_token_cost(b) for b in song.bars) + 2
        )
        assert len(encode_song(song)) == expected


def test_prompt_bar_is_note_free_projection():
    # the prompt section equals the song section with every note group
    # ((position, duration, pitch) or (position, drum)) deleted
    rng = np.random.default_rng(8)
    vocab = build_vocab()
    for _ in range(50):
        song = random_grid_song(rng)
        seq = encode_song(song)
        cut = seq.index(EOP_ID)
        prompt, body = seq[:cut], seq[cut + 1 : -1]
        pruned = []
        i = 0
        in_part = False
        while i < len(body):
            kind = vocab.token_of(body[i]).kind
            if kind == "bar":
                in_part = False
            elif kind == "track":
                in_part = True
            if in_part and kind == "position":
                group = 2 if vocab.token_of(body[i + 1]).kind == "drum" else 3
                i += group
                continue
            pruned.append(body[i])
            i += 1
        assert pruned == prompt


def test_missing_genre_is_flagged():
    seq = encode_song(one_bar_song())
    del seq[1]  # drop the first genre token
    violations = validate(seq)
    assert violations and violations[0].index == 1
    assert "genre" in violations[0].message


def test_note_position_order_is_flagged():
    song = one_bar_song()
    song.bars[0].tracks["piano"] = [GridNote(8, 4, 60), GridNote(0, 4, 62)]
    violations = validate(encode_song(song))
    assert violations and "position" in violations[0].message


def test_equal_position_needs_ascending_pitch():
    song = one_bar_song()
    song.bars[0].tracks["piano"] = [GridNote(0, 4, 62), GridNote(0, 4, 60)]
    violations = validate(encode_song(song))
    assert violations and "ascending" in violations[0].message


def test_decode_without_end_of_prompt():
    seq = [t for t in encode_song(one_bar_song()) if t != EOP_ID]
    with pytest.raises(DecodeError) as err:
        decode_sequence(seq)
    # the first note-group token is where the prompt grammar breaks
    assert err.value.index == 14
    assert "position" in str(err.value)


def test_decode_empty_sequence():
    with pytest.raises(DecodeError, match="expected bar at index 0"):
        decode_sequence([])


def test_decode_checks_prompt_consistency():
    seq = encode_song(one_bar_song())
    vocab = build_vocab()
    seq[2] = vocab.id_of_name("sec<chorus>")  # prompt says chorus, song verse
    with pytest.raises(DecodeError, match="section"):
        decode_sequence(seq)


def test_decode_rejects_trailing_tokens():
    seq = encode_song(one_bar_song()) + [EOS_ID]
    with pytest.raises(DecodeError, match="after end_of_song"):
        decode_sequence(seq)


def test_genre_must_be_constant():
    song = GridSong(
        source_id="", genre="Pop",
        bars=[GridBar("verse", 4, [], {}, []), GridBar("verse", 4, [], {}, [])],
    )
    seq = encode_song(song)
    vocab = build_vocab()
    # second song bar's genre token
    positions = [i for i, t in enumerate(seq) if vocab.token_of(t).kind == "genre"]
    seq[positions[-1]] = vocab.id_of_name("genre<Rock>")
    violations = validate(seq)
    assert violations and "genre" in violations[0].message


def test_token_bytes_round_trip():
    seq = encode_song(one_bar_song())
    assert tokens_from_bytes(tokens_to_bytes(seq)) == seq


@pytest.mark.parametrize(
    "bad", [1.7, "3", True, np.bool_(True), -1, 336, np.int64(-1), np.uint16(400), [1]]
)
def test_token_bytes_reject_an_id_that_is_not_an_integer_in_the_vocabulary(bad):
    with pytest.raises(ValueError, match="token ids must be integers in 0..335"):
        tokens_to_bytes([0, bad])


def test_token_bytes_take_numpy_integers():
    ids = np.array([0, 18, 335])
    assert tokens_to_bytes(ids) == tokens_to_bytes([np.int16(0), 18, np.uint64(335)])
    assert tokens_from_bytes(tokens_to_bytes(ids)) == [0, 18, 335]


def test_token_bytes_magic_and_truncation():
    blob = tokens_to_bytes([0, 1, 2])
    with pytest.raises(ParseError, match="magic"):
        tokens_from_bytes(b"NOTMAGIC" + blob[8:])
    with pytest.raises(ParseError, match="truncated"):
        tokens_from_bytes(blob[:-1])


def test_token_bytes_truncated_header():
    blob = tokens_to_bytes([0, 1, 2])
    for cut in range(8, 16):
        with pytest.raises(ParseError, match="truncated token record header"):
            tokens_from_bytes(blob[:cut])


def test_token_file_and_corpus(tmp_path):
    songs = [one_bar_song(), one_bar_song()]
    seqs = [encode_song(s) for s in songs]
    write_token_file(tmp_path / "one.tokens", seqs[0])
    assert read_token_file(tmp_path / "one.tokens") == seqs[0]
    write_corpus(tmp_path / "corpus.bin", seqs)
    assert list(iter_corpus(tmp_path / "corpus.bin")) == seqs


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_damaged_token_bytes_parse_or_raise_parse_error(tmp_path_factory, data):
    seqs = [encode_song(one_bar_song()), [0, 1, 2]]
    blob = damaged(b"".join(tokens_to_bytes(s) for s in seqs), data)
    try:
        tokens_from_bytes(blob)
    except SympacError:
        pass
    path = tmp_path_factory.getbasetemp() / "damaged_corpus.bin"
    path.write_bytes(blob)
    try:
        list(iter_corpus(path))
    except SympacError:
        pass


def test_text_form_round_trip():
    seq = encode_song(one_bar_song())
    assert text_to_tokens(tokens_to_text(seq)) == seq


def test_text_form_rejects_unknown_name():
    with pytest.raises(ParseError, match="line 1"):
        text_to_tokens("chord<H:maj>\n")


# ---------------------------------------------------------------------------
# One type per fact: a violation is a DecodeError, a token id passes one rule.

def _agreement_streams():
    rng = np.random.default_rng(41)
    return [encode_song(random_grid_song(rng, max_bars=3)) for _ in range(12)]


AGREEMENT_STREAMS = _agreement_streams()


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_validate_returns_the_error_decode_sequence_raises(data):
    """On damaged and single-token-mutant streams `validate` is empty
    exactly when `decode_sequence` succeeds, and otherwise holds the error
    it raises: the same index, message, expected kinds and text."""
    seq = list(data.draw(st.sampled_from(AGREEMENT_STREAMS), label="stream"))
    token = st.integers(0, VOCAB_SIZE - 1) | st.sampled_from(seq) | st.sampled_from(
        [-1, VOCAB_SIZE, True, 2.0, np.int64(5)]
    )
    kind = data.draw(st.sampled_from(["cut", "overwrite", "substitute", "insert", "delete"]))
    if kind == "cut":
        seq = seq[: data.draw(st.integers(0, len(seq) - 1))]
    elif kind == "overwrite":
        for _ in range(data.draw(st.integers(1, 4))):
            seq[data.draw(st.integers(0, len(seq) - 1))] = data.draw(token)
    elif kind == "insert":
        seq.insert(data.draw(st.integers(0, len(seq))), data.draw(token))
    else:
        at = data.draw(st.integers(0, len(seq) - 1))
        if kind == "substitute":
            seq[at] = data.draw(token)
        else:
            del seq[at]
    found = validate(seq)
    try:
        decode_sequence(seq)
    except DecodeError as error:
        assert len(found) == 1
        (entry,) = found
        assert isinstance(entry, DecodeError)
        assert (entry.index, entry.message, entry.expected, str(entry)) == (
            error.index, error.message, error.expected, str(error)
        )
        assert str(entry) == f"token {entry.index}: {entry.message}"
    else:
        assert found == []


def test_validate_reports_a_bool_id_outside_the_vocabulary():
    (error,) = validate([BAR_ID, True])
    assert error.index == 1 and error.message == "id True outside the vocabulary"
    with pytest.raises(DecodeError, match="token 1: id True outside the vocabulary"):
        decode_sequence([BAR_ID, True])


@pytest.mark.parametrize("integer", [np.int64, np.uint16, np.int32])
def test_numpy_ids_pass_validate_decode_and_token_bytes(integer):
    seq = encode_song(one_bar_song())
    as_numpy = [integer(t) for t in seq]
    assert validate(as_numpy) == []
    assert decode_sequence(as_numpy) == decode_sequence(seq)
    assert tokens_to_bytes(as_numpy) == tokens_to_bytes(seq)


def test_token_record_bytes_are_pinned(tmp_path):
    blob = tokens_to_bytes([0, 1, 335, 258])
    assert blob == (
        b"SYMPAC01" + b"\x04\x00\x00\x00\x00\x00\x00\x00" + b"\x00\x00\x01\x00\x4f\x01\x02\x01"
    )
    assert tokens_to_bytes([]) == b"SYMPAC01" + bytes(8)
    path = tmp_path / "c.bin"
    write_corpus(path, [[0, 1, 335, 258], [], [2]])
    assert path.read_bytes() == blob + tokens_to_bytes([]) + tokens_to_bytes([2])
    records = list(iter_corpus(path))
    assert records == [[0, 1, 335, 258], [], [2]]
    assert all(type(t) is int for record in records for t in record)
