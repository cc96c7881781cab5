import copy
import dataclasses
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympac.encoding import decode_sequence, encode_song, validate
from sympac.errors import ConstraintConflictError, ControlError
from sympac import fsm
from sympac.fsm import (
    ControlSpec,
    build_rules,
    compile_control,
    initial_state,
    legal_ids,
    mask_for_state,
    parse_chords_arg,
    parse_structure_arg,
    replay,
    update_state,
)
from sympac.lm import UniformModel
from sympac.sampler import SamplerConfig, constrained_sample
from sympac.vocab import (
    BAR_ID,
    BPM_LABELS,
    CHORDS,
    EOP_ID,
    EOS_ID,
    GENRE_BASE,
    GENRES,
    SECTIONS,
    TRACKS,
    build_vocab,
    chord_id,
    duration_id,
    genre_id,
    pitch_id,
    position_id,
    track_id,
)
from synthcorpus import control_specs, random_grid_song

RULES = build_rules()
VOCAB = build_vocab()


def uniform_walk(rng, control=None, max_tokens=4000):
    state = initial_state(control)
    cc = compile_control(control)
    seq = [BAR_ID]
    while not state.terminal and len(seq) < max_tokens:
        mask = mask_for_state(RULES, state, cc)
        ids = np.flatnonzero(mask)
        token = int(ids[rng.integers(len(ids))])
        seq.append(token)
        state = update_state(RULES, state, token)
    return seq, state.terminal


def test_initial_state_expects_genre():
    state = initial_state(ControlSpec())
    mask = mask_for_state(RULES, state)
    ids = np.flatnonzero(mask)
    assert len(ids) == 17
    assert all(VOCAB.token_of(int(i)).kind == "genre" for i in ids)


def test_fixed_genre_gives_singleton_first_mask():
    state = initial_state(ControlSpec(genre="Rock"))
    mask = mask_for_state(RULES, state, ControlSpec(genre="Rock"))
    assert np.flatnonzero(mask).tolist() == [genre_id("Rock")]


def test_control_validation():
    with pytest.raises(ControlError):
        ControlSpec(sections=("intro",) * 3, n_bars=4)
    with pytest.raises(ControlError):
        ControlSpec(allowed_tracks=frozenset({"piano"}), forced_tracks=frozenset({"vocal"}))
    with pytest.raises(ControlError):
        ControlSpec(genre="Polka")
    with pytest.raises(ControlError):
        ControlSpec(n_bars=0)
    with pytest.raises(ControlError):
        ControlSpec(chord_schedule=((0, 4, "C"), (0, 4, "G")))  # duplicate slot


def test_header_transitions():
    state = initial_state(ControlSpec())
    state = update_state(RULES, state, genre_id("Pop"))
    assert state.phase_name == "ExpectBarHeader(sec)"
    state = update_state(RULES, state, VOCAB.id_of_name("sec<verse>"))
    assert state.phase_name == "ExpectBarHeader(bpm_level)"
    state = update_state(RULES, state, VOCAB.id_of_name("bpm_level<[120,125)>"))
    assert state.phase_name == "ChordPosOrNext"


def test_note_group_transitions():
    # duration slot leads to the pitch slot
    rng = np.random.default_rng(0)
    seq, _ = uniform_walk(rng)
    state = initial_state(None)
    for prev, token in zip(seq, seq[1:]):
        before = state.phase_name
        state = update_state(RULES, state, token)
        if before == "NoteDur":
            assert state.phase_name == "NotePitch"
    assert state.terminal


def test_terminal_on_end_of_song():
    rng = np.random.default_rng(1)
    seq, done = uniform_walk(rng)
    assert done and seq[-1] == EOS_ID


def test_illegal_transition_raises():
    state = initial_state(None)
    with pytest.raises(ValueError, match="illegal transition"):
        update_state(RULES, state, VOCAB.id_of_name("pitch<60>"))


HEADER = (genre_id("Pop"), VOCAB.id_of_name("sec<verse>"), VOCAB.id_of_name("bpm_level<<82>"))


def advance(tokens):
    state = initial_state(None)
    for token in tokens:
        state = update_state(RULES, state, token)
    return state


def assert_rejected_in_place(state, token):
    before = copy.copy(state)
    with pytest.raises(ValueError, match="illegal transition"):
        update_state(RULES, state, token)
    for name in fsm.FsmState.__slots__:
        assert getattr(state, name) == getattr(before, name), name


def test_update_state_advances_in_place():
    state = initial_state(None)
    assert update_state(RULES, state, genre_id("Pop")) is state
    assert state.phase_name == "ExpectBarHeader(sec)"


def test_update_state_rejects_non_ascending_pitch_at_shared_position():
    song_bar = HEADER + (track_id("piano"), EOP_ID, BAR_ID) + HEADER + (track_id("piano"),)
    state = advance(song_bar + (position_id(3), duration_id(1), pitch_id(60),
                                position_id(3), duration_id(1)))
    assert state.phase_name == "NotePitch"
    for pitch in (60, 50):
        assert_rejected_in_place(state, pitch_id(pitch))
    update_state(RULES, state, pitch_id(61))


def test_update_state_rejects_chord_position_that_does_not_advance():
    state = advance(HEADER + (position_id(4), chord_id("C:maj")))
    assert state.phase_name == "ChordPosOrNext"
    for step in (4, 2):
        assert_rejected_in_place(state, position_id(step))
    update_state(RULES, state, position_id(5))


def test_update_state_rejects_song_section_unlike_its_prompt_bar():
    state = advance(HEADER + (EOP_ID, BAR_ID, genre_id("Pop")))
    assert state.phase_name == "ExpectBarHeader(sec)" and not state.in_prompt
    assert_rejected_in_place(state, VOCAB.id_of_name("sec<chorus>"))
    update_state(RULES, state, VOCAB.id_of_name("sec<verse>"))


def test_terminal_state_rejects_every_token():
    state = advance(HEADER + (EOP_ID, BAR_ID) + HEADER + (EOS_ID,))
    assert state.terminal
    for token in range(len(VOCAB)):
        assert_rejected_in_place(state, token)


def test_soundness_under_uniform_fuzz():
    rng = np.random.default_rng(123)
    for _ in range(400):
        seq, done = uniform_walk(rng)
        if done:
            assert validate(seq) == []


def test_completeness_on_encoded_songs():
    rng = np.random.default_rng(17)
    for _ in range(150):
        song = random_grid_song(rng)
        end = replay(RULES, encode_song(song))
        assert end.terminal


def test_grammar_masks_never_empty_along_walks():
    rng = np.random.default_rng(19)
    for _ in range(60):
        state = initial_state(None)
        seq = [BAR_ID]
        while not state.terminal and len(seq) < 600:
            mask = mask_for_state(RULES, state, None)
            ids = np.flatnonzero(mask)
            assert len(ids) >= 1
            token = int(ids[rng.integers(len(ids))])
            seq.append(token)
            state = update_state(RULES, state, token)


def test_sections_control_fixes_sections():
    rng = np.random.default_rng(29)
    control = ControlSpec(sections=("intro", "intro", "verse", "chorus"))
    for _ in range(15):
        seq, done = uniform_walk(rng, control)
        assert done
        song = decode_sequence(seq)
        assert [b.section for b in song.bars] == ["intro", "intro", "verse", "chorus"]


def test_chord_loop_control():
    rng = np.random.default_rng(31)
    control = ControlSpec(chords=("F", "C", "G", "A:min"), n_bars=6)
    for _ in range(15):
        seq, done = uniform_walk(rng, control)
        assert done
        song = decode_sequence(seq)
        assert len(song.bars) == 6
        expected = ["F:maj", "C:maj", "G:maj", "A:min", "F:maj", "C:maj"]
        assert [b.chords for b in song.bars] == [[(0, sym)] for sym in expected]


def test_chord_schedule_control():
    rng = np.random.default_rng(37)
    control = ControlSpec(
        chord_schedule=((0, 0, "C"), (0, 8, "G"), (1, 4, "A:min")), n_bars=2
    )
    seq, done = uniform_walk(rng, control)
    assert done
    song = decode_sequence(seq)
    assert song.bars[0].chords == [(0, "C:maj"), (8, "G:maj")]
    assert song.bars[1].chords == [(4, "A:min")]


def test_allowed_tracks_control():
    rng = np.random.default_rng(41)
    control = ControlSpec(allowed_tracks=frozenset({"piano"}), n_bars=3)
    for _ in range(15):
        seq, done = uniform_walk(rng, control)
        assert done
        song = decode_sequence(seq)
        for bar in song.bars:
            assert set(bar.tracks) <= {"piano"}
            assert not bar.drums


def test_forced_tracks_appear_in_every_bar():
    rng = np.random.default_rng(43)
    control = ControlSpec(forced_tracks=frozenset({"bass", "drums"}), n_bars=4)
    for _ in range(15):
        seq, done = uniform_walk(rng, control, max_tokens=8000)
        assert done
        song = decode_sequence(seq)
        for bar in song.bars:
            assert "bass" in bar.tracks
            assert bar.drums


def test_n_bars_control_fixes_length():
    rng = np.random.default_rng(47)
    for n in (1, 2, 7):
        seq, done = uniform_walk(rng, ControlSpec(n_bars=n))
        assert done
        assert len(decode_sequence(seq).bars) == n


def test_bpm_control():
    rng = np.random.default_rng(53)
    seq, done = uniform_walk(rng, ControlSpec(bpm_level=6, n_bars=3))
    assert done
    assert all(b.bpm_level == 6 for b in decode_sequence(seq).bars)


def test_full_control_pins_whole_prompt():
    # every header and chord token is forced; only note content is free
    control = ControlSpec(
        genre="Rock",
        bpm_level=2,
        sections=("verse", "verse"),
        chords=("C",),
        allowed_tracks=frozenset({"piano"}),
        forced_tracks=frozenset({"piano"}),
    )
    state = initial_state(control)
    cc = compile_control(control)
    forced_prefix = []
    seq = [BAR_ID]
    while True:
        mask = mask_for_state(RULES, state, cc)
        ids = np.flatnonzero(mask)
        if len(ids) > 1:
            break
        token = int(ids[0])
        forced_prefix.append(VOCAB.render(token))
        seq.append(token)
        state = update_state(RULES, state, token)
    bar0 = ["genre<Rock>", "sec<verse>", "bpm_level<[96,110)>",
            "position<0/16>", "chord<C:maj>", "track<piano>"]
    # both prompt bars, the separator, and the first song bar up to its
    # track token are all forced; freedom first appears at note positions
    assert forced_prefix == bar0 + ["bar"] + bar0 + ["end_of_prompt", "bar"] + bar0
    assert len(ids) == 16
    assert all(VOCAB.token_of(int(i)).kind == "position" for i in ids)


def test_constraint_conflict_reported():
    # a state claiming a forced track was skipped can never satisfy it
    control = ControlSpec(forced_tracks=frozenset({"vocal"}))
    state = initial_state(control)
    state = update_state(RULES, state, genre_id("Pop"))
    state = update_state(RULES, state, VOCAB.id_of_name("sec<verse>"))
    state = update_state(RULES, state, VOCAB.id_of_name("bpm_level<<82>"))
    state = update_state(RULES, state, track_id("piano"))  # grammar allows; control later conflicts
    state.tracks_emitted = 0b11110  # pretend vocal was skipped (unreachable via masks)
    state.cur_chords = ()
    with pytest.raises(ConstraintConflictError, match="no legal token"):
        mask_for_state(RULES, state, control)


def test_parse_chords_arg():
    assert parse_chords_arg("F, D:min, C, G") == ("F:maj", "D:min", "C:maj", "G:maj")
    with pytest.raises(ControlError):
        parse_chords_arg("  ")


def test_parse_structure_arg():
    assert parse_structure_arg("intro*2,verse*3") == (
        "intro", "intro", "verse", "verse", "verse",
    )
    with pytest.raises(ControlError):
        parse_structure_arg("nave*4")
    for text in ("verse*" + "9" * 30, "verse*" + "9" * 18):
        with pytest.raises(ControlError, match="too large"):
            parse_structure_arg(text)


def test_control_json_round_trip():
    spec = ControlSpec(
        genre="Pop",
        sections=("intro", "intro", "verse"),
        chords=("C", "G"),
        allowed_tracks=frozenset({"piano", "drums"}),
        n_bars=3,
    )
    again = ControlSpec.from_json(spec.to_json())
    assert again == spec


@given(control_specs())
def test_control_json_round_trip_property(spec):
    assert ControlSpec.from_json(spec.to_json()) == spec


def test_control_json_rejects_non_array_chords():
    for key in ("chords", "chord_schedule", "structure"):
        with pytest.raises(ControlError, match=key):
            ControlSpec.from_json({key: 5})
    with pytest.raises(ControlError, match="non-empty"):
        ControlSpec(chord_schedule=(), n_bars=2)


def test_genre_locks_after_first_bar():
    rng = np.random.default_rng(59)
    for _ in range(20):
        seq, done = uniform_walk(rng, ControlSpec(n_bars=3))
        assert done
        genres = {t for t in seq if GENRE_BASE <= t < GENRE_BASE + len(GENRES)}
        assert len(genres) == 1


def test_note_cap_closes_part():
    # 128 note groups in one song-bar track part exhaust the mask's positions
    state = advance(HEADER + (track_id("piano"), EOP_ID, BAR_ID) + HEADER + (track_id("piano"),))
    assert state.phase_name == "NotePos"
    for i in range(128):
        state = update_state(RULES, state, position_id(15))
        state = update_state(RULES, state, duration_id(1))
        state = update_state(RULES, state, pitch_id(i))
    mask = mask_for_state(RULES, state, None)
    kinds = {VOCAB.token_of(int(t)).kind for t in np.flatnonzero(mask)}
    assert "position" not in kinds
    assert kinds <= {"track", "bar", "end_of_song"}


def test_chord_schedule_beyond_requested_bars_rejected():
    with pytest.raises(ControlError, match="bar 5"):
        ControlSpec(chord_schedule=((5, 0, "C"),), n_bars=4)
    with pytest.raises(ControlError, match="bar 3"):
        ControlSpec(chord_schedule=((3, 0, "C"),), sections=("verse",) * 2)


# ---------------------------------------------------------------------------
# Reference: the boolean-array masks the integer bitmasks replaced.

def _block(base, count):
    m = np.zeros(fsm.VOCAB_SIZE, dtype=bool)
    m[base : base + count] = True
    return m


_GENRES = _block(fsm.GENRE_BASE, len(GENRES))
_SECS = _block(fsm.SEC_BASE, len(SECTIONS))
_BPMS = _block(fsm.BPM_BASE, len(BPM_LABELS))
_CHORDS = _block(fsm.CHORD_BASE, len(CHORDS))
_DURATIONS = _block(fsm.DUR_BASE, fsm.MAX_DURATION)
_PITCHES = _block(fsm.PITCH_BASE, fsm.N_PITCHES)
_DRUMS = _block(fsm.DRUM_BASE, fsm._N_DRUMS)
_POS_FROM = [_block(fsm.POS_BASE + k, fsm.N_STEPS - k) for k in range(fsm.N_STEPS + 1)]
_PITCH_FROM = [_block(fsm.PITCH_BASE + k, fsm.N_PITCHES - k) for k in range(fsm.N_PITCHES + 1)]
_DRUM_FROM = [_block(fsm.DRUM_BASE + k, fsm._N_DRUMS - k) for k in range(fsm._N_DRUMS + 1)]


def _reference_exits_into(mask, state, cc):
    candidates = fsm._track_candidates(state, cc)
    while candidates:
        t = (candidates & -candidates).bit_length() - 1
        mask[fsm.TRACK_BASE + t] = True
        candidates &= candidates - 1
    ends = fsm._bar_end_bits(state, cc)
    for tid in (BAR_ID, EOP_ID, EOS_ID):
        if ends >> tid & 1:
            mask[tid] = True


def reference_mask(state, cc):
    """Legal-token mask built phase by phase on boolean arrays; may be empty."""
    mask = np.zeros(fsm.VOCAB_SIZE, dtype=bool)
    ph = state.phase
    if ph == fsm.PH_BAR:
        mask[BAR_ID] = True
    elif ph == fsm.PH_GENRE:
        if state.genre >= 0:
            mask[GENRE_BASE + state.genre] = True
        elif cc.genre_idx >= 0:
            mask[GENRE_BASE + cc.genre_idx] = True
        else:
            mask |= _GENRES
    elif ph == fsm.PH_SEC:
        if not state.in_prompt:
            mask[fsm.SEC_BASE + state.prompt_bars[state.bar_index].sec] = True
        elif cc.sec_ids is not None and state.bar_index < len(cc.sec_ids):
            mask[fsm.SEC_BASE + cc.sec_ids[state.bar_index]] = True
        else:
            mask |= _SECS
    elif ph == fsm.PH_BPM:
        if not state.in_prompt:
            mask[fsm.BPM_BASE + state.prompt_bars[state.bar_index].bpm] = True
        elif cc.bpm_idx >= 0:
            mask[fsm.BPM_BASE + cc.bpm_idx] = True
        else:
            mask |= _BPMS
    elif ph in (fsm.PH_CHORD_POS, fsm.PH_CHORD_SYM):
        if state.in_prompt:
            sched = cc.sched_for(state.bar_index)
        else:
            sched = state.prompt_bars[state.bar_index].chords
        k = len(state.cur_chords)
        if ph == fsm.PH_CHORD_SYM:
            if sched is not None:
                mask[fsm.CHORD_BASE + sched[k][1]] = True
            else:
                mask |= _CHORDS
        elif sched is not None:
            if k < len(sched):
                mask[fsm.POS_BASE + sched[k][0]] = True
            else:
                _reference_exits_into(mask, state, cc)
        else:
            last = state.cur_chords[-1][0] if state.cur_chords else -1
            mask |= _POS_FROM[last + 1]
            _reference_exits_into(mask, state, cc)
    elif ph == fsm.PH_TRACK_START:
        _reference_exits_into(mask, state, cc)
    elif ph in (fsm.PH_NOTE_POS, fsm.PH_DRUM_POS):
        last, top = (
            (state.last_pitch, fsm.N_PITCHES)
            if ph == fsm.PH_NOTE_POS
            else (state.last_drum, fsm._N_DRUMS)
        )
        if state.group_count < fsm.MAX_NOTES_PER_PART:
            mask |= _POS_FROM[max(state.last_position, 0)]
            if last >= top - 1:
                mask[fsm.POS_BASE + state.last_position] = False
        if state.group_count >= 1:
            _reference_exits_into(mask, state, cc)
    elif ph == fsm.PH_NOTE_DUR:
        mask |= _DURATIONS
    elif ph == fsm.PH_NOTE_PITCH:
        mask |= _PITCH_FROM[state.last_pitch + 1] if state.last_pitch >= 0 else _PITCHES
    elif ph == fsm.PH_DRUM_KEY:
        mask |= _DRUM_FROM[state.last_drum + 1] if state.last_drum >= 0 else _DRUMS
    else:
        raise ValueError("terminal state has no legal continuation")
    return mask


def assert_same_legal_set(state, cc):
    """legal_ids and mask_for_state agree with the reference in ``state``,
    including a conflict that names what the grammar expects."""
    want = reference_mask(state, cc)
    if not want.any():
        with pytest.raises(ConstraintConflictError) as info:
            legal_ids(RULES, state, cc)
        grammar = np.flatnonzero(reference_mask(state, compile_control(None)))
        for i in grammar[:8]:
            assert VOCAB.render(int(i)) in info.value.grammar_expects
        assert state.phase_name in info.value.grammar_expects
        with pytest.raises(ConstraintConflictError):
            mask_for_state(RULES, state, cc)
        return None
    ids = legal_ids(RULES, state, cc)
    assert ids.dtype == np.int64 and not ids.flags.writeable
    assert np.array_equal(ids, np.flatnonzero(want))
    assert np.all(np.diff(ids) > 0)
    assert np.array_equal(mask_for_state(RULES, state, cc), want)
    return ids


def controlled_walk(spec, seed, tamper, steps=400):
    """Yield the states of a random walk under ``spec``.

    With ``tamper``, each state is preceded by a copy whose
    tracks_emitted is overwritten, which reaches states where the forced
    tracks conflict; the copies are only inspected, never advanced.  The
    walk advances each state in place once the caller resumes it.
    """
    rng = np.random.default_rng(seed)
    cc = compile_control(spec)
    state = initial_state(spec)
    for _ in range(steps):
        if state.terminal:
            return
        if tamper:
            other = copy.copy(state)
            other.tracks_emitted = int(rng.integers(1 << len(TRACKS)))
            yield other
        yield state
        ids = legal_ids(RULES, state, cc)
        state = update_state(RULES, state, int(ids[rng.integers(len(ids))]))


@settings(max_examples=60, deadline=None)
@given(control_specs(), st.integers(0, 2**32 - 1), st.booleans())
def test_legal_ids_match_reference_masks(spec, seed, tamper):
    cc = compile_control(spec)
    for state in controlled_walk(spec, seed, tamper):
        assert_same_legal_set(state, cc)


@settings(max_examples=60, deadline=None)
@given(control_specs(), st.integers(0, 2**32 - 1), st.booleans())
def test_controlled_mask_is_within_the_grammar_mask(spec, seed, tamper):
    # update_state accepts exactly the grammar mask, so this is what lets
    # it accept every token drawn from a controlled mask.
    cc = compile_control(spec)
    for state in controlled_walk(spec, seed, tamper):
        grammar = fsm._legal_bits(RULES, state, fsm._NO_CONTROL)
        assert fsm._legal_bits(RULES, state, cc) & ~grammar == 0


def _accepts(state, cc, token, offer):
    """Whether ``update_state`` takes ``token`` on a fresh copy of ``state``,
    with ``offer`` just offered its mask under ``cc``."""
    trial = copy.copy(state)
    if offer:
        try:
            legal_ids(RULES, trial, cc)
        except ConstraintConflictError:
            pass
    try:
        update_state(RULES, trial, token)
    except ValueError:
        return False
    return True


@settings(max_examples=30, deadline=None)
@given(control_specs(), st.integers(0, 2**32 - 1), st.booleans())
def test_update_state_accepts_exactly_the_grammar_mask_with_or_without_an_offer(
    spec, seed, tamper
):
    cc = compile_control(spec)
    rng = np.random.default_rng(seed)
    for state in controlled_walk(spec, seed, tamper):
        grammar = reference_mask(state, compile_control(None))
        outside = rng.choice(np.flatnonzero(~grammar), size=16, replace=False)
        for offer in (True, False):
            for token in np.flatnonzero(grammar):
                assert _accepts(state, cc, int(token), offer)
            for token in outside:
                assert not _accepts(state, cc, int(token), offer)


def _public_slots(state):
    return {name: getattr(state, name) for name in fsm.FsmState.__slots__ if name[0] != "_"}


def test_a_grammar_token_outside_the_offer_takes_the_full_check():
    state = initial_state()
    assert legal_ids(RULES, state, ControlSpec(genre="Pop")).tolist() == [genre_id("Pop")]
    update_state(RULES, state, genre_id("Rock"))
    assert state.genre == GENRES.index("Rock") and state._offered == 0


def test_a_token_outside_the_grammar_after_an_offer_changes_nothing():
    state = advance(HEADER + (position_id(4), chord_id("C:maj")))
    legal_ids(RULES, state, ControlSpec(genre="Pop"))
    before = _public_slots(state)
    for token in (position_id(4), position_id(2), pitch_id(60), EOS_ID):
        with pytest.raises(ValueError, match="illegal transition"):
            update_state(RULES, state, token)
        assert _public_slots(state) == before


def test_a_tampered_copy_does_not_inherit_the_offer():
    state = advance(HEADER)
    assert track_id("piano") in legal_ids(RULES, state)
    for make_copy in (copy.copy, copy.deepcopy, lambda s: pickle.loads(pickle.dumps(s))):
        other = make_copy(state)
        assert _public_slots(other) == _public_slots(state) and other._offered == 0
        other.tracks_emitted = 1 << TRACKS.index("piano")
        with pytest.raises(ValueError, match="illegal transition"):
            update_state(RULES, other, track_id("piano"))
    update_state(RULES, state, track_id("piano"))
    assert state._offered == 0


@settings(max_examples=40, deadline=None)
@given(control_specs(), st.integers(0, 2**32 - 1))
def test_uniform_samples_under_random_controls_validate_and_replay(spec, seed):
    result = constrained_sample(UniformModel(), RULES, spec, SamplerConfig(rng_seed=seed))
    assert not result.truncated
    assert validate(result.tokens) == []
    assert replay(RULES, result.tokens, spec).terminal


def test_mask_for_state_is_a_fresh_array():
    state = initial_state(None)
    first = mask_for_state(RULES, state)
    first[:] = False
    assert mask_for_state(RULES, state).any()


def test_control_json_rejects_non_array_track_lists():
    for key in ("tracks", "forced_tracks"):
        for value in (5, "piano", {"piano": 1}):
            with pytest.raises(ControlError, match=key):
                ControlSpec.from_json({key: value})
    with pytest.raises(ControlError, match="track names"):
        ControlSpec.from_json({"tracks": [["piano"]]})
    with pytest.raises(ControlError, match="track names"):
        ControlSpec(allowed_tracks=5)


def test_chord_schedule_rejects_non_integral_bar_and_step():
    for entry in ([0, 1.5, "C"], [0.5, 0, "C"], [0, float("nan"), "C"],
                  [0, float("inf"), "C"], [True, 0, "C"], ["0", 0, "C"]):
        with pytest.raises(ControlError, match="whole"):
            ControlSpec.from_json({"chord_schedule": [entry]})
    spec = ControlSpec.from_json({"chord_schedule": [[1.0, 4.0, "C"]]})
    assert spec.chord_schedule == ((1, 4, "C:maj"),)


def test_structure_rejects_non_integral_bar_counts():
    for bars in (1.5, True, "2", None, 1e300):
        with pytest.raises(ControlError, match="bar count"):
            ControlSpec.from_json({"structure": [["verse", bars]]})
    spec = ControlSpec.from_json({"structure": [["verse", 2.0]]})
    assert spec.sections == ("verse", "verse")


def test_structure_pairs_take_exact_section_labels():
    # a pair's label is one section label, never a CLI structure string
    for label in ("verse,chorus", "verse*3", " verse"):
        with pytest.raises(ControlError, match=re.escape(f"unknown section label {label!r}")):
            ControlSpec.from_json({"structure": [[label, 2]]})
    with pytest.raises(ControlError, match="bar count must be >= 1"):
        ControlSpec.from_json({"structure": [["verse", 0]]})
    spec = ControlSpec.from_json({"structure": [["intro", 1], ["verse", 2]]})
    assert spec.sections == ("intro", "verse", "verse")


def _legal_outcome(state, control):
    """The ids ``legal_ids`` gives, or the conflict it reports."""
    try:
        return legal_ids(RULES, state, control).tolist()
    except ConstraintConflictError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(control_specs(), st.integers(0, 2**32 - 1), st.booleans())
def test_rebuilt_specs_give_the_same_legal_ids(spec, seed, tamper):
    rebuilt = (
        dataclasses.replace(spec),
        pickle.loads(pickle.dumps(spec)),
        ControlSpec.from_json(spec.to_json()),
    )
    for state in controlled_walk(spec, seed, tamper):
        want = _legal_outcome(state, spec)
        assert [_legal_outcome(state, other) for other in rebuilt] == [want] * len(rebuilt)


def test_replace_derives_the_lowered_control_afresh():
    spec = ControlSpec(genre="Pop", n_bars=2)
    rock = dataclasses.replace(spec, genre="Rock")
    assert rock.genre_idx == GENRES.index("Rock") != spec.genre_idx
    assert legal_ids(RULES, initial_state(rock), rock).tolist() == [genre_id("Rock")]
    assert "genre=Rock" in rock.describe


@pytest.mark.parametrize("token_id", [-1, fsm.VOCAB_SIZE, fsm.VOCAB_SIZE + 100, np.int64(400)])
def test_replay_rejects_an_id_outside_the_vocabulary(token_id):
    # The report names the id, the state and the step, as for any illegal token.
    message = rf"^illegal transition: token {int(token_id)} in state ExpectBarHeader\(genre\) .*\(step 1\)$"
    with pytest.raises(ValueError, match=message):
        replay(RULES, [BAR_ID, token_id])
    state = advance(HEADER)
    assert_rejected_in_place(state, token_id)
    with pytest.raises(ValueError, match=rf"token {int(token_id)} in state .*\(step 4\)$"):
        update_state(RULES, state, token_id)


def test_update_state_takes_the_numpy_ids_legal_ids_returns():
    state = initial_state()
    tokens = [BAR_ID]
    while not state.terminal and len(tokens) < 300:
        ids = legal_ids(RULES, state)
        token = ids[len(tokens) % len(ids)]  # a NumPy integer
        assert not isinstance(token, int)
        state = update_state(RULES, state, token)
        tokens.append(token)
    assert state.terminal and state.step == len(tokens)
    as_ints = replay(RULES, [int(t) for t in tokens])
    for name in fsm.FsmState.__slots__:
        assert getattr(replay(RULES, tokens), name) == getattr(as_ints, name), name


def _valid_streams():
    """Short valid streams: encoded random songs and uniform walks of 1–3 bars."""
    rng = np.random.default_rng(29)
    streams = [encode_song(random_grid_song(rng, max_bars=3)) for _ in range(10)]
    for n_bars in (1, 2, 3) * 4:
        seq, done = uniform_walk(rng, ControlSpec(n_bars=n_bars))
        assert done
        streams.append(seq)
    return streams


VALID_STREAMS = _valid_streams()


def _replays_to_the_end(seq):
    try:
        return replay(RULES, seq).terminal
    except ValueError:
        return False


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_the_two_grammars_agree_on_single_token_mutants(data):
    """`validate` finds nothing exactly when `replay` reaches the terminal
    state, in both directions, on substitutions, insertions and deletions."""
    seq = list(data.draw(st.sampled_from(VALID_STREAMS), label="stream"))
    assert validate(seq) == [] and _replays_to_the_end(seq)
    kind = data.draw(st.sampled_from(["substitute", "insert", "delete"]), label="kind")
    at = data.draw(st.integers(0, len(seq) - (kind != "insert")), label="at")
    # Tokens drawn from the stream itself make valid mutants likelier.
    token = data.draw(st.integers(0, len(VOCAB) - 1) | st.sampled_from(seq), label="token")
    if kind == "substitute":
        seq[at] = token
    elif kind == "insert":
        seq.insert(at, token)
    else:
        del seq[at]
    assert (validate(seq) == []) == _replays_to_the_end(seq)
