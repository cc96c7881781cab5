"""Acceptance criteria, one test per criterion.

Each test prints a single ``ACCEPTANCE <id>: PASS`` line on success
(visible with ``pytest -s``); a failing criterion fails its test.  Run:

    pytest tests/test_acceptance.py -v -s
"""

import sys
import time

import numpy as np
import pytest

from sympac.chroma import chord_accuracy, detect_bar_chords, detect_chord, ideal_bank
from sympac.cli import main as cli_main
from sympac.encoding import decode_sequence, encode_song, validate
from sympac.fsm import ControlSpec, build_rules, parse_chords_arg, parse_structure_arg
from sympac.ingest import GridSong
from sympac.lm import UniformModel, load_model, perplexity, save_model, train_ngram
from sympac.metrics import ALL_METRICS, METRIC_CLASSES, class_report, extract_metric, kld
from sympac.sampler import SamplerConfig, constrained_sample
from sympac.structure import (
    StructureEstimate,
    beat_sync_features,
    estimate_structure,
    foote_boundaries,
    oracle_scores,
    reference_structure,
    song_tempo_bpm,
    structure_scores,
)
from sympac.vocab import ROOTS, VOCAB_SIZE
from synthcorpus import aab_song, chord_corpus, chord_following_bar, random_grid_song

RULES = build_rules()

CHORD_PROGRESSIONS = (
    "F, D:min, C, G",
    "F, C, G, A:min",
    "C, A:min, E:min, F",
    "C, A:min, F, G",
    "A:min, G, F, G",
    "A:min, F, C, G",
    "A:min, G, F, E:min, D:min, G, C, C",
    "F, G, E:min, A:min, D:min, G, C, C",
    "C, G, A:min, E:min, F, C, D:min, G",
    "C, G, A:min, F, C, G, E:min, F",
    "F, D:min, E, A:min",
    "A:min, G, F, E",
    "C, F, A#, C",
    "G, E:min, C, D",
    "C, G:min, A#, D:min",
    "C, G#, F, G",
    "A:min, G, F, F:min",
    "C, A, D, G",
    "A:min, G:min, F, E",
    "A:min, D:min, G, E, F, D:min, E, A:min",
)

STRUCTURE_INPUTS = (
    "intro*4,verse*8,chorus*8,outro*4",
    "intro*4,verse*8,chorus*8,inst*8,chorus*8",
    "intro*4,verse*8,chorus*8,verse*8,chorus*8",
    "intro*4,verse*8,chorus*8,inst*8,verse*8,chorus*8,outro*4",
    "intro*4,verse*4,chorus*8,inst*4,verse*4,chorus*8,inst*4,chorus*8,outro*4",
    "intro*4,verse*8,chorus*8,inst*8,verse*8,chorus*8,bridge*8,chorus*8,outro*4",
    "intro*4,verse*8,chorus*8,inst*8,verse*8,chorus*8,inst*4,bridge*4,chorus*8,outro*4",
    "verse*8,chorus*8,inst*4,verse*8,chorus*8,inst*4,chorus*8,outro*4",
    "chorus*8,verse*8,chorus*8,inst*8,verse*8,chorus*8,outro*4",
    "intro*4,chorus*8,verse*8,inst*4,verse*4,inst*4,chorus*8,verse*4,inst*4,verse*4,bridge*4,chorus*8,outro*4",
)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS", flush=True)
    sys.stdout.flush()


@pytest.fixture(scope="module")
def synthetic_split():
    """500 chord-following songs: 400 train / 100 validation, plus a
    model trained on the training encodings."""
    rng = np.random.default_rng(20240901)
    songs = chord_corpus(rng, 500)
    train_songs, val_songs = songs[:400], songs[400:]
    train_seqs = [encode_song(s) for s in train_songs]
    model = train_ngram(train_seqs, order=5)
    return train_songs, val_songs, train_seqs, model


def test_criterion_1_grammar_soundness():
    """10,000 uniform-model generations, empty controls: every completed
    sequence passes the independent validator; under 2 minutes."""
    model = UniformModel()
    started = time.time()
    completed = 0
    for seed in range(10_000):
        result = constrained_sample(
            model, RULES, None, SamplerConfig(rng_seed=seed, max_tokens=2_000)
        )
        if result.truncated:
            continue
        completed += 1
        assert validate(result.tokens) == [], f"seed {seed} produced a violation"
    elapsed = time.time() - started
    assert completed >= 9_900, f"only {completed} of 10000 completed"
    assert elapsed < 120.0, f"soundness sweep took {elapsed:.1f}s (target < 120s)"
    report(f"1 grammar-soundness ({completed} completed, {elapsed:.1f}s)")


def test_criterion_2_round_trip():
    """1,000 random GridSongs: decode(encode(s)) == s exactly, and the
    closed-form token count formula matches."""
    rng = np.random.default_rng(77)
    for _ in range(1_000):
        song = random_grid_song(rng)
        seq = encode_song(song)
        assert decode_sequence(seq) == song
        expected = 2
        for bar in song.bars:
            c = len(bar.chords)
            melodic = [n for n in bar.tracks.values() if n]
            k = len(melodic)
            n = sum(len(v) for v in melodic)
            d = len(bar.drums)
            k_d = 1 if d else 0
            expected += (4 + 2 * c + k + k_d) + (4 + 2 * c + k + 3 * n + k_d + 2 * d)
        assert len(seq) == expected
    report("2 round-trip (1000 songs, exact)")


def test_criterion_3_control_adherence():
    """All 20 chord progressions and all 10 structure inputs: every
    generated bar carries exactly the scheduled chord and section."""
    model = UniformModel()
    for text in CHORD_PROGRESSIONS:
        progression = parse_chords_arg(text)
        n_bars = 64  # the controlled-generation experiment loops to 64 bars
        control = ControlSpec(chords=progression, n_bars=n_bars)
        for seed in (0, 1):
            result = constrained_sample(
                model, RULES, control, SamplerConfig(rng_seed=seed, max_tokens=50_000)
            )
            assert not result.truncated
            song = decode_sequence(result.tokens)
            assert len(song.bars) == n_bars
            for i, bar in enumerate(song.bars):
                assert bar.chords == [(0, progression[i % len(progression)])]
    for text in STRUCTURE_INPUTS:
        sections = parse_structure_arg(text)
        control = ControlSpec(sections=sections)
        for seed in (0, 1):
            result = constrained_sample(
                model, RULES, control, SamplerConfig(rng_seed=seed, max_tokens=50_000)
            )
            assert not result.truncated
            song = decode_sequence(result.tokens)
            assert tuple(bar.section for bar in song.bars) == sections
    report("3 control-adherence (20 progressions + 10 structures, exact)")


def test_criterion_4_chord_realization_trend(synthetic_split):
    """Chord-controlled n-gram samples: chroma accuracy at least ten
    times the 1/25 random baseline; ideal triads score exactly 1."""
    _, _, _, model = synthetic_split
    bank = ideal_bank()
    matched = counted = 0
    # the first ten progressions use only chords the synthetic corpus
    # contains; an n-gram cannot transpose to unseen chords
    for text in CHORD_PROGRESSIONS[:10]:
        progression = parse_chords_arg(text)
        n_bars = len(progression)
        control = ControlSpec(
            chords=progression,
            n_bars=n_bars,
            forced_tracks=frozenset({"piano", "bass"}),
        )
        for seed in (11, 12):
            result = constrained_sample(
                model, RULES, control, SamplerConfig(rng_seed=seed, max_tokens=50_000)
            )
            assert not result.truncated
            song = decode_sequence(result.tokens)
            detected = detect_bar_chords(song, bank)
            for want, got in zip(progression, detected):
                counted += 1
                matched += want == got
    accuracy = matched / counted
    baseline = 1.0 / 25.0
    assert accuracy >= 10 * baseline, f"accuracy {accuracy:.3f} < {10 * baseline:.3f}"

    ideal_songs = []
    intended = list(parse_chords_arg(CHORD_PROGRESSIONS[1])) * 2
    ideal_songs.append(
        GridSong(
            source_id="ideal",
            genre="Pop",
            bars=[chord_following_bar(sym, "verse", 4) for sym in intended],
        )
    )
    assert chord_accuracy(ideal_songs, intended, bank) == (1.0, len(intended))
    report(f"4 chord-realization trend (n-gram accuracy {accuracy:.3f}, ideal 1.000)")


def test_criterion_5_chroma_detector_properties():
    """Transposition equivariance, scale invariance, and brute-force
    24-template argmax agreement on 1,000 random chromas, all exact."""
    bank = ideal_bank()
    rng = np.random.default_rng(55)

    for _ in range(100):
        chroma = rng.random(12) * rng.integers(1, 20)
        base = detect_chord(chroma, bank, threshold=0.0)
        root0, quality = base.split(":")
        for k in range(12):
            expect = f"{ROOTS[(ROOTS.index(root0) + k) % 12]}:{quality}"
            assert detect_chord(np.roll(chroma, k), bank, threshold=0.0) == expect
        for alpha in (1e-6, 0.25, 7.0, 1e6):
            assert detect_chord(alpha * chroma, bank) == detect_chord(chroma, bank)

    def brute_force(chroma):
        norm = np.linalg.norm(chroma)
        if norm == 0:
            return "N"
        best = ("N", -np.inf)
        for quality in ("maj", "min"):
            for root in range(12):
                score = float(np.dot(chroma / norm, np.roll(bank.template(quality), root)))
                if score > best[1] + 1e-12:
                    best = (f"{ROOTS[root]}:{quality}", score)
        return best[0] if best[1] >= 0.5 else "N"

    for _ in range(1_000):
        chroma = rng.random(12) * rng.integers(1, 20)
        assert detect_chord(chroma, bank) == brute_force(chroma)
    report("5 chroma-detector properties (equivariance, scale, 1000-chroma argmax)")


def test_criterion_6_kld_ordering(synthetic_split):
    """Trained n-gram beats the uniform model on at least 6 of the 7
    metric classes against a held-out split; kld identities hold."""
    train_songs, val_songs, _, model = synthetic_split

    def generate(m, n, seed0, max_tokens):
        songs = []
        for i in range(n):
            result = constrained_sample(
                m, RULES, None, SamplerConfig(rng_seed=seed0 + i, max_tokens=max_tokens)
            )
            if not result.truncated:
                songs.append(decode_sequence(result.tokens))
        return songs

    gen_trained = generate(model, 100, 1_000, 30_000)
    gen_uniform = generate(UniformModel(), 100, 2_000, 2_000)
    assert len(gen_trained) >= 90 and len(gen_uniform) >= 90

    trained_report = class_report(gen_trained, val_songs)
    uniform_report = class_report(gen_uniform, val_songs)
    wins = 0
    comparable = 0
    for cls in METRIC_CLASSES:
        a = trained_report.class_means[cls]
        b = uniform_report.class_means[cls]
        if a is None or b is None:
            continue
        comparable += 1
        wins += a < b
    assert comparable == 7, f"only {comparable} classes comparable"
    assert wins >= 6, f"trained model won only {wins} of {comparable} classes"

    for name in ALL_METRICS:
        try:
            dist = extract_metric(val_songs, name)
        except ValueError:
            continue
        assert kld(dist, dist) == 0.0
        gen_dist = extract_metric(gen_trained, name)
        assert kld(gen_dist, dist) >= 0.0
    report(f"6 kld-ordering (trained beats uniform in {wins}/7 classes)")


def test_criterion_7_structure_metrics():
    """Identity scores are exactly (1,1,1); on an AAB piece the oracle
    pairs the identical A sections and Foote hits the A/B seam."""
    ref = reference_structure(
        ["intro"] * 4 + ["verse"] * 8 + ["chorus"] * 8 + ["outro"] * 4, 120.0
    )
    assert structure_scores(ref, ref) == (1.0, 1.0, 1.0)
    single = StructureEstimate((0.0, 30.0), ("one",))
    assert structure_scores(single, single) == (1.0, 1.0, 1.0)

    song = aab_song(section_bars=8)
    bpm = song_tempo_bpm(song)
    bar_seconds = 4 * 60.0 / bpm
    ref3 = StructureEstimate(
        boundaries=(0.0, 8 * bar_seconds, 16 * bar_seconds, 24 * bar_seconds),
        labels=("A", "A", "B"),
    )
    oracle_pwf, oracle_sf = oracle_scores(song, ref3)
    assert oracle_pwf == 1.0

    seam_ref = StructureEstimate(
        boundaries=(0.0, 16 * bar_seconds, 24 * bar_seconds), labels=("A", "B")
    )
    est = estimate_structure(song)
    hr3f, _, _ = structure_scores(est, seam_ref)
    assert hr3f == 1.0
    report("7 structure-metrics (identity exact, AAB oracle PWF 1.0, HR3F 1.0)")


def test_criterion_8_model_contract(synthetic_split):
    """Conditional distributions sum to one within 1e-9 on 10,000 random
    contexts; training perplexity beats uniform; save/load identical."""
    _, _, train_seqs, model = synthetic_split
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        context = rng.integers(0, VOCAB_SIZE, size=int(rng.integers(0, 9))).tolist()
        assert abs(model.probabilities(context).sum() - 1.0) < 1e-9

    ppl = perplexity(model, train_seqs[:60])
    assert ppl < VOCAB_SIZE, f"perplexity {ppl:.1f} not below the uniform 336"

    again = load_model(save_model(model))
    for _ in range(100):
        context = rng.integers(0, VOCAB_SIZE, size=int(rng.integers(0, 9))).tolist()
        assert np.array_equal(model.score(context), again.score(context))
    report(f"8 model-contract (normalization 1e-9, perplexity {ppl:.2f} < 336)")


def test_criterion_9_determinism(tmp_path, synthetic_split):
    """A generate run repeated from its manifest is byte-identical."""
    from sympac.lm import save_model_file

    _, _, _, model = synthetic_split
    model_path = tmp_path / "model.bin"
    save_model_file(model, model_path)
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    rc = cli_main([
        "generate", "--model", str(model_path), "--out-dir", str(first),
        "-n", "3", "--seed", "31", "--chords", "F,C,G,A:min", "--bars", "8", "--midi",
    ])
    assert rc == 0
    rc = cli_main([
        "generate", "--from-manifest", str(first / "manifest.json"),
        "--out-dir", str(second),
    ])
    assert rc == 0
    import json

    manifest = json.loads((first / "manifest.json").read_text())
    assert manifest["outputs"], "manifest lists no outputs"
    for name in manifest["outputs"]:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    assert (first / "manifest.json").read_text() == (second / "manifest.json").read_text()
    report("9 determinism (manifest rerun byte-identical)")
