import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sympac.ingest import GridBar, GridNote, GridSong
from sympac.structure import (
    FRAME_SECONDS,
    StructureEstimate,
    _average_linkage_clusters,
    _f_measure,
    _frame_labels,
    beat_sync_features,
    boundary_hit_rate,
    entropy_scores_f,
    estimate_structure,
    foote_boundaries,
    label_segments_2dfmc,
    novelty_curve,
    oracle_scores,
    pairwise_f,
    reference_structure,
    segment_signatures,
    song_tempo_bpm,
    structure_scores,
)
from synthcorpus import aab_song


def blocky_features(block_specs):
    """Stack of constant blocks; each spec is (n_beats, active_columns)."""
    rows = []
    for n_beats, cols in block_specs:
        row = np.zeros(128)
        row[list(cols)] = 1.0
        rows.append(np.tile(row / np.linalg.norm(row), (n_beats, 1)))
    return np.vstack(rows)


def test_beat_sync_features_single_note():
    song = GridSong(
        source_id="f", genre="Pop",
        bars=[GridBar("verse", 4, [], {"piano": [GridNote(0, 4, 60)]}, [])],
    )
    feats = beat_sync_features(song)
    assert feats.shape == (4, 128)
    assert feats[0, 60] == 1.0  # sustained across the whole beat, normalized
    assert not feats[1].any()


def test_beat_sync_features_average_not_stack():
    one = GridSong(
        source_id="a", genre="Pop",
        bars=[GridBar("verse", 4, [], {"piano": [GridNote(0, 16, 60)]}, [])],
    )
    two = GridSong(
        source_id="b", genre="Pop",
        bars=[GridBar("verse", 4, [], {
            "piano": [GridNote(0, 16, 60)], "vocal": [GridNote(0, 16, 60)]
        }, [])],
    )
    assert np.array_equal(beat_sync_features(one), beat_sync_features(two))


def test_beat_sync_features_empty_song():
    song = GridSong(source_id="e", genre="Pop", bars=[])
    assert beat_sync_features(song).shape == (0, 128)


def test_novelty_matches_brute_force():
    feats = blocky_features([(12, (0, 1)), (12, (7, 8))])
    width = 8
    half = width // 2
    offsets = np.arange(-half, half) + 0.5
    taper = np.exp(-(offsets**2) / (2 * (half / 2) ** 2))
    kernel = np.outer(np.sign(offsets) * taper, np.sign(offsets) * taper)
    kernel /= np.abs(kernel).sum()
    ssm = feats @ feats.T
    n = len(feats)
    for t in range(n):
        total = 0.0
        for i in range(width):
            for j in range(width):
                r = min(max(t - half + i, 0), n - 1)
                c = min(max(t - half + j, 0), n - 1)
                total += kernel[i, j] * ssm[r, c]
        assert novelty_curve(feats, width)[t] == pytest.approx(total, abs=1e-12)


def test_foote_finds_block_seam():
    feats = blocky_features([(16, (0, 1, 2)), (16, (9, 10, 11))])
    assert foote_boundaries(feats, kernel_width=8) == [0, 16, 32]


def test_foote_constant_features_yield_single_segment():
    feats = blocky_features([(32, (5, 6))])
    assert foote_boundaries(feats, kernel_width=8) == [0, 32]


def test_foote_short_input():
    feats = blocky_features([(4, (0,))])
    assert foote_boundaries(feats, kernel_width=16) == [0, 4]


def test_signatures_invariant_to_circular_shift():
    base = np.zeros((16, 128))
    base[::4, 60] = 1.0
    base[2::4, 64] = 1.0
    shifted = np.roll(base, 3, axis=0)
    sig = segment_signatures(np.vstack([base, shifted]), [0, 16, 32])
    assert np.abs(sig[0] - sig[1]).max() < 1e-6


def test_labeling_identical_segments_share_label():
    a = blocky_features([(16, (0, 1, 2, 3))])
    b = np.zeros((16, 128)); b[::2, 40] = 1.0
    labels = label_segments_2dfmc(np.vstack([a, b, a]), [0, 16, 32, 48])
    assert labels[0] == labels[2] != labels[1]


def test_labeling_single_segment():
    a = blocky_features([(8, (0,))])
    assert label_segments_2dfmc(a, [0, 8]) == ["0"]


def test_structure_estimate_validation():
    with pytest.raises(ValueError):
        StructureEstimate((0.0,), ())
    with pytest.raises(ValueError):
        StructureEstimate((0.0, 2.0, 1.0), ("a", "b"))
    with pytest.raises(ValueError):
        StructureEstimate((1.0, 2.0), ("a",))
    with pytest.raises(ValueError):
        StructureEstimate((0.0, 2.0), ("a", "b"))


def test_reference_structure_merges_runs():
    ref = reference_structure(["intro"] * 2 + ["verse"] * 2, 120.0)
    assert ref.labels == ("intro", "verse")
    assert ref.boundaries == (0.0, 4.0, 8.0)


def test_scores_identity():
    ref = reference_structure(["intro"] * 4 + ["verse"] * 8 + ["chorus"] * 8, 115.0)
    assert structure_scores(ref, ref) == (1.0, 1.0, 1.0)
    single = StructureEstimate((0.0, 12.5), ("only",))
    assert structure_scores(single, single) == (1.0, 1.0, 1.0)


def test_boundary_tolerance_contract():
    ref = StructureEstimate((0.0, 20.0, 40.0), ("a", "b"))
    assert boundary_hit_rate(StructureEstimate((0.0, 22.9, 40.0), ("a", "b")), ref) == 1.0
    assert boundary_hit_rate(StructureEstimate((0.0, 23.1, 40.0), ("a", "b")), ref) == 0.0


def test_boundary_matching_is_one_to_one():
    ref = StructureEstimate((0.0, 10.0, 12.0, 40.0), ("a", "b", "c"))
    est = StructureEstimate((0.0, 11.0, 40.0), ("a", "b"))
    # one est boundary can match only one of the two nearby ref boundaries
    assert boundary_hit_rate(est, ref) == pytest.approx(2 * 1.0 * 0.5 / 1.5)


def test_pairwise_brute_force_on_toy_case():
    ref = StructureEstimate((0.0, 10.0, 20.0, 30.0, 40.0), ("a", "b", "a", "b"))
    est = StructureEstimate((0.0, 40.0), ("x",))
    n = 400
    pairs = n * (n - 1) / 2
    same_ref = 2 * (200 * 199 / 2)
    precision = same_ref / pairs
    assert pairwise_f(est, ref) == pytest.approx(
        2 * precision / (precision + 1.0), abs=1e-12
    )


def test_entropy_scores_degenerate_conventions():
    ref = StructureEstimate((0.0, 10.0, 20.0), ("a", "b"))
    trivial = StructureEstimate((0.0, 20.0), ("x",))
    assert entropy_scores_f(trivial, ref) == 0.0
    assert entropy_scores_f(trivial, trivial) == 1.0


def test_duration_mismatch_rejected():
    a = StructureEstimate((0.0, 10.0), ("a",))
    b = StructureEstimate((0.0, 30.0), ("a",))
    with pytest.raises(ValueError, match="duration"):
        structure_scores(a, b)


def test_aab_piece_scores():
    song = aab_song(section_bars=8)
    bpm = song_tempo_bpm(song)
    feats = beat_sync_features(song)
    # foote against the audible seam (the two As are indistinguishable)
    est_beats = foote_boundaries(feats, kernel_width=16)
    assert est_beats == [0, 64, 96]
    # oracle labeling at the intended three segments pairs the As
    ref = reference_structure(["verse"] * 16 + ["chorus"] * 8, bpm)
    ref3 = StructureEstimate(
        boundaries=(0.0, 8 * 4 * 60 / bpm, 16 * 4 * 60 / bpm, 24 * 4 * 60 / bpm),
        labels=("A", "A", "B"),
    )
    pwf, sf = oracle_scores(song, ref3)
    assert pwf == 1.0 and sf == 1.0
    est = estimate_structure(song)
    hr3f, pwf, sf = structure_scores(est, ref)
    assert hr3f == 1.0
    assert pwf == 1.0 and sf == 1.0


def test_estimate_structure_end_to_end_durations():
    song = aab_song(section_bars=8)
    est = estimate_structure(song)
    beat = 60.0 / song_tempo_bpm(song)
    assert est.boundaries[-1] == pytest.approx(24 * 4 * beat)


def test_oracle_distinct_sections_score_below_trivial_estimate():
    # a reference intending repeats: labeling every segment differently
    # scores lower PWF than the single-label trivial estimate
    ref = StructureEstimate((0.0, 10.0, 20.0, 30.0, 40.0), ("a", "b", "a", "b"))
    distinct = StructureEstimate((0.0, 10.0, 20.0, 30.0, 40.0), ("w", "x", "y", "z"))
    trivial = StructureEstimate((0.0, 40.0), ("all",))
    assert pairwise_f(distinct, ref) < pairwise_f(trivial, ref)


def test_oracle_single_segment_reference():
    from synthcorpus import aab_song

    song = aab_song(section_bars=2)
    from sympac.structure import song_tempo_bpm

    beat = 60.0 / song_tempo_bpm(song)
    ref = StructureEstimate((0.0, 24 * beat), ("one",))
    pwf, sf = oracle_scores(song, ref)
    assert pwf == 1.0 and sf == 1.0


def test_foote_finds_all_seams_of_permuted_blocks():
    # four orthogonal 16-beat blocks in ABCB order: a seam at every edge
    a = blocky_features([(16, (0, 1))])
    b = blocky_features([(16, (40, 41))])
    c = blocky_features([(16, (80, 81))])
    feats = np.vstack([a, b, c, b])
    assert foote_boundaries(feats, kernel_width=8) == [0, 16, 32, 48, 64]


def reference_pairwise_f(est, ref):
    """Pairwise F from explicit n x n frame-agreement matrices."""
    n = int(round(min(est.duration, ref.duration) / FRAME_SECONDS))
    if n < 2:
        return 1.0 if est.labels == ref.labels else 0.0
    y_est = _frame_labels(est, n)
    y_ref = _frame_labels(ref, n)
    agree_est = np.equal.outer(y_est, y_est)
    agree_ref = np.equal.outer(y_ref, y_ref)
    n_est = (agree_est.sum() - n) / 2.0
    n_ref = (agree_ref.sum() - n) / 2.0
    n_both = (np.logical_and(agree_est, agree_ref).sum() - n) / 2.0
    if n_est == 0 and n_ref == 0:
        return 1.0
    if n_est == 0 or n_ref == 0:
        return 0.0
    return _f_measure(n_both / n_est, n_both / n_ref)


def reference_entropy_scores_f(est, ref):
    """Conditional-entropy F from a contingency table filled frame by
    frame and entropies summed column by column."""
    n = max(int(round(min(est.duration, ref.duration) / FRAME_SECONDS)), 1)
    y_est = _frame_labels(est, n)
    y_ref = _frame_labels(ref, n)
    ref_classes = np.unique(y_ref)
    est_classes = np.unique(y_est)
    if len(ref_classes) == 1 and len(est_classes) == 1:
        return 1.0
    ref_index = {c: i for i, c in enumerate(ref_classes)}
    est_index = {c: i for i, c in enumerate(est_classes)}
    joint = np.zeros((len(ref_classes), len(est_classes)))
    for a, b in zip(y_ref, y_est):
        joint[ref_index[a], est_index[b]] += 1
    joint /= n

    def cond_entropy(table):
        total = 0.0
        for j in range(table.shape[1]):
            column = table[:, j]
            mass = column.sum()
            if mass <= 0:
                continue
            p = column / mass
            total += mass * -np.sum(p[p > 0] * np.log2(p[p > 0]))
        return total

    s_under = (
        1.0 - cond_entropy(joint) / math.log2(len(ref_classes))
        if len(ref_classes) > 1 else 0.0
    )
    s_over = (
        1.0 - cond_entropy(joint.T) / math.log2(len(est_classes))
        if len(est_classes) > 1 else 0.0
    )
    return _f_measure(s_over, s_under)


@st.composite
def segmentations(draw, duration):
    inner = draw(
        st.lists(st.floats(0.0, duration, exclude_min=True, exclude_max=True), max_size=8)
    )
    boundaries = (0.0, *sorted(set(inner)), duration)
    labels = draw(
        st.lists(st.sampled_from("abcd"), min_size=len(boundaries) - 1,
                 max_size=len(boundaries) - 1)
    )
    return StructureEstimate(boundaries, tuple(labels))


@st.composite
def segmentation_pairs(draw):
    # Durations down to a fraction of a frame reach the n < 2 rule; the
    # second side may run longer, so only the shared span is scored.
    duration = draw(st.sampled_from([0.04, 0.1, 0.15, 1.0]) | st.floats(0.2, 90.0))
    extra = draw(st.sampled_from([0.0, 0.0, 0.05, 2.5]))
    return draw(segmentations(duration)), draw(segmentations(duration + extra))


@settings(max_examples=300, deadline=None)
@given(segmentation_pairs())
def test_contingency_scores_match_frame_references(pair):
    est, ref = pair
    assert pairwise_f(est, ref) == reference_pairwise_f(est, ref)
    assert abs(entropy_scores_f(est, ref) - reference_entropy_scores_f(est, ref)) <= 1e-12


def first_appearance(labels):
    """Labels renamed 0, 1, ... in order of first appearance."""
    names = {}
    return [names.setdefault(label, len(names)) for label in labels]


@st.composite
def linkage_cases(draw):
    """(points, threshold) for the three shapes segment signatures take:
    distinct float rows, repeated rows (repeated sections), and integer
    rows whose tied distances and merge heights the threshold may hit
    exactly."""
    n = draw(st.integers(2, 12))
    kind = draw(st.sampled_from(["float", "repeated", "integer"]))
    if kind == "integer":
        dim = draw(st.integers(1, 2))
        cell = st.integers(0, 3).map(float)
        points = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                                        min_size=n, max_size=n)))
        threshold = draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, math.sqrt(2), math.sqrt(5)]))
        return points, threshold
    dim = draw(st.integers(1, 40))
    cell = st.floats(0.0, 1.0)
    rows = n if kind == "float" else draw(st.integers(1, 4))
    base = np.array(draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                                  min_size=rows, max_size=rows)))
    if kind == "repeated":
        base = base[draw(st.lists(st.integers(0, rows - 1), min_size=n, max_size=n))]
    return base, draw(st.floats(0.0, 2.0))


def test_average_linkage_matches_scipy():
    hierarchy = pytest.importorskip("scipy.cluster.hierarchy")

    @settings(max_examples=300, deadline=None)
    @given(linkage_cases())
    def check(case):
        points, threshold = case
        with warnings.catch_warnings():  # a square symmetric input looks like distances
            warnings.simplefilter("ignore", hierarchy.ClusterWarning)
            tree = hierarchy.linkage(points, method="average", metric="euclidean")
        expected = hierarchy.fcluster(tree, t=threshold, criterion="distance")
        got = _average_linkage_clusters(points, threshold)
        assert first_appearance(got) == first_appearance(expected)

    check()


def test_estimate_structure_runs_without_scipy():
    import sympac

    src = os.path.dirname(os.path.dirname(sympac.__file__))
    tests = os.path.dirname(__file__)
    probe = (
        "import sys; sys.modules['scipy'] = None\n"
        "from synthcorpus import aab_song\n"
        "from sympac.structure import estimate_structure\n"
        "print(estimate_structure(aab_song(section_bars=8)).labels)"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, tests])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "('0', '1')"
