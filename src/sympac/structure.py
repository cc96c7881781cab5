"""Structure estimation and segment-agreement scores for generated songs.

A song becomes a beat-synchronous piano-roll embedding; boundaries come
from novelty peaks of a checkerboard kernel slid along the
self-similarity diagonal; segments are labeled by clustering their 2D
Fourier-magnitude signatures (translation-invariant, so repeats of the
same material land in one cluster).  Estimates are compared with a
boundary hit-rate F-measure at 3 seconds tolerance, the pairwise
frame-clustering F-measure, and the normalized conditional-entropy
F-measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ingest import GridSong
from .vocab import BPM_BUCKET_MIDPOINTS, MELODIC_TRACKS, N_STEPS

# The scorer's fixed settings.
DEFAULT_KERNEL_WIDTH = 16
PEAK_SIGMA = 1.0
RESAMPLE_BEATS = 32
CLUSTER_THRESHOLD = 0.35
BOUNDARY_TOLERANCE_SECONDS = 3.0
DURATION_TOLERANCE_SECONDS = 1.0
FRAME_SECONDS = 0.1


@dataclass(frozen=True)
class StructureEstimate:
    """Segment boundaries in seconds (starting at 0, ending at the song
    end) and one cluster label per segment."""

    boundaries: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.boundaries) < 2:
            raise ValueError("need at least the 0 and end boundaries")
        if any(b >= a for a, b in zip(self.boundaries[1:], self.boundaries)):
            raise ValueError("boundaries must be strictly increasing")
        if self.boundaries[0] != 0.0:
            raise ValueError("boundaries must start at 0")
        if len(self.labels) != len(self.boundaries) - 1:
            raise ValueError("need one label per segment")

    @property
    def duration(self) -> float:
        return self.boundaries[-1]


def song_tempo_bpm(song: GridSong) -> float:
    """Representative tempo: the first bar's bucket midpoint."""
    if not song.bars:
        raise ValueError("song has no bars")
    return BPM_BUCKET_MIDPOINTS[song.bars[0].bpm_level]


def beat_sync_features(song: GridSong) -> np.ndarray:
    """(beats x 128) embedding: the binary step-level piano roll of all
    melodic tracks averaged over the 4 steps of each beat, rows
    L2-normalized (silent beats stay zero)."""
    n_steps = N_STEPS * len(song.bars)
    if n_steps == 0:
        return np.zeros((0, 128))
    roll = np.zeros((n_steps, 128))
    for bar_idx, bar in enumerate(song.bars):
        base = bar_idx * N_STEPS
        for label in MELODIC_TRACKS:
            for note in bar.tracks.get(label, ()):
                start = base + note.step
                roll[start : min(start + note.duration, n_steps), note.pitch] = 1.0
    beats = roll.reshape(n_steps // 4, 4, 128).mean(axis=1)
    norms = np.linalg.norm(beats, axis=1, keepdims=True)
    np.divide(beats, norms, out=beats, where=norms > 0)
    return beats


def _checkerboard_kernel(width: int) -> np.ndarray:
    half = width // 2
    offsets = np.arange(-half, half) + 0.5
    sign = np.sign(offsets)
    taper = np.exp(-(offsets**2) / (2.0 * (half / 2.0) ** 2))
    kernel = np.outer(sign * taper, sign * taper)
    return kernel / np.abs(kernel).sum()


def novelty_curve(features: np.ndarray, kernel_width: int = DEFAULT_KERNEL_WIDTH) -> np.ndarray:
    """Checkerboard-kernel correlation along the self-similarity diagonal.

    ``novelty[t]`` measures the boundary between beats t-1 and t; the
    similarity matrix is edge-padded so the ends stay quiet.
    """
    if kernel_width < 2 or kernel_width % 2:
        raise ValueError("kernel_width must be even and >= 2")
    n = len(features)
    ssm = features @ features.T
    half = kernel_width // 2
    padded = np.pad(ssm, half, mode="edge")
    kernel = _checkerboard_kernel(kernel_width)
    out = np.empty(n)
    for t in range(n):
        window = padded[t : t + kernel_width, t : t + kernel_width]
        out[t] = float(np.sum(kernel * window))
    return out


def foote_boundaries(features: np.ndarray, kernel_width: int = DEFAULT_KERNEL_WIDTH) -> list[int]:
    """Boundary beat indices including the implicit 0 and end.

    Novelty peaks must exceed mean + PEAK_SIGMA * std and respect a
    minimum gap of half the kernel width; a feature matrix shorter than
    the kernel yields a single segment.
    """
    n = len(features)
    if n == 0:
        return [0]
    if n < kernel_width:
        return [0, n]
    novelty = novelty_curve(features, kernel_width)
    threshold = novelty.mean() + PEAK_SIGMA * novelty.std()
    peaks = [
        t
        for t in range(1, n)
        if novelty[t] > threshold
        and novelty[t] >= novelty[t - 1]
        and (t + 1 >= n or novelty[t] >= novelty[t + 1])
    ]
    min_gap = kernel_width // 2
    chosen: list[int] = []
    for t in sorted(peaks, key=lambda t: -novelty[t]):
        if all(abs(t - c) >= min_gap for c in chosen):
            chosen.append(t)
    return [0] + sorted(chosen) + [n]


def _resample_patch(patch: np.ndarray, n_rows: int) -> np.ndarray:
    # Nearest-index resampling commutes with circular time shifts when
    # n_rows is a multiple of the patch length, keeping the Fourier
    # signature exactly shift-invariant for the common segment sizes.
    rows = len(patch)
    if rows == n_rows:
        return patch
    idx = (np.arange(n_rows) * rows) // n_rows
    return patch[idx]


def segment_signatures(features: np.ndarray, boundaries: list[int]) -> np.ndarray:
    """Translation-invariant signature per segment: the 2D Fourier
    magnitude of the segment patch resampled to a fixed size."""
    signatures = []
    for lo, hi in zip(boundaries, boundaries[1:]):
        patch = _resample_patch(features[lo:hi], RESAMPLE_BEATS)
        magnitude = np.abs(np.fft.fft2(patch)).ravel()
        norm = np.linalg.norm(magnitude)
        signatures.append(magnitude / norm if norm > 0 else magnitude)
    return np.asarray(signatures)


def _average_linkage_clusters(points: np.ndarray, threshold: float) -> list[int]:
    """Flat clusters of the rows of ``points``: average-linkage (UPGMA)
    agglomeration over Euclidean distances, joining every merge made at
    a height of at most ``threshold``.  Returns one cluster id per row.

    Ties make the merge order matter, so it is fixed: a nearest-neighbour
    chain starts at the lowest active cluster, a tie goes to the chain's
    previous element and then to the lowest index, and a merged pair
    lives on at the higher index.  Each distance sums its squared
    differences in index order.  These are the rules of the reference
    implementation the tests compare labels with, ties included.
    """
    n = len(points)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n - 1):
        diff = points[i + 1 :] - points[i]
        row = np.sqrt(np.cumsum(diff * diff, axis=1)[:, -1]).tolist()
        for j, d in enumerate(row, i + 1):
            dist[i][j] = dist[j][i] = d
    size = [1] * n  # 0 once a cluster has merged into another
    labels = list(range(n))
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain.append(next(i for i in range(n) if size[i]))
        while True:
            x = chain[-1]
            row = dist[x]
            prev = chain[-2] if len(chain) > 1 else None
            y, height = prev, (math.inf if prev is None else row[prev])
            for i in range(n):
                if size[i] and i != x and row[i] < height:
                    y, height = i, row[i]
            if y == prev:
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        nx, ny = size[x], size[y]
        size[x], size[y] = 0, nx + ny
        for i in range(n):
            if size[i] and i != y:
                dist[i][y] = dist[y][i] = (nx * dist[i][x] + ny * dist[i][y]) / (nx + ny)
        if height <= threshold:
            joined, kept = labels[x], labels[y]
            labels = [kept if label == joined else label for label in labels]
    return labels


def label_segments_2dfmc(features: np.ndarray, boundaries: list[int]) -> list[str]:
    """Cluster segment signatures agglomeratively; labels are cluster
    ids renumbered in order of first appearance."""
    n_segments = len(boundaries) - 1
    if n_segments < 1:
        raise ValueError("need at least one segment")
    if n_segments == 1:
        return ["0"]
    signatures = segment_signatures(features, boundaries)
    raw = _average_linkage_clusters(signatures, CLUSTER_THRESHOLD)
    remap: dict[int, str] = {}
    labels = []
    for cluster in raw:
        if cluster not in remap:
            remap[cluster] = str(len(remap))
        labels.append(remap[cluster])
    return labels


def estimate_structure(song: GridSong) -> StructureEstimate:
    """Full pipeline on a song: features, boundaries, labels, seconds."""
    features = beat_sync_features(song)
    boundaries = foote_boundaries(features)
    labels = label_segments_2dfmc(features, boundaries)
    beat = 60.0 / song_tempo_bpm(song)
    return StructureEstimate(
        boundaries=tuple(b * beat for b in boundaries), labels=tuple(labels)
    )


def reference_structure(sections: list[str], bpm: float) -> StructureEstimate:
    """Intended structure (one section label per bar) in seconds, at 4
    beats per bar."""
    if not sections:
        raise ValueError("sections must be non-empty")
    bar_seconds = 4 * 60.0 / bpm
    boundaries = [0.0]
    labels = []
    for i, label in enumerate(sections):
        if not labels or labels[-1] != label:
            if labels:
                boundaries.append(i * bar_seconds)
            labels.append(label)
    boundaries.append(len(sections) * bar_seconds)
    return StructureEstimate(boundaries=tuple(boundaries), labels=tuple(labels))


def _frame_labels(est: StructureEstimate, n_frames: int) -> np.ndarray:
    bounds = np.asarray(est.boundaries)
    times = (np.arange(n_frames) + 0.5) * FRAME_SECONDS
    segment = np.clip(np.searchsorted(bounds, times, side="right") - 1, 0, len(est.labels) - 1)
    labels = {lab: i for i, lab in enumerate(dict.fromkeys(est.labels))}
    codes = np.asarray([labels[lab] for lab in est.labels])
    return codes[segment]


def _f_measure(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def boundary_hit_rate(est: StructureEstimate, ref: StructureEstimate) -> float:
    """F-measure of greedy one-to-one interior-boundary matching within
    BOUNDARY_TOLERANCE_SECONDS.  Two trivial segmentations (no interior
    boundaries on either side) count as a perfect match."""
    est_b = list(est.boundaries[1:-1])
    ref_b = list(ref.boundaries[1:-1])
    if not est_b and not ref_b:
        return 1.0
    if not est_b or not ref_b:
        return 0.0
    pairs = sorted(
        ((abs(e - r), i, j) for i, e in enumerate(est_b) for j, r in enumerate(ref_b)),
        key=lambda p: p[0],
    )
    used_e: set[int] = set()
    used_r: set[int] = set()
    hits = 0
    for dist, i, j in pairs:
        if dist > BOUNDARY_TOLERANCE_SECONDS:
            break
        if i in used_e or j in used_r:
            continue
        used_e.add(i)
        used_r.add(j)
        hits += 1
    return _f_measure(hits / len(est_b), hits / len(ref_b))


def _contingency(est: StructureEstimate, ref: StructureEstimate) -> np.ndarray:
    """Frame counts over the shared duration at FRAME_SECONDS (at least
    one frame): one row per reference class present, one column per
    estimated class present."""
    n = max(int(round(min(est.duration, ref.duration) / FRAME_SECONDS)), 1)
    _, ref_idx = np.unique(_frame_labels(ref, n), return_inverse=True)
    _, est_idx = np.unique(_frame_labels(est, n), return_inverse=True)
    rows, cols = ref_idx.max() + 1, est_idx.max() + 1
    return np.bincount(ref_idx * cols + est_idx, minlength=rows * cols).reshape(rows, cols)


def pairwise_f(est: StructureEstimate, ref: StructureEstimate) -> float:
    """Pairwise frame-clustering F-measure at the standard frame rate.

    A frame pair agrees on a side when both frames carry the same class
    there; a class of k frames holds k(k-1)/2 such pairs.
    """
    table = _contingency(est, ref)
    n = int(table.sum())
    if n < 2:
        return 1.0 if est.labels == ref.labels else 0.0
    n_both = (np.sum(table**2) - n) / 2.0
    n_est = (np.sum(table.sum(axis=0) ** 2) - n) / 2.0
    n_ref = (np.sum(table.sum(axis=1) ** 2) - n) / 2.0
    if n_est == 0 and n_ref == 0:
        return 1.0
    if n_est == 0 or n_ref == 0:
        return 0.0
    return _f_measure(n_both / n_est, n_both / n_ref)


def _cond_entropy(joint: np.ndarray) -> float:
    """H(row class | column class) in bits of a joint distribution whose
    columns all carry mass."""
    ratio = joint / joint.sum(axis=0)
    present = joint > 0
    return float(-np.sum(joint[present] * np.log2(ratio[present])))


def entropy_scores_f(est: StructureEstimate, ref: StructureEstimate) -> float:
    """Normalized conditional-entropy F-measure (over/under-segmentation).

    Scores follow the standard definition: S_over = 1 - H(est|ref) /
    log2(#est classes) and S_under symmetrically, each 0 for a trivial
    single-class side facing a non-trivial one.  When both sides are
    single-class the estimates agree perfectly and the score is 1.
    """
    table = _contingency(est, ref)
    n_ref_classes, n_est_classes = table.shape
    if n_ref_classes == 1 and n_est_classes == 1:
        return 1.0
    joint = table / table.sum()
    h_ref_given_est = _cond_entropy(joint)  # rows are reference classes
    h_est_given_ref = _cond_entropy(joint.T)
    s_under = (
        1.0 - h_ref_given_est / math.log2(n_ref_classes) if n_ref_classes > 1 else 0.0
    )
    s_over = (
        1.0 - h_est_given_ref / math.log2(n_est_classes) if n_est_classes > 1 else 0.0
    )
    return _f_measure(s_over, s_under)


def structure_scores(est: StructureEstimate, ref: StructureEstimate) -> tuple[float, float, float]:
    """(HR3F, PWF, Sf) for an estimated against a reference structure;
    their durations may differ by DURATION_TOLERANCE_SECONDS at most."""
    if abs(est.duration - ref.duration) > DURATION_TOLERANCE_SECONDS:
        raise ValueError(
            f"duration mismatch: {est.duration:.2f}s vs {ref.duration:.2f}s"
        )
    return (
        boundary_hit_rate(est, ref),
        pairwise_f(est, ref),
        entropy_scores_f(est, ref),
    )


def oracle_scores(song: GridSong, ref: StructureEstimate) -> tuple[float, float]:
    """(PWF, Sf) when the reference segmentation is given: segments are
    re-labeled from the song's own content at the reference boundaries,
    isolating how similar the repeated sections really are."""
    features = beat_sync_features(song)
    beat = 60.0 / song_tempo_bpm(song)
    n = len(features)
    boundary_beats = sorted({min(n, max(0, int(round(b / beat)))) for b in ref.boundaries})
    if boundary_beats[0] != 0:
        boundary_beats.insert(0, 0)
    if boundary_beats[-1] != n:
        boundary_beats.append(n)
    labels = label_segments_2dfmc(features, boundary_beats)
    seconds = tuple(b * beat for b in boundary_beats)
    est = StructureEstimate(boundaries=seconds, labels=tuple(labels))
    return pairwise_f(est, ref), entropy_scores_f(est, ref)
