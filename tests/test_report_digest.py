"""Golden KLD reports: SHA-256 digests of ``class_report`` renderings.

Each case compares two seeded corpora and hashes the report's JSON
(keys sorted), text and CSV.  The random-song corpora play all four
melodic tracks and drums, so every metric is observed; the last case
drops guitar from one side, so its metrics and class render as n/a.
A refactor of the metric code must keep every digest.
"""

import hashlib
import json

import numpy as np
import pytest

from sympac.metrics import ALL_METRICS, METRIC_DISPLAY, class_report
from synthcorpus import chord_corpus, random_grid_song


def chords(seed):
    return chord_corpus(np.random.default_rng(seed), 8)


def random_songs(seed):
    rng = np.random.default_rng(seed)
    return [random_grid_song(rng) for _ in range(12)]


def without_guitar(corpus):
    for song in corpus:
        for bar in song.bars:
            bar.tracks.pop("guitar", None)
    return corpus


CASES = {
    "chords0_vs_chords1": lambda: (chords(0), chords(1)),
    "random2_vs_chords0": lambda: (random_songs(2), chords(0)),
    "random3_vs_random4": lambda: (random_songs(3), random_songs(4)),
    "chords0_no_guitar_vs_chords1": lambda: (without_guitar(chords(0)), chords(1)),
}

GOLDEN = {
    "chords0_vs_chords1": (
        "ede3babd9a64bfd2b879c1833f1a98e6f17407439eae649094595efa15cd6aba",
        "4521aa63d64070f600bd96d2b441eed2f953988dbc17a9f30f25507d4d4950be",
        "83b0264b64b490ea62de603f0e9d80d1f23cd50c052aa51a7bcf379d3f69080f",
    ),
    "random2_vs_chords0": (
        "c544224337960f183201718b51b79f84460e05a12cfa92c483e88592ef61c24c",
        "9278c25d90803a68e7396627fb22c898332c705503be0ac5d7d084bebe9ab25d",
        "c311f29823fcad181b1fb55b6fe186a035ad49174afc58d8e2a16c22d56c6a31",
    ),
    "random3_vs_random4": (
        "5cf2da702befa0bba21e379bb43973b64ad66879db693744571d7a37dcc59518",
        "2fcaa1b01174b22e80de9571d4860c97475756f4d473368ec0e7903dcb319486",
        "6a80aa8d41f0f7e128107791c1f58cbe00f6d82c9eab320af472aaa2de33ce20",
    ),
    "chords0_no_guitar_vs_chords1": (
        "6ea4e30ea81c3ce8af1017560d8c129d4051ae08355edd35141bf3f57f92d37d",
        "005f6b7b3c3b2d88eca3f72a5162b1b1c7f116697e3ce570107ae12f8ead7b0c",
        "251b3389ec8348c0f51e522a6c58c7b38fa98141939692266a38100d50496cff",
    ),
}


def digests(report) -> tuple[str, str, str]:
    renderings = (
        json.dumps(report.to_json(), sort_keys=True),
        report.to_text(),
        report.to_csv(),
    )
    return tuple(hashlib.sha256(r.encode()).hexdigest() for r in renderings)


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_digest(case):
    gen, ref = CASES[case]()
    assert digests(class_report(gen, ref)) == GOLDEN[case]


def test_display_names_cover_exactly_the_metrics():
    assert len(METRIC_DISPLAY) == len(ALL_METRICS)
    assert set(METRIC_DISPLAY) == set(ALL_METRICS)
