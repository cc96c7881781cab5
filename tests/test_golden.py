"""Golden outputs: SHA-256 digests of sampled token streams.

Each digest covers four seeds of one (model, control, sampler setting)
cell.  A change that keeps every digest keeps every sampled song byte
for byte; a digest that moves means the change altered what a seed
produces, which performance and refactoring work must never do.
"""

import hashlib

import numpy as np
import pytest

from sympac.encoding import encode_song, tokens_to_bytes
from sympac.fsm import ControlSpec, build_rules, parse_chords_arg, parse_structure_arg
from sympac.lm import UniformModel, train_ngram
from sympac.sampler import SamplerConfig, constrained_sample
from synthcorpus import chord_corpus

SEEDS = (0, 1, 2, 3)
MAX_TOKENS = 4000

CONTROLS = {
    "none": None,
    "chords_structure_genre": ControlSpec(
        genre="Pop",
        sections=parse_structure_arg("intro*2,verse*4,chorus*4,outro*2"),
        chords=parse_chords_arg("F,C,G,A:min"),
    ),
    "schedule_tracks": ControlSpec(
        chord_schedule=((0, 0, "C"), (0, 8, "G"), (1, 0, "A:min"), (2, 0, "F"), (3, 4, "C")),
        n_bars=4,
        allowed_tracks=frozenset({"piano", "bass", "drums"}),
        forced_tracks=frozenset({"bass"}),
    ),
}

SETTINGS = {
    "default": {},
    "t0.7_k8": {"temperature": 0.7, "top_k": 8},
    "t1.3_k20": {"temperature": 1.3, "top_k": 20},
    "p0.9": {"top_p": 0.9},
    "t1.3_k20_p0.8": {"temperature": 1.3, "top_k": 20, "top_p": 0.8},
}

GOLDEN = {
    "ngram5/none/default": "eabbabdf615bab9f0a87feb2c5efcd32395a8da14ee5c4177b82e32e1cf0caab",
    "ngram5/none/t0.7_k8": "86cb35f7f736681576fe603c43e686a07845fcc7f7d230f0cb060acb185ba3a0",
    "ngram5/none/t1.3_k20": "aad81e3916f6a70e1007a80912fdbe8f46264cfa5d519c2f812fdbe20985f26c",
    "ngram5/none/p0.9": "f6361248e2cee274be771ae8b20430036196b77a0077bc1ada3025b1dd02072c",
    "ngram5/none/t1.3_k20_p0.8": "164a3dcebe24593294cef51930d3137b2224f259616e464999335923551975f7",
    "ngram5/chords_structure_genre/default": "8f09c1ac6835375b75c9b70637bc902f9c18711b646d3d95e1d68971068dc8d3",
    "ngram5/chords_structure_genre/t0.7_k8": "2a2fbb6219c38d40e215c88939042c53edc7b8bdf2151ce8f8fc494cd0d1d647",
    "ngram5/chords_structure_genre/t1.3_k20": "b7992873783c99319f66e063a1ccdd303fcc8cec4e6e7e5291232a3ea694537c",
    "ngram5/chords_structure_genre/p0.9": "eb8b9a02738be8b0ab4b5f4d9ce07baa7d5200624b31449279f54692bcf0b5a0",
    "ngram5/chords_structure_genre/t1.3_k20_p0.8": "eb8b9a02738be8b0ab4b5f4d9ce07baa7d5200624b31449279f54692bcf0b5a0",
    "ngram5/schedule_tracks/default": "112c2fc9293bbb5d0739ecbe96bdb9141acddcb8c33257d99811693f06de5b42",
    "ngram5/schedule_tracks/t0.7_k8": "558d9bc7fb44052ab7c40d5015d5a761b2972f00e3fd3c6e391e18b8ce3691bc",
    "ngram5/schedule_tracks/t1.3_k20": "25a8a9d1f9cc7dfaeb4d3081b420a670c71ec1fb8c659fb158bee5163a508355",
    "ngram5/schedule_tracks/p0.9": "855ad3898fef7de8532492f9998b2dd232b06946d7f951a11f0d5a21f7adacea",
    "ngram5/schedule_tracks/t1.3_k20_p0.8": "5fc4f3c2439cbad4b120c313c6f56f4937ae7ff1ec4439d38a989e2e45c34dd7",
    "uniform/none/default": "9143060ffd9fcd70bd4724390a3e372dda2bfb8a56c4c5d942996d3efa0845bb",
    "uniform/none/t0.7_k8": "54f1a438546e9453e021faadaaf5c4512939125b15f6a35fa772b3fd3d47ed9e",
    "uniform/none/t1.3_k20": "a63339cb67e79cdff420c157d2aa4b68aa6779dc19f0ce1540d0125b38bff564",
    "uniform/none/p0.9": "863be1c1f3fa6a372007af672cab2746968cb4132818d0125899dc438eaa9d60",
    "uniform/none/t1.3_k20_p0.8": "cf08f401ab449123684268d40734006cab51b5dbee21dbbe0d51033c61051f18",
    "uniform/chords_structure_genre/default": "3fd3c6288927a223d65bb53a49a4dc521bf8c5267d0f2cedb4306cc86dfc12fa",
    "uniform/chords_structure_genre/t0.7_k8": "ca7a63f2cfcd7ca8cc29e37b2174dd648fca478a7c88cf73b6dbcf8c9564b6fc",
    "uniform/chords_structure_genre/t1.3_k20": "e66dad509f84554f3123fe26f4e907d5718fd1f49356767b47e9e86a80cc7cd1",
    "uniform/chords_structure_genre/p0.9": "19ab03d595ea6d505b9c34855bddcec144e0f4f9c7595b794b60ea6279a2e793",
    "uniform/chords_structure_genre/t1.3_k20_p0.8": "6f6500a944bfea7d5b65588fb07ea57198f45e424609b34e7452150c1ea83b4b",
    "uniform/schedule_tracks/default": "885e3a8dfbcf64a50259daf88ccdc6f6c009d961e8970a4ea2d654e4209e23f2",
    "uniform/schedule_tracks/t0.7_k8": "127de7e121eb87ae665e3e888fe2569505bc4c40a5f637b8c1e21012325410ce",
    "uniform/schedule_tracks/t1.3_k20": "37062fb182137d323ba50c0b991c6e51836ac2c118a07b10e05b974e642c5040",
    "uniform/schedule_tracks/p0.9": "14e6fcfc094c9d89b166fb2ab78bfb9a82daaa46ef8a96af9ae802b17f0ea728",
    "uniform/schedule_tracks/t1.3_k20_p0.8": "1a4c7d8e8df3ef2478ba7fae9343d63f9f58f953357e7f0a618ba35b7962a93d",
}


@pytest.fixture(scope="module")
def models():
    corpus = [encode_song(s) for s in chord_corpus(np.random.default_rng(0), 20)]
    return {"ngram5": train_ngram(corpus, order=5), "uniform": UniformModel()}


def cell_digest(model, control, setting: dict) -> str:
    digest = hashlib.sha256()
    rules = build_rules()
    for seed in SEEDS:
        config = SamplerConfig(rng_seed=seed, max_tokens=MAX_TOKENS, **setting)
        result = constrained_sample(model, rules, control, config)
        digest.update(tokens_to_bytes(result.tokens))
        digest.update(b"T" if result.truncated else b"F")
    return digest.hexdigest()


CELLS = [
    (m, c, s) for m in ("ngram5", "uniform") for c in CONTROLS for s in SETTINGS
]


@pytest.mark.parametrize("model_name,control_name,setting_name", CELLS)
def test_sampled_streams_match_golden_digest(models, model_name, control_name, setting_name):
    got = cell_digest(models[model_name], CONTROLS[control_name], SETTINGS[setting_name])
    assert got == GOLDEN[f"{model_name}/{control_name}/{setting_name}"]
