"""Multi-track symbolic music tokenization, constrained generation, and
evaluation.

The pipeline: parse MIR annotations or MIDI into a time-domain song,
quantize to a 16-step bar grid, encode as prompt-bar/song-bar token
sequences, train or plug in a next-token model, sample under a
grammar-and-controls state machine, and evaluate with chroma chord
detection, distribution divergences, and structure scores.
"""

__version__ = "0.1.0"

from .chroma import TemplateBank, bar_chroma, chord_accuracy, detect_chord, ideal_bank, learn_templates
from .encoding import (
    decode_sequence,
    encode_song,
    read_corpus,
    read_token_file,
    tokens_from_bytes,
    tokens_to_bytes,
    validate,
    write_corpus,
    write_token_file,
)
from .errors import (
    ConstraintConflictError,
    ControlError,
    DecodeError,
    EmptySongError,
    ModelFormatError,
    ParseError,
    SympacError,
    UnsupportedFormatError,
    ValidationError,
)
from .fsm import (
    ControlSpec,
    FsmState,
    RuleSet,
    build_rules,
    initial_state,
    update_state,
)
from .ingest import (
    AnnotatedSong,
    BeatEvent,
    ChordSpan,
    DrumHit,
    GridBar,
    GridNote,
    GridSong,
    NoteEvent,
    SectionSpan,
    bpm_level_of,
    parse_annotations,
    quantize_to_grid,
    render_annotations,
    serialize_annotations,
)
from .lm import NgramModel, UniformModel, load_model, perplexity, save_model, train_ngram
from .metrics import MetricDistribution, class_report, extract_metric, kld
from .sampler import SampleResult, SamplerConfig, constrained_sample
from .smf import export_smf, import_smf
from .structure import (
    StructureEstimate,
    beat_sync_features,
    estimate_structure,
    foote_boundaries,
    label_segments_2dfmc,
    oracle_scores,
    structure_scores,
)
from .vocab import Token, Vocab, build_vocab
