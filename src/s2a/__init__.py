"""Score-to-audio toolkit: expressive performance rendering, deterministic
piano synthesis, and objective evaluation.

Importing s2a before numpy sets BLAS to one thread unless the environment
says otherwise: a product split between BLAS threads rounds differently, so
outputs would depend on the core count. Training, rendering and the audio
path use a second core through one worker thread of their own
(s2a.parallel).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .align import AlignmentMap, align_notes
from .checkpoint import load_checkpoint, save_checkpoint
from .metrics import MetricReport, evaluate_m2m
from .midi_io import NoteEvent, NoteSequence, parse_smf, resample_grid, write_smf
from .model import M2MConfig, M2MModel, forward, init_model, predict_performance, sample
from .synth import Waveform, chromagram, midi_spectrogram, render_audio, write_wav
from .tokenizer import TokenSegment, TokenTuple, VocabSpec, detokenize, segment, tokenize
from .trainer import TrainConfig, train

__version__ = "0.1.0"

__all__ = [
    "AlignmentMap",
    "M2MConfig",
    "M2MModel",
    "MetricReport",
    "NoteEvent",
    "NoteSequence",
    "TokenSegment",
    "TokenTuple",
    "TrainConfig",
    "VocabSpec",
    "Waveform",
    "align_notes",
    "chromagram",
    "detokenize",
    "evaluate_m2m",
    "forward",
    "init_model",
    "load_checkpoint",
    "midi_spectrogram",
    "parse_smf",
    "predict_performance",
    "render_audio",
    "resample_grid",
    "sample",
    "save_checkpoint",
    "segment",
    "tokenize",
    "train",
    "write_smf",
    "write_wav",
]
