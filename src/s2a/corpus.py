"""Synthetic desk-scale corpus: quantized scores plus performer-shaped
"performances" with known ground-truth alignment.

Each performer profile applies a deterministic transform to the score:
phrase-level velocity arches with a profile-specific depth, sinusoidal tempo
rubato on the inter-onset intervals, and an articulation ratio scaling the
durations. The transforms are functions of (score, performer) with a little
per-note seeded noise, so a model conditioned on performer identity has real
structure to learn, and the score-to-performance correspondence is the
identity by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .align import AlignmentMap
from .midi_io import (
    TICKS_PER_BEAT,
    NoteEvent,
    NoteSequence,
    TempoEvent,
    TimeSignatureEvent,
    write_smf,
)
from .tokenizer import (
    SCORE_VELOCITY,
    TokenSegment,
    segment as segment_tokens,
    tokenize,
)

PHRASE_TICKS = 4 * 4 * TICKS_PER_BEAT  # four 4/4 bars


@dataclass(frozen=True)
class PerformerProfile:
    """Expressive fingerprint of one synthetic performer."""

    arch_depth: float  # velocity swing of the phrase arch
    rubato_amplitude: float  # fractional IOI modulation, e.g. 0.2
    articulation: float  # duration scale; < 1 staccato, > 1 legato
    noise: float = 1.5  # per-note velocity jitter (MIDI units)


DEFAULT_PROFILES = (
    PerformerProfile(arch_depth=24.0, rubato_amplitude=0.15, articulation=0.75),
    PerformerProfile(arch_depth=12.0, rubato_amplitude=0.30, articulation=1.10),
    PerformerProfile(arch_depth=32.0, rubato_amplitude=0.08, articulation=0.95),
    PerformerProfile(arch_depth=18.0, rubato_amplitude=0.22, articulation=0.60),
)


@dataclass(frozen=True)
class SyntheticCorpusSpec:
    n_pieces: int = 8
    notes_per_piece: int = 200
    n_performers: int = 2
    seed: int = 0
    profiles: tuple[PerformerProfile, ...] = DEFAULT_PROFILES

    def __post_init__(self):
        for name in ("n_pieces", "notes_per_piece", "n_performers", "seed"):
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if min(self.n_pieces, self.notes_per_piece, self.n_performers, self.seed) < 0:
            raise ValueError("n_pieces, notes_per_piece, n_performers and seed must be >= 0")
        if self.n_performers > len(self.profiles):
            raise ValueError(
                f"need a profile per performer: {self.n_performers} > {len(self.profiles)}"
            )


def generate_score(rng: np.random.Generator, n_notes: int) -> NoteSequence:
    """Quantized score: grid rhythms, random-walk pitches, constant dynamics."""
    notes = []
    onset = 0
    pitch = int(rng.integers(55, 75))
    for i in range(n_notes):
        if i > 0:
            onset += int(rng.choice([0, 24, 48, 48, 96, 96, 192]))
        pitch += int(rng.integers(-5, 6))
        pitch = min(96, max(36, pitch))
        duration = int(rng.choice([24, 48, 96, 144]))
        notes.append(NoteEvent(onset, duration, pitch, SCORE_VELOCITY))
    return NoteSequence(
        ppq=TICKS_PER_BEAT,
        notes=tuple(notes),
        tempi=(TempoEvent(0, 500000),),
        time_signatures=(TimeSignatureEvent(0, 4, 2),),
    )


def perform_score(
    score: NoteSequence, profile: PerformerProfile, rng: np.random.Generator
) -> NoteSequence:
    """Apply a performer profile to a score; note order is preserved, so the
    ground-truth alignment is the identity. The score's tempo and
    time-signature maps are kept and its sustain events dropped."""
    notes = []
    prev_score_onset = None
    prev_perf_onset = 0
    for note in score.notes:
        phase = (note.onset_ticks % PHRASE_TICKS) / PHRASE_TICKS
        arch = math.sin(math.pi * phase)
        velocity = SCORE_VELOCITY + profile.arch_depth * (arch - 0.5)
        velocity += float(rng.normal(0.0, profile.noise))

        if prev_score_onset is None:
            perf_onset = 0
        else:
            ioi = note.onset_ticks - prev_score_onset
            stretch = 1.0 + profile.rubato_amplitude * math.sin(
                2 * math.pi * note.onset_ticks / PHRASE_TICKS
            )
            perf_onset = prev_perf_onset + int(round(ioi * stretch))
        if prev_score_onset != note.onset_ticks:
            prev_score_onset = note.onset_ticks
            prev_perf_onset = perf_onset

        duration = int(round(note.duration_ticks * profile.articulation))
        notes.append(NoteEvent(perf_onset, min(1152, max(1, duration)), note.pitch,
                               int(min(127, max(1, round(velocity)))), note.channel))
    return replace(score, notes=tuple(notes), sustain_events=())


def split_counts(n: int) -> tuple[int, int, int]:
    """(train, valid, test) piece counts: 8:1:1 with floors for tiny sets.

    Every performer with >= 2 pieces gets at least one test item, and with
    >= 3 at least one validation item.
    """
    if n <= 1:
        return n, 0, 0
    n_test = max(1, n // 10)
    n_valid = max(1, n // 10) if n >= 3 else 0
    return n - n_valid - n_test, n_valid, n_test


def generate_corpus(spec: SyntheticCorpusSpec, out_dir: str | Path) -> dict:
    """Write scores, performances, alignments, and a manifest; returns the
    manifest. Deterministic for a given spec."""
    out = Path(out_dir)
    for sub in ("scores", "performances", "alignments"):
        (out / sub).mkdir(parents=True, exist_ok=True)

    rng = np.random.default_rng(spec.seed)
    # 8:1:1 split per performer over pieces, deterministic by piece index:
    # every performer plays every piece
    n_train, n_valid, _ = split_counts(spec.n_pieces)
    items = []
    for piece in range(spec.n_pieces):
        split = "train" if piece < n_train else "valid" if piece < n_train + n_valid else "test"
        score = generate_score(rng, spec.notes_per_piece)
        score_rel = f"scores/piece_{piece:03d}.mid"
        (out / score_rel).write_bytes(write_smf(score))
        for performer in range(spec.n_performers):
            perf = perform_score(score, spec.profiles[performer], rng)
            perf_rel = f"performances/piece_{piece:03d}_p{performer:02d}.mid"
            align_rel = f"alignments/piece_{piece:03d}_p{performer:02d}.json"
            (out / perf_rel).write_bytes(write_smf(perf))
            identity = AlignmentMap(tuple((i, i) for i in range(len(perf.notes))), (), ())
            (out / align_rel).write_text(identity.to_json())
            items.append(
                {
                    "piece": piece,
                    "performer_id": performer,
                    "score": score_rel,
                    "performance": perf_rel,
                    "alignment": align_rel,
                    "split": split,
                }
            )

    manifest = {
        "version": 1,
        "seed": spec.seed,
        "n_pieces": spec.n_pieces,
        "notes_per_piece": spec.notes_per_piece,
        "n_performers": spec.n_performers,
        "items": items,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return manifest


def build_training_pairs(
    score: NoteSequence,
    perf: NoteSequence,
    alignment: AlignmentMap,
    performer_id: int,
) -> list[tuple[TokenSegment, TokenSegment]]:
    """Aligned (score segment, performance segment) pairs for the trainer.

    Matched notes are tokenized on each side in pair order (so IOIs run over
    the matched subsequences) and windowed with shared boundaries.
    """
    score_toks = tokenize(score.subset(i for i, _ in alignment.pairs), is_score=True)
    perf_toks = tokenize(perf.subset(j for _, j in alignment.pairs), is_score=False)
    score_segs = segment_tokens(score_toks, performer_id)
    perf_segs = segment_tokens(perf_toks, performer_id)
    return list(zip(score_segs, perf_segs))
