"""Six-feature note tokenization and 256-note segmentation.

Each note becomes a (pitch, velocity, duration, ioi, position, bar) tuple of
integer ids drawn from per-feature vocabularies. Every vocabulary reserves
four special ids (PAD=0, BOS=1, EOS=2, MASK=3) ahead of the value range:

    pitch     4 + (pitch - 21)            88 piano keys      -> size 92
    velocity  4 + floor(v / 2)            64 bins of width 2 -> size 68
    duration  4 + clamp(ticks, 1, 1152) - 1                  -> size 1156
    ioi       4 + clamp(delta, 0, 767)                       -> size 772
    position  4 + clamp(ticks into bar, 0, 383)              -> size 388
    bar       4 + clamp(bar index, 0, 2999)                  -> size 3004

The layout is derived: only the six totals are fixed, and four specials per
feature is the unique count that makes all of them self-consistent. Out of
range duration/IOI/position/bar values clamp rather than error so long
fermatas or very long pieces survive tokenization; out of range pitches are
an error (not a piano note).

A segment is a [256, 6] int64 id array in FEATURE_NAMES column order: the
first n_real rows are notes, the rest PAD rows of zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .midi_io import TICKS_PER_BEAT, NoteEvent, NoteSequence, TimeSignatureEvent

PAD, BOS, EOS, MASK = 0, 1, 2, 3
N_SPECIALS = 4

SEGMENT_LEN = 256

PITCH_MIN, PITCH_MAX = 21, 108
SCORE_VELOCITY = 60

FEATURE_NAMES = ("pitch", "velocity", "duration", "ioi", "position", "bar")
PREDICTED = ("velocity", "ioi", "duration")  # the features the model renders


@dataclass(frozen=True)
class VocabSpec:
    """Per-feature vocabulary sizes, including the 4 specials each."""

    pitch: int = 92
    velocity: int = 68
    duration: int = 1156
    ioi: int = 772
    position: int = 388
    bar: int = 3004

    def __post_init__(self):
        expected = VocabSpec.__dataclass_fields__
        for name in FEATURE_NAMES:
            size = getattr(self, name)
            default = expected[name].default
            if size != default:
                raise ValueError(f"{name} vocabulary must have size {default}, got {size}")

    def size(self, feature: str) -> int:
        return getattr(self, feature)

    def n_values(self, feature: str) -> int:
        return getattr(self, feature) - N_SPECIALS

    def sizes(self) -> tuple[int, ...]:
        return tuple(getattr(self, name) for name in FEATURE_NAMES)


VOCAB = VocabSpec()  # the only spec __post_init__ accepts


@dataclass(frozen=True)
class TokenTuple:
    pitch_tok: int
    velocity_tok: int
    duration_tok: int
    ioi_tok: int
    position_tok: int
    bar_tok: int

    def as_tuple(self) -> tuple[int, ...]:
        return (
            self.pitch_tok,
            self.velocity_tok,
            self.duration_tok,
            self.ioi_tok,
            self.position_tok,
            self.bar_tok,
        )


@dataclass(frozen=True, eq=False)
class TokenSegment:
    """A fixed 256-note window: int64 ids [256, 6] in FEATURE_NAMES column
    order, whose first n_real rows are notes and the rest PAD rows."""

    ids: np.ndarray
    n_real: int
    performer_id: int

    def __post_init__(self):
        if self.ids.shape != (SEGMENT_LEN, len(FEATURE_NAMES)):
            raise ValueError(f"segment ids must have shape ({SEGMENT_LEN}, {len(FEATURE_NAMES)})")
        if not 0 <= self.n_real <= SEGMENT_LEN:
            raise ValueError(f"n_real must be in 0..{SEGMENT_LEN}, got {self.n_real}")


def bar_length_ticks(sig: TimeSignatureEvent, ticks_per_beat: int = TICKS_PER_BEAT) -> int:
    """Bar length in ticks; a beat is one quarter note regardless of meter."""
    return sig.numerator * ticks_per_beat * 4 // sig.denominator


def bar_and_position(seq: NoteSequence, onset: int) -> tuple[int, int]:
    """(bar index, ticks since bar start) under seq's time-signature map."""
    sigs = seq.effective_time_signatures()
    bars_before = 0
    for i, sig in enumerate(sigs):
        bar_len = bar_length_ticks(sig, seq.ppq)
        seg_start = sig.tick
        seg_end = sigs[i + 1].tick if i + 1 < len(sigs) else None
        if seg_end is not None and onset >= seg_end:
            # a partial bar before a signature change still counts as a bar
            bars_before += -(-(seg_end - seg_start) // bar_len)
            continue
        return bars_before + (onset - seg_start) // bar_len, (onset - seg_start) % bar_len
    raise AssertionError("unreachable: final segment is open-ended")


def _clamp(value: int, lo: int, hi: int) -> int:
    return max(lo, min(hi, value))


def tokenize(seq: NoteSequence, is_score: bool) -> list[TokenTuple]:
    """Tokenize a 96-ticks-per-beat NoteSequence in canonical note order.

    Score sequences get their velocity forced to the constant 60 so notation
    without dynamics tokenizes identically to exported score MIDI.
    """
    if seq.ppq != TICKS_PER_BEAT:
        raise ValueError(
            f"sequence must be resampled to {TICKS_PER_BEAT} ticks per beat, got ppq={seq.ppq}"
        )
    out: list[TokenTuple] = []
    prev_onset: int | None = None
    for idx, note in enumerate(seq.notes):
        if not PITCH_MIN <= note.pitch <= PITCH_MAX:
            raise ValueError(
                f"note {idx}: pitch {note.pitch} outside piano range {PITCH_MIN}..{PITCH_MAX}"
            )
        velocity = SCORE_VELOCITY if is_score else note.velocity
        ioi = 0 if prev_onset is None else note.onset_ticks - prev_onset
        bar, position = bar_and_position(seq, note.onset_ticks)
        out.append(
            TokenTuple(
                pitch_tok=N_SPECIALS + (note.pitch - PITCH_MIN),
                velocity_tok=N_SPECIALS + velocity // 2,
                duration_tok=N_SPECIALS + _clamp(note.duration_ticks, 1, VOCAB.n_values("duration")) - 1,
                ioi_tok=N_SPECIALS + _clamp(ioi, 0, VOCAB.n_values("ioi") - 1),
                position_tok=N_SPECIALS + _clamp(position, 0, VOCAB.n_values("position") - 1),
                bar_tok=N_SPECIALS + _clamp(bar, 0, VOCAB.n_values("bar") - 1),
            )
        )
        prev_onset = note.onset_ticks
    return out


def detokenize(
    pitch_toks: list[int],
    velocity_toks: list[int],
    ioi_toks: list[int],
    duration_toks: list[int],
    time_signatures: tuple[TimeSignatureEvent, ...] = (),
) -> NoteSequence:
    """Rebuild a performance NoteSequence from score pitches and predicted
    velocity/IOI/duration ids.

    Onsets accumulate from IOIs starting at 0; velocities decode to bin
    centers (odd values 1..127).
    """
    lengths = {len(pitch_toks), len(velocity_toks), len(ioi_toks), len(duration_toks)}
    if len(lengths) != 1:
        raise ValueError("token lists must all share one length")
    for name, toks in (
        ("pitch", pitch_toks),
        ("velocity", velocity_toks),
        ("ioi", ioi_toks),
        ("duration", duration_toks),
    ):
        for pos, tok in enumerate(toks):
            if tok < N_SPECIALS:
                raise ValueError(f"special token {tok} in {name} stream at position {pos}")

    notes = []
    onset = 0
    for i in range(len(pitch_toks)):
        if i > 0:
            onset += ioi_toks[i] - N_SPECIALS
        velocity = _clamp((velocity_toks[i] - N_SPECIALS) * 2 + 1, 1, 127)
        notes.append(
            NoteEvent(
                onset_ticks=onset,
                duration_ticks=duration_toks[i] - N_SPECIALS + 1,
                pitch=pitch_toks[i] - N_SPECIALS + PITCH_MIN,
                velocity=velocity,
            )
        )
    return NoteSequence(ppq=TICKS_PER_BEAT, notes=tuple(notes), time_signatures=time_signatures)


def segment(tuples: list[TokenTuple], performer_id: int) -> list[TokenSegment]:
    """Cut a token stream into consecutive 256-note windows, in stream order,
    PAD-filling the last one."""
    rows = np.array([t.as_tuple() for t in tuples], dtype=np.int64).reshape(-1, len(FEATURE_NAMES))
    segments = []
    for start in range(0, len(rows), SEGMENT_LEN):
        window = rows[start:start + SEGMENT_LEN]
        ids = np.full((SEGMENT_LEN, len(FEATURE_NAMES)), PAD, dtype=np.int64)
        ids[:len(window)] = window
        segments.append(TokenSegment(ids, len(window), performer_id))
    return segments


# ---------------------------------------------------------------------------
# Token dump format (one note per line, six tab-separated ids)

def dump_tokens(tuples: list[TokenTuple]) -> str:
    lines = ["\t".join(FEATURE_NAMES)]
    for t in tuples:
        lines.append("\t".join(str(v) for v in t.as_tuple()))
    return "\n".join(lines) + "\n"


def load_tokens(text: str) -> list[TokenTuple]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or tuple(lines[0].split("\t")) != FEATURE_NAMES:
        raise ValueError("token dump must start with the feature-name header")
    out = []
    for ln in lines[1:]:
        ids = [int(v) for v in ln.split("\t")]
        if len(ids) != 6:
            raise ValueError(f"expected 6 ids per line, got {len(ids)}")
        out.append(TokenTuple(*ids))
    return out
