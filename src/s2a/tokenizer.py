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
from typing import NamedTuple

import numpy as np

from .midi_io import TICKS_PER_BEAT, NoteEvent, NoteSequence, TimeSignatureEvent

PAD, BOS, EOS, MASK = 0, 1, 2, 3
N_SPECIALS = 4

SEGMENT_LEN = 256

PITCH_MIN, PITCH_MAX = 21, 108
SCORE_VELOCITY = 60

FEATURE_NAMES = ("pitch", "velocity", "duration", "ioi", "position", "bar")
PREDICTED = ("velocity", "ioi", "duration")  # the features the model renders


class VocabSpec:
    """Per-feature vocabulary sizes, including the 4 specials each."""

    SIZES = {"pitch": 92, "velocity": 68, "duration": 1156, "ioi": 772, "position": 388,
             "bar": 3004}

    def size(self, feature: str) -> int:
        return self.SIZES[feature]

    def n_values(self, feature: str) -> int:
        return self.SIZES[feature] - N_SPECIALS

    def sizes(self) -> tuple[int, ...]:
        return tuple(self.SIZES[name] for name in FEATURE_NAMES)


VOCAB = VocabSpec()


class TokenTuple(NamedTuple):
    pitch_tok: int
    velocity_tok: int
    duration_tok: int
    ioi_tok: int
    position_tok: int
    bar_tok: int

    def as_tuple(self) -> tuple[int, ...]:
        return tuple(self)


@dataclass(frozen=True, eq=False)
class TokenSegment:
    """A fixed 256-note window: integer ids [256, 6] (int64 from segment) in
    FEATURE_NAMES column order, whose first n_real rows are notes and the
    rest PAD rows. ValueError for ids of another type, dtype or shape."""

    ids: np.ndarray
    n_real: int
    performer_id: int

    def __post_init__(self):
        if not (isinstance(self.ids, np.ndarray) and np.issubdtype(self.ids.dtype, np.integer)):
            got = self.ids.dtype if isinstance(self.ids, np.ndarray) else type(self.ids).__name__
            raise ValueError(f"segment ids must be an integer numpy array, got {got}")
        if self.ids.shape != (SEGMENT_LEN, len(FEATURE_NAMES)):
            raise ValueError(f"segment ids must have shape ({SEGMENT_LEN}, {len(FEATURE_NAMES)})")
        for name in ("n_real", "performer_id"):  # a float or a bool would be cast to an id
            if type(getattr(self, name)) is not int:
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.n_real <= SEGMENT_LEN:
            raise ValueError(f"n_real must be in 0..{SEGMENT_LEN}, got {self.n_real}")


def bar_and_position(seq: NoteSequence, onsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(bar indices, ticks since bar start) of an int array of onsets under
    seq's time-signature map, two int arrays of its shape.

    A beat is one quarter note regardless of meter, a partial bar before a
    signature change still counts as a bar, and an onset before the first
    signature counts from it. ValueError if a bar of the map is shorter than
    one tick.
    """
    sigs = seq.effective_time_signatures()
    starts = np.array([sig.tick for sig in sigs])
    bar_len = np.array([sig.numerator * seq.ppq * 4 // sig.denominator for sig in sigs])
    if not bar_len.all():
        sig = sigs[int(np.argmin(bar_len))]
        raise ValueError(f"a {sig.numerator}/{sig.denominator} bar at tick {sig.tick} is "
                         f"shorter than one tick at ppq {seq.ppq}")
    bars_before = np.cumsum(np.concatenate(([0], -(-np.diff(starts) // bar_len[:-1]))))
    k = np.maximum(np.searchsorted(starts, onsets, side="right") - 1, 0)
    since = onsets - starts[k]
    return bars_before[k] + since // bar_len[k], since % bar_len[k]


def tokenize(seq: NoteSequence, is_score: bool) -> list[TokenTuple]:
    """Tokenize a 96-ticks-per-beat NoteSequence in canonical note order.

    Score sequences get their velocity forced to the constant 60 so notation
    without dynamics tokenizes identically to exported score MIDI.
    """
    if seq.ppq != TICKS_PER_BEAT:
        raise ValueError(
            f"sequence must be resampled to {TICKS_PER_BEAT} ticks per beat, got ppq={seq.ppq}"
        )
    pitch, velocity, duration, onset = np.array(
        [(n.pitch, n.velocity, n.duration_ticks, n.onset_ticks) for n in seq.notes], dtype=np.int64
    ).reshape(-1, 4).T
    off_piano = np.flatnonzero((pitch < PITCH_MIN) | (pitch > PITCH_MAX))
    if off_piano.size:
        idx = off_piano[0]
        raise ValueError(
            f"note {idx}: pitch {pitch[idx]} outside piano range {PITCH_MIN}..{PITCH_MAX}"
        )
    bar, position = bar_and_position(seq, onset)
    ids = N_SPECIALS + np.stack([
        pitch - PITCH_MIN,
        np.where(is_score, SCORE_VELOCITY, velocity) // 2,
        np.clip(duration, 1, VOCAB.n_values("duration")) - 1,
        np.clip(np.diff(onset, prepend=onset[:1]), 0, VOCAB.n_values("ioi") - 1),
        np.clip(position, 0, VOCAB.n_values("position") - 1),
        np.clip(bar, 0, VOCAB.n_values("bar") - 1),
    ], axis=1)
    return list(map(TokenTuple._make, ids.tolist()))


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
    toks = np.array([pitch_toks, velocity_toks, ioi_toks, duration_toks], dtype=np.int64)
    special = np.argwhere(toks < N_SPECIALS)  # in stream order, then position order
    if special.size:
        stream, pos = special[0]
        name = ("pitch", "velocity", "ioi", "duration")[stream]
        raise ValueError(f"special token {toks[stream, pos]} in {name} stream at position {pos}")
    pitch, velocity, ioi, duration = toks - N_SPECIALS
    ioi[:1] = 0
    notes = zip(np.cumsum(ioi).tolist(), (duration + 1).tolist(), (pitch + PITCH_MIN).tolist(),
                np.minimum(velocity * 2 + 1, 127).tolist())
    return NoteSequence(ppq=TICKS_PER_BEAT, notes=tuple(NoteEvent(*row) for row in notes),
                        time_signatures=time_signatures)


def segment(tuples: list[TokenTuple], performer_id: int) -> list[TokenSegment]:
    """Cut a token stream into consecutive 256-note windows, in stream order,
    PAD-filling the last one."""
    rows = np.array(tuples, dtype=np.int64).reshape(-1, len(FEATURE_NAMES))
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
        lines.append("\t".join(map(str, t)))
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
