"""Note-wise score/performance alignment.

Global sequence alignment (Needleman-Wunsch) over the canonical note orders:
of the alignments that match the most pairs of equal-pitch notes, the one
with the least summed onset distance (in beats) over its pairs wins. The
result is monotone and crossing-free by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain

from .midi_io import NoteSequence


@dataclass(frozen=True)
class AlignmentMap:
    """Index pairs matching score notes to performance notes."""

    pairs: tuple[tuple[int, int], ...]
    unmatched_score: tuple[int, ...]
    unmatched_perf: tuple[int, ...]

    def __post_init__(self):
        for (i, j), (i2, j2) in zip(self.pairs, self.pairs[1:]):
            if not (i < i2 and j < j2):
                raise ValueError("pairs must be strictly increasing in both coordinates")
        for side, unmatched in ((0, self.unmatched_score), (1, self.unmatched_perf)):
            indices = [pair[side] for pair in self.pairs] + list(unmatched)
            if min(indices, default=0) < 0 or len(set(indices)) != len(indices):
                raise ValueError("each note index must be >= 0 and appear once "
                                 "across pairs and unmatched notes")

    def check_covers(self, n_score: int, n_perf: int) -> None:
        """ValueError unless each side's pair and unmatched indices are
        exactly 0..n-1 for that side's note count."""
        for side, unmatched, n, name in ((0, self.unmatched_score, n_score, "score"),
                                         (1, self.unmatched_perf, n_perf, "performance")):
            if sorted([pair[side] for pair in self.pairs] + list(unmatched)) != list(range(n)):
                raise ValueError(f"alignment does not cover the {n} {name} notes exactly once")

    def to_json(self) -> str:
        return json.dumps(
            {
                "pairs": [list(p) for p in self.pairs],
                "unmatched_score": list(self.unmatched_score),
                "unmatched_perf": list(self.unmatched_perf),
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "AlignmentMap":
        """The map to_json wrote; ValueError for any other text."""
        try:
            obj = json.loads(text)
            pairs = tuple((i, j) for i, j in obj["pairs"])
            unmatched = tuple(obj["unmatched_score"]), tuple(obj["unmatched_perf"])
        except (KeyError, TypeError, ValueError, RecursionError) as err:
            raise ValueError(f"malformed alignment JSON: {err!r}") from err
        if not all(type(x) is int for x in chain(*pairs, *unmatched)):
            raise ValueError("alignment indices must be JSON integers")
        return cls(pairs, *unmatched)


_MATCH, _SKIP_SCORE, _SKIP_PERF = range(3)  # a cell's move, in order of preference


def align_notes(score: NoteSequence, perf: NoteSequence) -> AlignmentMap:
    """Align score notes to performance notes.

    The result matches the most pairs of equal-pitch notes and, among such
    alignments, has the least summed |onset difference| in beats over its
    pairs. Cell values are (matches, -onset_cost) compared as tuples; each
    cell records one byte, its move: on a tie a match, then skipping the
    score note, then skipping the performance note. The traceback replays it.
    """
    s_notes, p_notes = score.notes, perf.notes
    n, m = len(s_notes), len(p_notes)
    s_beats = [note.onset_ticks / score.ppq for note in s_notes]
    p_beats = [note.onset_ticks / perf.ppq for note in p_notes]
    p_pitches = [note.pitch for note in p_notes]

    # row[j]: the best (matches, -onset_cost) of s[:i] vs p[:j], prev[j] of s[:i - 1]
    width = m + 1
    moves = bytearray((n + 1) * width)
    prev = [(0, 0.0)] * width
    for i in range(1, n + 1):
        row = [(0, 0.0)] * width
        pitch, beat, at = s_notes[i - 1].pitch, s_beats[i - 1], i * width
        for j in range(1, width):
            up, left = prev[j], row[j - 1]
            key, move = (up, _SKIP_SCORE) if up >= left else (left, _SKIP_PERF)
            if pitch == p_pitches[j - 1]:
                k, c = prev[j - 1]
                match = (k + 1, c - abs(beat - p_beats[j - 1]))
                if match >= key:
                    key, move = match, _MATCH
            row[j] = key
            moves[at + j] = move
        prev = row

    pairs = []
    i, j = n, m
    while i > 0 and j > 0:
        move = moves[i * width + j]
        if move == _MATCH:
            pairs.append((i - 1, j - 1))
        i -= move != _SKIP_PERF
        j -= move != _SKIP_SCORE
    pairs.reverse()

    matched_s = {i for i, _ in pairs}
    matched_p = {j for _, j in pairs}
    return AlignmentMap(
        pairs=tuple(pairs),
        unmatched_score=tuple(i for i in range(n) if i not in matched_s),
        unmatched_perf=tuple(j for j in range(m) if j not in matched_p),
    )
