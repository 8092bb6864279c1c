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


def align_notes(score: NoteSequence, perf: NoteSequence) -> AlignmentMap:
    """Align score notes to performance notes.

    The result matches the most pairs of equal-pitch notes and, among such
    alignments, has the least summed |onset difference| in beats over its
    pairs. Cell values are (matches, -onset_cost) compared as tuples; when
    still tied, the traceback prefers a match, then skipping the score note,
    then skipping the performance note.
    """
    s_notes, p_notes = score.notes, perf.notes
    n, m = len(s_notes), len(p_notes)
    s_beats = [note.onset_ticks / score.ppq for note in s_notes]
    p_beats = [note.onset_ticks / perf.ppq for note in p_notes]

    # best[i][j]: (matches, -onset_cost) of the best alignment of s[:i] vs p[:j]
    best = [[(0, 0.0)] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        row, prev = best[i], best[i - 1]
        pitch, beat = s_notes[i - 1].pitch, s_beats[i - 1]
        for j in range(1, m + 1):
            key = max(prev[j], row[j - 1])
            if pitch == p_notes[j - 1].pitch:
                k, c = prev[j - 1]
                key = max(key, (k + 1, c - abs(beat - p_beats[j - 1])))
            row[j] = key

    pairs = []
    i, j = n, m
    while i > 0 and j > 0:
        here = best[i][j]
        if s_notes[i - 1].pitch == p_notes[j - 1].pitch:
            k, c = best[i - 1][j - 1]
            if (k + 1, c - abs(s_beats[i - 1] - p_beats[j - 1])) == here:
                pairs.append((i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if best[i - 1][j] == here:
            i -= 1
        else:
            j -= 1
    pairs.reverse()

    matched_s = {i for i, _ in pairs}
    matched_p = {j for _, j in pairs}
    return AlignmentMap(
        pairs=tuple(pairs),
        unmatched_score=tuple(i for i in range(n) if i not in matched_s),
        unmatched_perf=tuple(j for j in range(m) if j not in matched_p),
    )
