"""Note-wise score/performance alignment.

Global sequence alignment (Needleman-Wunsch) over the canonical note orders:
a pair may only match notes of equal pitch, every skipped note costs a gap
penalty, and among equal-score alignments the one minimizing the summed
onset distance (in beats) over matched pairs wins. The result is monotone
and crossing-free by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .midi_io import NoteSequence

DEFAULT_GAP_PENALTY = 0.5


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
            return cls(
                pairs=tuple((int(i), int(j)) for i, j in obj["pairs"]),
                unmatched_score=tuple(int(i) for i in obj["unmatched_score"]),
                unmatched_perf=tuple(int(j) for j in obj["unmatched_perf"]),
            )
        except (KeyError, TypeError, ArithmeticError, RecursionError) as err:
            raise ValueError(f"malformed alignment JSON: {err!r}") from err


def align_notes(
    score: NoteSequence, perf: NoteSequence, gap_penalty: float = DEFAULT_GAP_PENALTY
) -> AlignmentMap:
    """Align score notes to performance notes.

    Cell values are (score, -onset_cost) compared lexicographically: maximize
    the number of matches minus gap costs first, then minimize the summed
    |onset difference| in beats over the matched pairs. Traceback prefers
    diagonal, then score-gap, then perf-gap when still tied.
    """
    s_notes, p_notes = score.notes, perf.notes
    n, m = len(s_notes), len(p_notes)
    if n == 0 or m == 0:
        return AlignmentMap(
            pairs=(),
            unmatched_score=tuple(range(n)),
            unmatched_perf=tuple(range(m)),
        )

    s_beats = [note.onset_ticks / score.ppq for note in s_notes]
    p_beats = [note.onset_ticks / perf.ppq for note in p_notes]

    NEG = float("-inf")
    # score[i][j], cost[i][j]: best over alignments of s[:i] vs p[:j]
    best = [[NEG] * (m + 1) for _ in range(n + 1)]
    cost = [[0.0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        best[i][0] = -gap_penalty * i
    for j in range(m + 1):
        best[0][j] = -gap_penalty * j

    for i in range(1, n + 1):
        row, prev = best[i], best[i - 1]
        crow, cprev = cost[i], cost[i - 1]
        si = s_notes[i - 1].pitch
        sb = s_beats[i - 1]
        for j in range(1, m + 1):
            b, c = prev[j] - gap_penalty, cprev[j]  # skip score note
            b2, c2 = row[j - 1] - gap_penalty, crow[j - 1]  # skip perf note
            if (b2, -c2) > (b, -c):
                b, c = b2, c2
            if si == p_notes[j - 1].pitch:
                b3 = prev[j - 1] + 1.0
                c3 = cprev[j - 1] + abs(sb - p_beats[j - 1])
                if (b3, -c3) > (b, -c):
                    b, c = b3, c3
            row[j], crow[j] = b, c

    pairs = []
    i, j = n, m
    while i > 0 and j > 0:
        here = (best[i][j], -cost[i][j])
        if s_notes[i - 1].pitch == p_notes[j - 1].pitch:
            diag = (
                best[i - 1][j - 1] + 1.0,
                -(cost[i - 1][j - 1] + abs(s_beats[i - 1] - p_beats[j - 1])),
            )
            if diag == here:
                pairs.append((i - 1, j - 1))
                i, j = i - 1, j - 1
                continue
        if (best[i - 1][j] - gap_penalty, -cost[i - 1][j]) == here:
            i -= 1
            continue
        j -= 1
    pairs.reverse()

    matched_s = {i for i, _ in pairs}
    matched_p = {j for _, j in pairs}
    return AlignmentMap(
        pairs=tuple(pairs),
        unmatched_score=tuple(i for i in range(n) if i not in matched_s),
        unmatched_perf=tuple(j for j in range(m) if j not in matched_p),
    )
